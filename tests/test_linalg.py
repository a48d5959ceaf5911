"""Exact sparse elimination against a dense sympy oracle."""

import random
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from superuce import Echelon, SparseMatrix, kernel_basis, quotient_space
from superuce.linalg import echelon_rows, rank_of_rows

import reference_kernels as ref

ONE = Fraction(1)


def section(pres, w):
    """The canonical section: quotient coordinate q to the ambient basis
    vector at free column q."""
    return {pres.free_columns[q]: x for q, x in w.items() if x}


def to_sympy(mat: SparseMatrix) -> sympy.Matrix:
    M = sympy.zeros(mat.nrows, mat.ncols)
    for r, row in enumerate(mat.rows):
        for c, x in row.items():
            M[r, c] = sympy.Rational(x.numerator, x.denominator)
    return M


def sparse_rows(draw_entries, nrows, ncols):
    rows = []
    for r in range(nrows):
        row = {}
        for c in range(ncols):
            x = draw_entries(r, c)
            if x:
                row[c] = Fraction(x)
        rows.append(row)
    return rows


# non-integral entries make every elimination clear denominators first
small_entries = st.builds(Fraction, st.integers(min_value=-4, max_value=4),
                          st.integers(min_value=1, max_value=6))


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            x = draw(small_entries)
            if x:
                row[c] = Fraction(x)
        rows.append(row)
    return SparseMatrix(rows, ncols)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_matches_sympy(mat):
    ech = echelon_rows(mat.rows)
    pivots = tuple(sorted(ech))
    oracle, opivots = to_sympy(mat).rref()
    assert pivots == tuple(opivots)
    dense = to_sympy(SparseMatrix([ech[p] for p in pivots], mat.ncols))
    assert dense == oracle[:len(pivots), :]


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_matches_sympy(mat):
    kern = kernel_basis(mat)
    oracle = to_sympy(mat).nullspace()
    assert len(kern) == len(oracle)
    M = to_sympy(mat)
    for v in kern:
        col = sympy.zeros(mat.ncols, 1)
        for c, x in v.items():
            col[c] = sympy.Rational(x.numerator, x.denominator)
        assert M * col == sympy.zeros(mat.nrows, 1)


@settings(max_examples=40, deadline=None)
@given(matrices(max_rows=8, max_cols=8))
def test_row_space_matches_fraction_reference(mat):
    assert echelon_rows(mat.rows) == ref.fraction_echelon_rows(mat.rows)
    assert rank_of_rows(mat.rows) == ref.fraction_rank_of_rows(mat.rows)


def test_rref_deterministic_under_shuffle():
    rng = random.Random(7)
    rows = sparse_rows(lambda r, c: rng.randint(-3, 3) if rng.random() < 0.4 else 0, 10, 8)
    base = echelon_rows(rows)
    for _ in range(5):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert echelon_rows(shuffled) == base


def test_echelon_reduce_certificate():
    ech = Echelon(track=True)
    v1 = {0: ONE, 1: ONE}
    v2 = {1: ONE, 2: ONE}
    ech.insert(v1, tag="a")
    ech.insert(v2, tag="b")
    residue, cert = ech.reduce({0: ONE, 2: -ONE})
    assert not residue
    # v1 - v2 reproduces the target
    assert cert == {"a": ONE, "b": -ONE}


def test_reduce_certificate_and_membership():
    basis = [{0: ONE, 1: ONE}, {1: ONE, 2: ONE}]
    ech = Echelon(track=True)
    for i, b in enumerate(basis):
        ech.insert(b, tag=i)
    for half in (Fraction(1, 2), 1):
        target = {0: 2 * half, 1: 3 * half, 2: half}
        residue, coeffs = ech.reduce(target)
        assert not residue
        assert coeffs == {0: 2 * half, 1: half}
        # a coefficient is an int exactly when it is integral
        assert all(type(x) is (int if x.denominator == 1 else Fraction)
                   for x in coeffs.values())
        recon = {}
        for i, x in coeffs.items():
            for c, y in basis[i].items():
                recon[c] = recon.get(c, 0) + x * y
        assert {c: x for c, x in recon.items() if x} == target
        assert ech.contains(target)
        residue, _ = ech.reduce({0: half})
        assert residue == {2: half}
    assert not ech.contains({3: ONE})


@settings(max_examples=40, deadline=None)
@given(matrices(max_rows=5, max_cols=7))
def test_quotient_laws(mat):
    pres = quotient_space(mat.ncols, list(mat.rows))
    oracle_rank = to_sympy(mat).rank()
    assert pres.dim == mat.ncols - oracle_rank
    # project . section is the identity on quotient coordinates
    for q in range(pres.dim):
        assert pres.project(section(pres, {q: ONE})) == {q: ONE}
    # relations project to zero
    for row in mat.rows:
        assert pres.project(dict(row)) == {}
    # section(project(v)) - v lies in the relation span
    rng = random.Random(3)
    v = {c: Fraction(rng.randint(-3, 3)) for c in range(mat.ncols)}
    v = {c: x for c, x in v.items() if x}
    diff = section(pres, pres.project(v))
    for c, x in v.items():
        diff[c] = diff.get(c, Fraction(0)) - x
    diff = {c: x for c, x in diff.items() if x}
    ech = Echelon()
    for row in mat.rows:
        ech.insert(row)
    assert ech.contains(diff)


def test_quotient_matrices_consistent():
    """A fixed quotient of Q^4 by e0 + e2 and e1 - e2: the projection's
    matrix column by column, and the section identity."""
    rows = [{0: ONE, 2: ONE}, {1: ONE, 2: -ONE}]
    pres = quotient_space(4, rows)
    assert pres.free_columns == (2, 3)
    assert [pres.project({c: ONE}) for c in range(4)] == [{0: -ONE}, {0: ONE}, {0: ONE}, {1: ONE}]
    for q in range(pres.dim):
        assert pres.project(section(pres, {q: ONE})) == {q: ONE}


def test_out_of_range_relation_rejected():
    import pytest

    with pytest.raises(ValueError):
        quotient_space(2, [{5: ONE}])
    with pytest.raises(ValueError):
        SparseMatrix([{3: ONE}], 2)

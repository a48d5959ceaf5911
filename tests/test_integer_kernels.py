"""The integer kernels against their Fraction references.

validate_lie, validate_assoc, the relation generator _tensor_relations
and Echelon clear denominators and compute on ints;
tests/reference_kernels.py keeps the Fraction versions they replaced.
On tables and rows with non-integral entries, valid and invalid, both
must give the same violations in the same order, the same relation span,
and the same pivots, ranks, residues, certificates and reduced rows;
Echelon's values are ints wherever they are integral.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from scalar_rule import scalar_faults
from superuce import (
    Echelon,
    GradedBasis,
    build_family,
    coefficient_algebra,
    validate_assoc,
    validate_lie,
)
from superuce.algebra import _integral_table, _tensor_relations
from superuce.linalg import echelon_rows

from systems_util import gl2_assoc, heisenberg, osp12, sl2
import unvalidated

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 6))
nonzero = rationals.filter(bool)


def _sl21():
    return build_family("sl", 2, 1, coefficient_algebra("Q")).algebra


LIE = {"sl2": sl2, "heis": heisenberg, "osp12": osp12, "sl21": _sl21}
ASSOC = {
    "gl2": gl2_assoc,
    "t3": lambda: coefficient_algebra("Q[t]/(t^3)"),
    "grass2": lambda: coefficient_algebra("Grassmann(2)"),
    "mat2": lambda: coefficient_algebra("Mat(2,0;Q)"),
}


def _basis(par):
    return GradedBasis([f"b{i}" for i in range(len(par))], par)


def rescaled(table, scales):
    """Structure constants in the basis c_i b_i: x * c_i c_j / c_k."""
    d = len(table)
    return [[{k: x * scales[i] * scales[j] / scales[k] for k, x in table[i][j].items()}
             for j in range(d)] for i in range(d)]


@st.composite
def cells(draw, par, i, j, graded):
    want = (par[i] + par[j]) & 1
    return {k: draw(nonzero) for k in range(len(par))
            if (not graded or par[k] == want) and draw(st.integers(0, 2)) == 0}


@st.composite
def random_lie(draw, max_dim=4):
    """Super skew-symmetric tables (so Jacobi is reached), mostly invalid."""
    d = draw(st.integers(1, max_dim))
    par = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    graded = draw(st.booleans())
    table = [[{} for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            if i == j and par[i] == 0:
                continue
            cell = draw(cells(par, i, j, graded))
            sign = -1 if par[i] and par[j] else 1
            table[i][j] = cell
            table[j][i] = {k: -sign * x for k, x in cell.items()}
    if draw(st.booleans()):  # break skew-symmetry at one pair
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        table[i][j] = {**table[i][j], 0: draw(nonzero)}
    return unvalidated.lie(_basis(par), table)


@st.composite
def rescaled_lie(draw):
    """A built-in algebra in a rescaled basis, sometimes perturbed."""
    L = LIE[draw(st.sampled_from(sorted(LIE)))]()
    scales = draw(st.lists(nonzero, min_size=L.dim, max_size=L.dim))
    table = rescaled(L.table, scales)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, L.dim - 1)), draw(st.integers(0, L.dim - 1))
        k = draw(st.integers(0, L.dim - 1))
        par = L.basis.parities
        if i != j and par[k] == (par[i] + par[j]) & 1:
            x = draw(nonzero)
            sign = -1 if par[i] and par[j] else 1
            table[i][j] = {**table[i][j], k: table[i][j].get(k, 0) + x}
            table[j][i] = {**table[j][i], k: table[j][i].get(k, 0) - sign * x}
    return unvalidated.lie(L.basis, table)


@st.composite
def random_assoc(draw, max_dim=3):
    d = draw(st.integers(1, max_dim))
    par = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    graded = draw(st.booleans())
    table = [[draw(cells(par, i, j, graded)) for j in range(d)] for i in range(d)]
    unit = {0: draw(nonzero)}
    return unvalidated.assoc(_basis(par), table, unit)


@st.composite
def rescaled_assoc(draw):
    A = ASSOC[draw(st.sampled_from(sorted(ASSOC)))]()
    scales = draw(st.lists(nonzero, min_size=A.dim, max_size=A.dim))
    table = rescaled(A.table, scales)
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, A.dim - 1)) for _ in range(3))
        table[i][j] = {**table[i][j], k: table[i][j].get(k, 0) + draw(nonzero)}
    unit = {k: x / scales[k] for k, x in A.unit.items()}
    return unvalidated.assoc(A.basis, table, unit)


@settings(max_examples=80, deadline=None)
@given(st.one_of(random_lie(), rescaled_lie()))
def test_validate_lie_matches_reference(L):
    assert validate_lie(L).violations == ref.validate_lie(L).violations


@settings(max_examples=80, deadline=None)
@given(st.one_of(random_assoc(), rescaled_assoc()))
def test_validate_assoc_matches_reference(A):
    assert validate_assoc(A).violations == ref.validate_assoc(A).violations


def test_rescaled_builtins_stay_valid():
    scales = [Fraction(k + 1, 6 - k % 5) for k in range(16)]
    for make in LIE.values():
        L = make()
        M = unvalidated.lie(L.basis, rescaled(L.table, scales[:L.dim]))
        assert validate_lie(M).ok
    for make in ASSOC.values():
        A = make()
        unit = {k: x / scales[k] for k, x in A.unit.items()}
        B = unvalidated.assoc(A.basis, rescaled(A.table, scales[:A.dim]), unit)
        assert validate_assoc(B).ok


@settings(max_examples=60, deadline=None)
@given(st.one_of(random_lie(), rescaled_lie()))
def test_b_relations_span_matches_reference(L):
    rows = _tensor_relations(L.table, L.basis.parities)
    assert all(type(x) is int for row in rows for x in row.values())
    # no repeated pair or diagonal row: they come first, once each, where
    # the reference repeats every even diagonal row (cyclic rows may
    # coincide with each other or with a pair row, so they are not compared)
    d, evens = L.dim, L.basis.parities.count(0)
    head = rows[:d * (d - 1) // 2 + evens]
    assert len({frozenset(row.items()) for row in head}) == len(head)
    assert len(rows) == len(ref.b_relations(L)) - evens
    want = ref.fraction_echelon_rows(ref.b_relations(L))
    assert ref.fraction_echelon_rows(rows) == want
    assert echelon_rows(rows) == want


def test_integral_table_returns_an_int_table_itself():
    L = sl2()
    assert _integral_table(L.table) == (L.table, 1)
    assert _integral_table(L.table)[0] is L.table
    # in the basis e, 2h, 3f: [2h, e] = 4e, [2h, 3f] = -4(3f), [e, 3f] = (3/2)(2h)
    scaled = unvalidated.lie(L.basis, rescaled(L.table, [Fraction(k) for k in (1, 2, 3)]))
    itable, den = _integral_table(scaled.table)
    assert den == 2 and itable is not scaled.table
    assert all(type(x) is int for row in itable for cell in row for x in cell.values())
    assert itable == tuple(tuple({k: den * x for k, x in cell.items()} for cell in row)
                           for row in scaled.table)


@st.composite
def row_lists(draw, max_rows=8, max_cols=7):
    ncols = draw(st.integers(1, max_cols))
    row = st.dictionaries(st.integers(0, ncols - 1), rationals, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=max_rows))
    # targets: random vectors and rational combinations of the rows
    targets = draw(st.lists(row, max_size=3))
    for _ in range(2):
        coeffs = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
        comb: dict = {}
        for c, r in zip(coeffs, rows):
            for k, x in r.items():
                comb[k] = comb.get(k, 0) + c * x
        targets.append({k: x for k, x in comb.items() if x})
    return rows, targets


@settings(max_examples=100, deadline=None)
@given(row_lists(), st.booleans())
def test_echelon_matches_reference(data, track):
    rows, targets = data
    new, old = Echelon(track=track), ref.Echelon(track=track)
    for i, row in enumerate(rows):
        tag = f"r{i}" if i % 2 else None  # explicit and automatic tags
        assert new.insert(row, tag=tag) == old.insert(row, tag=tag)
    assert new.rank == old.rank and new.pivots == old.pivots
    assert new.rref_rows() == old.rref_rows()
    # equal values, but an int wherever the reference holds an integral Fraction
    assert not scalar_faults([new.certs, new.rref_rows()])
    for target in targets:
        assert new.reduce(target) == old.reduce(target)
        assert not scalar_faults(new.reduce(target))
        assert new.contains(target) == old.contains(target)

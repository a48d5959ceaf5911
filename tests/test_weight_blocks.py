"""The weight-block build_uce and the weight-0 oracle against one
elimination of the whole relation space and the Fraction oracle.

build_uce eliminates only the weight-0 relations of a regular torus
element and reads every other weight block off the bracket images.
tests/reference_kernels.py keeps the full route, quotient_space of all the
relation rows; both must give the same RREF relations and free columns.
h2_cohomology_oracle counts only the weight-0 cochains of the grading by
the diagonal basis elements, in ints; the reference counts every cochain
in Fraction arithmetic, and both must give the same dimension.  Both
comparisons run on built-in algebras in permuted and rescaled bases, on
non-perfect ones, in bases where the torus is trivial, and on the
benchmark's documents, and the extension is checked to store every
integral value as an int (tests/scalar_rule.py).  Five certificates
are checked to fire: on a corrupted torus weight, on a block that loses
its free columns, on a corrupted stored row, on a corrupted lift, and on
a corrupted oracle weight.  build_uce is seen to project no extension
cell, and the extension table to project its reachable cells once, on
first access.  The torus is found once per algebra, by validation when
the algebra is validated, and it
equals the torus of one solve of its whole system, which the reference
keeps.  The oracle is checked to answer with the
extension builder, its torus and the shared cyclic-identity generator
all broken.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from scalar_rule import scalar_faults
from superuce import (
    CertificateError,
    GradedBasis,
    LieSuperalgebra,
    build_family,
    build_uce,
    coefficient_algebra,
    h_iso_check,
    lie_from_assoc,
)
from superuce import algebra, uce
from superuce.algebra import _integral_table
from superuce.cli import parse_algebra

from systems_util import gl2_assoc, heisenberg, osp12, sl2
from test_acceptance import acceptance_test_matrix
import unvalidated

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def _family(kind, m, n, coeff="Q"):
    return lambda: build_family(kind, m, n, coefficient_algebra(coeff)).algebra


ALGEBRAS = {
    "sl2": sl2,
    "sl3": _family("sl", 3, 0),
    "sl21": _family("sl", 2, 1),
    "sl2_t2": _family("sl", 2, 0, "Q[t]/(t^2)"),
    "osp12": osp12,
    "osp32": _family("osp", 3, 2),
    "p3": _family("p", 3, 3),
    "sq3": _family("sq", 3, 3),
    "gl2": lambda: lie_from_assoc(gl2_assoc()),
    "heis": heisenberg,
}

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
nonzero = rationals.filter(bool)


def assert_same_as_reference(L):
    ext = build_uce(L)
    got = ext.presentation
    want = ref.reference_presentation(L)
    assert got.free_columns == want.free_columns
    # every RREF row, stored or read through the bracket: e_c - section(project(e_c))
    assert got.pivots == want.pivots
    for c in want.pivots:
        row = {c: 1}
        for q, x in got.project({c: 1}).items():
            row[got.free_columns[q]] = -x
        assert row == want.relations[c] == got.relations.get(c, row)
    assert uce.h2_cohomology_oracle(L) == ref.h2_cohomology_oracle(L)
    # tables, presentation and kernel: a Fraction only where a denominator exists
    assert not scalar_faults(ext)


def oracle_weights(L):
    return uce._diagonal_weights(_integral_table(L.table)[0], L.basis.parities)


def change_of_basis(L, P):
    """L in the basis v_i = sum_a P[i][a] b_a, which must be invertible
    and mix only basis elements of equal parity."""
    d = L.dim
    inv = sympy.Matrix(P).inv()
    Pinv = [[Fraction(int(x.p), int(x.q)) for x in inv.row(i)] for i in range(d)]
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            old: dict = {}
            for a, x in enumerate(P[i]):
                for b, y in enumerate(P[j]):
                    if x and y:
                        for k, z in L.table[a][b].items():
                            old[k] = old.get(k, 0) + x * y * z
            new: dict = {}
            for k, z in old.items():
                for t, w in enumerate(Pinv[k]):
                    if z and w:
                        new[t] = new.get(t, 0) + z * w
            row.append({t: x for t, x in new.items() if x})
        table.append(row)
    par = [next(L.basis.parities[a] for a, x in enumerate(P[i]) if x) for i in range(d)]
    return LieSuperalgebra(GradedBasis([f"v{i}" for i in range(d)], par), table)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)), st.randoms(use_true_random=False), st.data())
def test_permuted_and_rescaled_bases(name, rng, data):
    L = ALGEBRAS[name]()
    d = L.dim
    order = list(range(d))
    rng.shuffle(order)
    scales = data.draw(st.lists(nonzero, min_size=d, max_size=d))
    P = [[scales[i] if a == order[i] else 0 for a in range(d)] for i in range(d)]
    assert_same_as_reference(change_of_basis(L, P))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["sl2", "osp12", "sl21", "gl2", "heis"]), st.data())
def test_dense_change_of_basis(name, data):
    L = ALGEBRAS[name]()
    d = L.dim
    par = L.basis.parities
    P = [[data.draw(nonzero) if par[a] == par[i] else 0 for a in range(d)] for i in range(d)]
    assume(sympy.Matrix(P).det() != 0)
    assert_same_as_reference(change_of_basis(L, P))


def test_dense_basis_has_trivial_torus_and_one_block():
    L = sl2()
    P = [[1, 2, 1], [1, 1, 3], [2, 1, 1]]
    M = change_of_basis(L, P)
    h, weights = algebra._torus(M)
    assert weights == [0, 0, 0]
    assert not h
    assert oracle_weights(M) == [(), (), ()]
    assert_same_as_reference(M)


def test_torus_grades_sl_family():
    L = ALGEBRAS["sl21"]()
    _, weights = algebra._torus(L)
    # sl(2,1;Q) has a rank-2 torus: 6 root spaces and a weight-0 Cartan
    assert weights.count(0) == 2
    assert len(set(weights)) == 7
    # the oracle grades by the two diagonal basis elements, just as finely
    tuples = oracle_weights(L)
    assert {len(w) for w in tuples} == {2}
    assert tuples.count((0, 0)) == 2
    assert len(set(tuples)) == 7


@pytest.mark.parametrize("path", sorted(INPUTS.glob("*.json")), ids=lambda p: p.stem)
def test_benchmark_documents(path):
    assert_same_as_reference(parse_algebra(json.loads(path.read_text(encoding="utf-8"))))


def test_corrupted_weight_is_caught(monkeypatch):
    # sl(2) on e, h/4, f: the torus weights 1/2, 0, -1/2 need the
    # denominator 2, and without it they truncate to 0
    def rescaled():
        return change_of_basis(sl2(), [[1, 0, 0], [0, Fraction(1, 4), 0], [0, 0, 1]])

    L = rescaled()
    assert algebra._torus(L)[1] == [1, 0, -1]
    monkeypatch.setattr(algebra, "_denominator_lcm", lambda values: 1)
    message = f"not diagonal with weight 0 at basis element {L.basis.labels[0]}$"
    # validation finds the torus, so construction fires
    with pytest.raises(CertificateError, match=message):
        rescaled()
    # an unvalidated copy keeps no torus, so each route finds it afresh
    for route in (algebra._torus, build_uce):
        with pytest.raises(CertificateError, match=message):
            route(unvalidated.lie(L.basis, L.table))


def _count_torus_systems(monkeypatch) -> list:
    """The number of unknowns of each torus system set up from now on."""
    systems = []

    class Counted(algebra.SparseMatrix):
        def __init__(self, rows, ncols):
            if sys._getframe(1).f_code.co_name == "_torus":
                systems.append(ncols)
            super().__init__(rows, ncols)

    monkeypatch.setattr(algebra, "SparseMatrix", Counted)
    return systems


def test_the_torus_is_found_once_per_algebra(monkeypatch):
    """build_uce and validate_cocycle (through extension_from_cocycle)
    both grade the family by its torus; a built-in sl family brings its
    certified diagonal torus, so h_iso_check sets up no torus system."""
    systems = _count_torus_systems(monkeypatch)
    fam = build_family("sl", 3, 2, coefficient_algebra("Grassmann(1)"))
    assert h_iso_check(fam).ok
    assert len(systems) == 0
    assert algebra._torus(fam.algebra) is algebra._torus(fam.algebra)
    assert len(systems) == 0


def test_build_uce_reuses_the_torus_validation_found(monkeypatch):
    systems = _count_torus_systems(monkeypatch)
    L = ALGEBRAS["osp12"]()
    assert systems == []  # a derived family algebra is not validated
    M = LieSuperalgebra(L.basis, L.table)
    assert len(systems) == 1
    build_uce(M)
    assert len(systems) == 1


@pytest.mark.parametrize("name", ["acceptance", "documents"])
def test_torus_equals_the_unpruned_reference(name):
    if name == "acceptance":
        algebras = [L for _, L in acceptance_test_matrix()]
    else:
        algebras = [parse_algebra(json.loads(path.read_text(encoding="utf-8")))
                    for path in sorted(INPUTS.glob("*.json"))]
    assert len(algebras) >= 6
    for L in algebras:
        fresh = unvalidated.lie(L.basis, L.table)
        assert algebra._torus(fresh) == ref.torus(L)


def test_block_that_drops_a_free_column_is_caught(monkeypatch):
    class Forgetful(uce.Echelon):
        """Reports each inserted image as a new pivot but keeps none."""

        def insert(self, vec, tag=None):
            return min(vec)

    monkeypatch.setattr(uce, "Echelon", Forgetful)
    with pytest.raises(CertificateError, match="weight block -?[0-9]+: the free images span 0"):
        build_uce(sl2())


def corrupt_a_stored_row(monkeypatch, L) -> list:
    """Double the entries off the pivot in the stored RREF row of
    build_uce(L) whose pivot pair (a, b), the least one, has
    [b_a, b_b] != 0: the bracket then sends the row to -[b_a, b_b].
    Returns a list that receives (a, b) once build_uce has run."""
    d, table = L.dim, L.table
    rref = uce.echelon_rows
    hit = []

    def corrupted(rows):
        out = rref(rows)
        c = min(c for c in out if table[c // d][c % d])
        out[c] = {k: x if k == c else 2 * x for k, x in out[c].items()}
        hit.append(divmod(c, d))
        return out

    monkeypatch.setattr(uce, "echelon_rows", corrupted)
    return hit


@pytest.mark.parametrize("name", ["sl3", "sl21", "sq3"])
def test_a_corrupted_stored_row_is_caught(monkeypatch, name):
    L = ALGEBRAS[name]()
    hit = corrupt_a_stored_row(monkeypatch, L)
    with pytest.raises(CertificateError) as caught:
        build_uce(L)
    labels = L.basis.labels
    (a, b), = hit
    assert str(caught.value) == ("canonical map u: the bracket does not kill the relation row "
                                 f"of <{labels[a]},{labels[b]}>")


@pytest.mark.parametrize("corrupt", ["doubled", "truncated"])
def test_a_corrupted_lift_is_caught(monkeypatch, corrupt):
    """The first lift of sl(3) doubled, or with its last term dropped, as
    a reduction that left a residue would: u no longer maps it to its
    basis element, the weight block's rank is still full, and the message
    names that element."""
    L = ALGEBRAS["sl3"]()
    reduced = []

    class Corrupting(uce.Echelon):
        def reduce(self, vec):
            residue, cert = super().reduce(vec)
            if not reduced:
                reduced.append(min(vec))
                if corrupt == "doubled":
                    cert = {t: 2 * x for t, x in cert.items()}
                else:
                    cert.pop(max(cert))
            return residue, cert

    monkeypatch.setattr(uce, "Echelon", Corrupting)
    with pytest.raises(CertificateError) as caught:
        build_uce(L)
    label = L.basis.labels[reduced[0]]
    assert str(caught.value) == f"canonical map u: the lift of {label} does not map to it"


def test_corrupted_oracle_weight_is_caught(monkeypatch):
    weights = uce._diagonal_weights

    def corrupted(itable, par):
        out = weights(itable, par)
        out[1] = tuple(x + 1 for x in out[1])
        return out

    monkeypatch.setattr(uce, "_diagonal_weights", corrupted)
    with pytest.raises(CertificateError, match="oracle weights do not grade the table"):
        uce.h2_cohomology_oracle(sl2())


@pytest.mark.parametrize("name", ["sl21", "osp12", "sq3", "sl2_t2"])
def test_oracle_shares_no_code_with_the_builder(monkeypatch, name):
    L = ALGEBRAS[name]()
    want = ref.h2_cohomology_oracle(L)

    def broken(*args, **kwargs):
        raise RuntimeError("the oracle must not call this")

    for module, attr in [(uce, "build_uce"), (uce, "_torus"), (algebra, "_torus"),
                         (uce, "_weight_presentation"),
                         (uce, "_cyclic_failures"), (uce, "_tensor_relations"),
                         (algebra, "_cyclic_classes"), (algebra, "_cyclic_failures"),
                         (algebra, "_tensor_relations")]:
        monkeypatch.setattr(module, attr, broken)
    assert uce.h2_cohomology_oracle(L) == want


# ------------------------------------------------------------- what is stored

def _named(name):
    """sl(7;Q[t]/(t^2)), the largest family of the benchmark, or one of its documents."""
    if name == "sl7_t2":
        return _family("sl", 7, 0, "Q[t]/(t^2)")()
    return parse_algebra(json.loads((INPUTS / f"{name}.json").read_text(encoding="utf-8")))


# name -> (stored RREF rows, projected extension cells, extension cells p <= q)
STORED = {"sl7_t2": (300, 2010, 4656), "sq5c": (135, 685, 1225)}


@pytest.mark.parametrize("name", sorted(STORED))
def test_only_weight_0_rows_are_stored_and_reachable_cells_projected(monkeypatch, name):
    """build_uce projects no extension cell; the first access of ext.lie
    projects each reachable cell p <= q once, and a second access none."""
    L = _named(name)
    rows, projected, cells = STORED[name]
    calls = []
    project = uce.QuotientPresentation.project
    monkeypatch.setattr(uce.QuotientPresentation, "project",
                        lambda self, v: calls.append(v) or project(self, v))
    ext = build_uce(L)
    assert len(ext.presentation.relations) == rows
    _, weights = algebra._torus(L)
    assert {weights[a] + weights[b] for c in ext.presentation.relations
            for a, b in [divmod(c, L.dim)]} == {0}
    assert calls == []
    lie = ext.lie
    assert len(calls) == projected
    assert ext.lie is lie and len(calls) == projected
    assert ext.dim * (ext.dim + 1) // 2 == cells


@pytest.mark.parametrize("name", sorted(STORED))
def test_weighted_pair_rows_are_the_weight_0_pair_rows_in_order(name):
    """_pair_relations(par, weights) walks only the pairs of weight sum 0
    (algebra._reachable_pairs): its rows are the weight-0 rows of the
    unweighted walk, row for row and in the same order."""
    L = _named(name)
    d, par = L.dim, L.basis.parities
    _, weights = algebra._torus(L)
    every = algebra._pair_relations(par)
    weighted = algebra._pair_relations(par, weights)
    assert weighted == [row for row in every
                        if sum(weights[k] for k in divmod(min(row), d)) == 0]
    assert len(set(weights)) > 1 and 0 < len(weighted) < len(every)


# osp(3|2;Grassmann(1)) is the document whose pass reaches a column (a, b) with a < b
@pytest.mark.parametrize("name", sorted(STORED) + ["osp3_2_G1"])
def test_every_weight_block_stops_at_full_rank(monkeypatch, name):
    """Each nonzero block eliminates images only until its rank is n_l, the
    number of basis elements of its weight, and only of columns (a, b)
    with a >= b; at rank n_l it reduces only e_k for each of them, once,
    for the lifts."""
    L = _named(name)
    _, weights = algebra._torus(L)
    blocks, columns = [], []

    class Recorded(uce.Echelon):
        def __init__(self, track=False):
            super().__init__(track)
            self.calls = []  # (rank before the call, vector)
            blocks.append(self)

        def insert(self, vec, tag=None):
            self.calls.append((self.rank, vec))
            columns.append(divmod(tag, L.dim))
            return super().insert(vec, tag)

        def reduce(self, vec):
            self.calls.append((self.rank, vec))
            return super().reduce(vec)

    monkeypatch.setattr(uce, "Echelon", Recorded)
    build_uce(L)
    assert columns and all(a >= b for a, b in columns)
    # one block per nonzero weight of a basis element, each with its rank certificate
    assert len(blocks) == len(set(weights) - {0})
    for ech in blocks:
        if not ech.rows:
            assert not ech.calls
            continue
        weight = weights[min(ech.rows)]
        n = weights.count(weight)
        assert ech.rank == n
        assert [vec for rank, vec in ech.calls if rank == n] == \
            [{k: 1} for k, w in enumerate(weights) if w == weight]

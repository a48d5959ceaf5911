"""validate_lie sums only the cyclic classes whose total weight a nonzero
cell reaches, under the torus it certifies once.

With every cell homogeneous under the torus weights w, a term
s * x * [b_outer, b_t] of the class (i, j, k) has w_t = w_j + w_k, so it
is nonzero only when w_i + w_j + w_k is the weight of a nonzero cell.
The filtered walk must report what the walk over every class of
tests/reference_kernels.py reports, entry for entry: on random graded
tables, on graded algebras with a planted Jacobi failure, and, through
the fallback to every class, on tables with an inhomogeneous cell.  A
failure that the filter would skip is reported through that fallback.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import reference_kernels as ref
from superuce import GradedBasis, build_family, coefficient_algebra, validate_lie
from superuce import algebra
from superuce.cli import parse_algebra

from systems_util import osp12, sl2
import unvalidated

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
nonzero = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)).filter(bool)


def _sl(m, n, coeff="Q"):
    return lambda: build_family("sl", m, n, coefficient_algebra(coeff)).algebra


TORAL = {"sl2": sl2, "sl3": _sl(3, 0), "sl21": _sl(2, 1), "osp12": osp12,
         "sl2_t2": _sl(2, 0, "Q[t]/(t^2)")}


def _put(table, par, i, j, cell):
    """Cell (i, j) and its super skew-symmetric mirror (j, i)."""
    sign = -1 if par[i] and par[j] else 1
    table[i][j] = cell
    table[j][i] = {k: -sign * x for k, x in cell.items()}


def _filtered(L) -> bool:
    """Does validate_lie take the filtered walk on L?"""
    _, weights = algebra._torus(L)
    return any(weights) and algebra._cell_weights(L.table, weights, weights) is not None


@st.composite
def graded_tables(draw, max_dim=6):
    """Super skew-symmetric tables graded by int weights w, with the even
    b0 acting by [b0, b_j] = w_j b_j and random homogeneous cells
    elsewhere, so Jacobi fails on many classes of reachable weight."""
    d = draw(st.integers(3, max_dim))
    par = [0] + draw(st.lists(st.integers(0, 1), min_size=d - 1, max_size=d - 1))
    w = [0] + draw(st.lists(st.integers(-2, 2), min_size=d - 1, max_size=d - 1))
    table = [[{} for _ in range(d)] for _ in range(d)]
    for j in range(1, d):
        if w[j]:
            _put(table, par, 0, j, {j: w[j]})
    for i in range(1, d):
        for j in range(i, d):
            if i == j and not par[i]:
                continue
            want = (par[i] + par[j]) & 1
            _put(table, par, i, j, {k: draw(nonzero) for k in range(d)
                                    if par[k] == want and w[k] == w[i] + w[j]
                                    and draw(st.integers(0, 1))})
    return unvalidated.lie(GradedBasis([f"b{i}" for i in range(d)], par), table)


@seed(37)
@settings(max_examples=120, deadline=None)
@given(graded_tables())
def test_filtered_jacobi_matches_the_full_walk(L):
    assume(_filtered(L))
    assert validate_lie(L).violations == ref.validate_lie(L).violations


@seed(41)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(TORAL)), st.data())
def test_a_planted_failure_is_found_on_the_filtered_path(name, data):
    """A Lie algebra moved at one cell along a basis element of the cell's
    weight stays graded, and Jacobi fails only in reachable classes."""
    L = TORAL[name]()
    _, weights = algebra._torus(L)
    d, par = L.dim, L.basis.parities
    a, b, k = data.draw(st.sampled_from([
        (a, b, k) for a in range(d) for b in range(a, d) if a != b or par[a] for k in range(d)
        if weights[k] == weights[a] + weights[b] and par[k] == (par[a] + par[b]) & 1]))
    table = [[dict(cell) for cell in row] for row in L.table]
    cell = table[a][b]
    cell[k] = cell.get(k, 0) + data.draw(nonzero)
    _put(table, par, a, b, {t: x for t, x in cell.items() if x})
    M = unvalidated.lie(L.basis, table)
    assume(_filtered(M))
    got = validate_lie(M).violations
    assert got == ref.validate_lie(M).violations
    assume(got)


@seed(43)
@settings(max_examples=80, deadline=None)
@given(graded_tables(), st.data())
def test_an_inhomogeneous_cell_takes_the_walk_over_every_class(L, data):
    d, par = L.dim, L.basis.parities
    _, w = ref.torus(L)
    cells = [(a, b, k) for a in range(1, d) for b in range(a, d) if a != b or par[a]
             for k in range(d) if w[k] != w[a] + w[b] and par[k] == (par[a] + par[b]) & 1]
    assume(cells)
    a, b, k = data.draw(st.sampled_from(cells))
    table = [[dict(cell) for cell in row] for row in L.table]
    cell = dict(table[a][b])
    cell[k] = data.draw(nonzero)
    _put(table, par, a, b, cell)
    M = unvalidated.lie(L.basis, table)
    _, weights = algebra._torus(M)
    assume(algebra._cell_weights(M.table, weights, weights) is None)
    assert validate_lie(M).violations == ref.validate_lie(M).violations


def test_the_fallback_reports_a_failure_the_filter_would_skip():
    """h grades a, b, c, d, e by 1, 2, 5, 1, 6, but [a, b] = c is not
    homogeneous (weight 3, not 5).  The class (d, a, b) of total weight 4
    fails, [d, [a, b]] = e, and no nonzero cell has weight 4: a walk
    filtered by the cell weights skips it, and validate_lie, whose
    homogeneity certificate fails, walks every class and reports it."""
    names = "habcde"
    h, a, b, c, d, e = range(6)
    table = [[{} for _ in names] for _ in names]
    par = [0] * len(names)
    for j, w in ((a, 1), (b, 2), (c, 5), (d, 1), (e, 6)):
        _put(table, par, h, j, {j: w})
    _put(table, par, a, b, {c: 1})
    _put(table, par, d, c, {e: 1})
    L = unvalidated.lie(GradedBasis(list(names), par), table)
    _, weights = algebra._torus(L)
    assert algebra._cell_weights(L.table, weights, weights) is None
    reached = algebra._cell_weights(L.table, weights)
    assert weights[d] + weights[a] + weights[b] not in reached
    got = validate_lie(L).violations
    assert ("jacobi", ("a", "d", "b"), "cyclic sum != 0") in got
    assert got == ref.validate_lie(L).violations
    itable, _ = algebra._integral_table(L.table)
    assert (a, d, b) not in algebra._cyclic_failures(itable, itable, par, weights, reached)
    assert (a, d, b) in algebra._cyclic_failures(itable, itable, par, weights, None)


@pytest.mark.parametrize("doc, kept, every", [("sq5c", 6132, 14500), ("p5", 4336, 14340)])
def test_the_weight_rule_cuts_the_jacobi_walk_of_the_largest_documents(monkeypatch, doc, kept, every):
    """The classes validate_lie sums on the two largest benchmark
    documents, against the classes of the walk over every class."""
    data = json.loads((INPUTS / f"{doc}.json").read_text(encoding="utf-8"))
    L = parse_algebra(data)
    visited = []
    classes = algebra._cyclic_classes

    def counting(itable, par, weights=None, skew=False, totals=(0,)):
        visited.append(sum(1 for _ in classes(itable, par, weights, skew, totals)))
        visited.append(sum(1 for _ in classes(itable, par, None, skew)))
        return classes(itable, par, weights, skew, totals)

    monkeypatch.setattr(algebra, "_cyclic_classes", counting)
    assert validate_lie(unvalidated.lie(L.basis, L.table)).ok
    assert visited == [kept, every]

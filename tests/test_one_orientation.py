"""Every Lie-table walk over the cyclic identity visits one orientation.

Over a super skew-symmetric table the cyclic sum of (i, k, j) is
-(-1)^{|i||j|+|j||k|+|k||i|} times that of (i, j, k), so validate_lie,
the relation generator of build_uce and validate_cocycle visit one
representative per unordered triple i <= j <= k.  Against the walks of
tests/reference_kernels.py over both orientations they must give the
same violations in the same order and the same relation span.
validate_cocycle evaluates only the classes whose total weight is a pair
sum of tau's own support under the torus: it must match the reference,
which walks every class of every weight, on tau supported on weight 0,
on tau supported off it, and on a tau broken only off weight 0.
"""

from fractions import Fraction

from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import reference_kernels as ref
from superuce import (
    Cocycle2,
    GradedBasis,
    build_family,
    build_uce,
    coefficient_algebra,
    tau_cocycle,
    validate_cocycle,
    validate_lie,
)
from superuce import algebra, uce
from superuce.algebra import _tensor_relations
from superuce.linalg import echelon_rows

from systems_util import osp12, sl2
import unvalidated

nonzero = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)).filter(bool)


@st.composite
def skew_tables(draw, max_dim=5):
    """Graded super skew-symmetric tables, so the Jacobi walk is reached;
    random cells break Jacobi on most of them."""
    d = draw(st.integers(2, max_dim))
    par = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    table = [[{} for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            if i == j and not par[i]:
                continue
            want = (par[i] + par[j]) & 1
            cell = {k: draw(nonzero) for k in range(d)
                    if par[k] == want and draw(st.integers(0, 2)) == 0}
            sign = -1 if par[i] and par[j] else 1
            table[i][j] = cell
            table[j][i] = {k: -sign * x for k, x in cell.items()}
    basis = GradedBasis([f"b{i}" for i in range(d)], par)
    return unvalidated.lie(basis, table)


@seed(13)
@settings(max_examples=120, deadline=None)
@given(skew_tables())
def test_jacobi_violations_match_the_walk_over_both_orientations(L):
    got = validate_lie(L).violations
    assert got == ref.validate_lie(L).violations
    assert all(law == "jacobi" for law, _, _ in got)


def _cyclic_row(L, i, j, k) -> dict:
    """The cyclic relation of (i, j, k) in L (x) L, in Fraction arithmetic."""
    d, par, table = L.dim, L.basis.parities, L.table
    row: dict = {}
    for outer, cell, odd in ((i, table[j][k], par[i] and par[k]),
                             (j, table[k][i], par[j] and par[i]),
                             (k, table[i][j], par[k] and par[j])):
        for t, x in cell.items():
            c = outer * d + t
            row[c] = row.get(c, 0) + (-x if odd else x)
    return {c: x for c, x in row.items() if x}


@seed(17)
@settings(max_examples=60, deadline=None)
@given(skew_tables())
def test_skew_relations_span_the_reference_with_one_row_per_unordered_triple(L):
    d, par = L.dim, L.basis.parities
    rows = _tensor_relations(L.table, par, skew=True)
    want = ref.fraction_echelon_rows(ref.b_relations(L))
    assert echelon_rows(rows) == want
    pair_rows = d * (d - 1) // 2 + par.count(0)
    triples = sum(1 for i in range(d) for j in range(i, d) for k in range(j, d)
                  if _cyclic_row(L, i, j, k))
    assert len(rows) == pair_rows + triples
    both = _tensor_relations(L.table, par)
    mirrored = any(_cyclic_row(L, i, j, k) for i in range(d)
                   for j in range(i, d) for k in range(j + 1, d))
    assume(mirrored)
    assert len(rows) < len(both)


def test_no_lie_table_walk_sees_both_orientations(monkeypatch):
    fam = build_family("sl", 3, 2, coefficient_algebra("Grassmann(1)"))
    L = fam.algebra
    walks = []
    classes = algebra._cyclic_classes

    def recording(itable, par, weights=None, skew=False, totals=(0,)):
        seen = set()
        walks.append((len(itable), seen))
        for i, j, k, terms in classes(itable, par, weights, skew, totals):
            seen.add((i, j, k))
            yield i, j, k, terms

    monkeypatch.setattr(algebra, "_cyclic_classes", recording)
    tau = tau_cocycle(fam)  # the pairing space of Grassmann(1): both orientations
    assert validate_lie(L).ok
    build_uce(L)
    assert validate_cocycle(tau).ok
    lie_walks = [seen for dim, seen in walks if dim == L.dim]
    assert len(lie_walks) == 3 and all(lie_walks)
    for seen in lie_walks:
        assert not any((i, k, j) in seen for i, j, k in seen if j != k)
    assoc_walks = [seen for dim, seen in walks if dim != L.dim]
    assert assoc_walks and all(any((i, k, j) in seen for i, j, k in seen if j != k)
                               for seen in assoc_walks)


def test_both_validators_evaluate_through_one_cyclic_evaluator(monkeypatch):
    """validate_lie and validate_cocycle each hand their cyclic identity to
    algebra._cyclic_failures once: the bracket table and tau's values."""
    fam = build_family("sl", 3, 2, coefficient_algebra("Grassmann(1)"))
    L = fam.algebra
    tau = tau_cocycle(fam)
    calls = []
    failures = algebra._cyclic_failures

    def recording(itable, values, par, weights, totals):
        calls.append(values)
        return failures(itable, values, par, weights, totals)

    monkeypatch.setattr(algebra, "_cyclic_failures", recording)
    monkeypatch.setattr(uce, "_cyclic_failures", recording)
    assert validate_lie(L).ok
    assert len(calls) == 1 and calls[0] is L.table
    assert validate_cocycle(tau).ok
    assert len(calls) == 2 and calls[1] is tau.values


# ------------------------------------------------------------ validate_cocycle

def _sl(m, n, coeff="Q"):
    return lambda: build_family("sl", m, n, coefficient_algebra(coeff)).algebra


TORAL = {"sl2": sl2, "sl3": _sl(3, 0), "sl21": _sl(2, 1), "osp12": osp12,
         "sl2_t2": _sl(2, 0, "Q[t]/(t^2)")}
TARGET = GradedBasis(["c0", "c1"], [0, 1])


@st.composite
def cocycles(draw, on_weight_zero=st.booleans()):
    """(L, weights, values): a coboundary tau = g([., .]) of an even random
    g: L -> TARGET, supported on pairs of weight 0 when g lives on weight 0."""
    L = TORAL[draw(st.sampled_from(sorted(TORAL)))]()
    _, weights = algebra._torus(L)
    par = L.basis.parities
    on_weight_zero = draw(on_weight_zero)
    g = [{par[t]: draw(nonzero)} if (weights[t] == 0 or not on_weight_zero)
         and draw(st.booleans()) else {} for t in range(L.dim)]
    values = [[{} for _ in range(L.dim)] for _ in range(L.dim)]
    for a in range(L.dim):
        for b in range(L.dim):
            for t, x in L.table[a][b].items():
                for r, y in g[t].items():
                    values[a][b][r] = values[a][b].get(r, 0) + x * y
    return L, weights, values


def _perturb(L, values, a, b, x):
    """values with tau(b_a, b_b) moved by x along the target element of the
    pair's parity, and tau(b_b, b_a) moved to keep tau super-alternating."""
    par = L.basis.parities
    r = (par[a] + par[b]) & 1
    out = [[dict(cell) for cell in row] for row in values]
    out[a][b][r] = out[a][b].get(r, 0) + x
    if a != b:
        sign = -1 if par[a] and par[b] else 1
        out[b][a][r] = out[b][a].get(r, 0) - sign * x
    return out


def _pairs(L, weights, zero_weight):
    par = L.basis.parities
    return [(a, b) for a in range(L.dim) for b in range(a, L.dim)
            if (a != b or par[a]) and (weights[a] + weights[b] == 0) == zero_weight]


def _same_as_reference(L, values):
    tau = Cocycle2(L, TARGET, values)
    got = validate_cocycle(tau).violations
    assert got == ref.validate_cocycle(tau).violations
    return got


@seed(19)
@settings(max_examples=40, deadline=None)
@given(cocycles())
def test_valid_cocycles_validate(data):
    L, _, values = data
    assert _same_as_reference(L, values) == []


@seed(23)
@settings(max_examples=40, deadline=None)
@given(cocycles(on_weight_zero=st.just(True)), st.data())
def test_broken_on_a_weight_zero_class_matches_the_reference(data, draw):
    """tau stays supported on weight 0, so only weight-0 classes are walked."""
    L, weights, values = data
    a, b = draw.draw(st.sampled_from(_pairs(L, weights, zero_weight=True)))
    got = _same_as_reference(L, _perturb(L, values, a, b, draw.draw(nonzero)))
    assume(got)


@seed(29)
@settings(max_examples=40, deadline=None)
@given(cocycles(on_weight_zero=st.just(True)), st.data())
def test_broken_only_off_weight_zero_is_still_rejected(data, draw):
    """A tau moved at one pair (a, b) of nonzero weight with [b_a, b_b] = 0
    is no cocycle: a cocycle of nonzero weight is a coboundary g([., .]),
    which vanishes at that pair.  Every class of weight 0 still holds, so
    only the classes of the moved pair's weight, which its support now
    reaches, find the failure."""
    L, weights, values = data
    pairs = [(a, b) for a, b in _pairs(L, weights, zero_weight=False) if not L.table[a][b]]
    assume(pairs)  # sl(2) has none
    a, b = draw.draw(st.sampled_from(pairs))
    got = _same_as_reference(L, _perturb(L, values, a, b, draw.draw(nonzero)))
    assert got and {law for law, _, _ in got} == {"cocycle"}
    for _, where, _ in got:
        i, j, k = (L.basis.labels.index(x) for x in where)
        assert weights[i] + weights[j] + weights[k] != 0


@seed(31)
@settings(max_examples=40, deadline=None)
@given(cocycles(on_weight_zero=st.just(False)), st.data())
def test_broken_off_weight_zero_support_matches_the_reference(data, draw):
    """tau is a coboundary with support off weight 0, moved at any pair:
    the classes of every pair sum of its support are walked."""
    L, weights, values = data
    assume(any(values[a][b] for a in range(L.dim) for b in range(L.dim)
               if weights[a] + weights[b]))
    a, b = draw.draw(st.sampled_from(_pairs(L, weights, zero_weight=True)
                                     + _pairs(L, weights, zero_weight=False)))
    _same_as_reference(L, _perturb(L, values, a, b, draw.draw(nonzero)))


def test_only_a_weight_zero_cocycle_reads_only_weight_zero_classes(monkeypatch):
    """validate_cocycle walks the classes whose total weight is a pair sum
    of tau's support: {0} for the tau of the pairing space, and {0, l}
    once tau is moved at a pair of weight l."""
    fam = build_family("sl", 3, 2, coefficient_algebra("Grassmann(1)"))
    L = fam.algebra
    tau = tau_cocycle(fam)
    walked = []
    classes = algebra._cyclic_classes

    def recording(itable, par, weights=None, skew=False, totals=(0,)):
        walked.append((weights, totals))
        return classes(itable, par, weights, skew, totals)

    monkeypatch.setattr(algebra, "_cyclic_classes", recording)
    assert validate_cocycle(tau).ok
    _, weights = algebra._torus(L)
    assert walked == [(weights, {0})]
    # moved at a pair of weight l != 0: the classes of weight 0 and l are walked, and it fails
    par = L.basis.parities
    a, b = next((a, b) for a, b in _pairs(L, weights, zero_weight=False)
                if not L.table[a][b] and (par[a] + par[b]) & 1 == tau.target.parities[0])
    values = [[dict(cell) for cell in row] for row in tau.values]
    values[a][b][0] = values[a][b].get(0, 0) + 1
    values[b][a][0] = values[b][a].get(0, 0) - (-1 if par[a] and par[b] else 1)
    moved = Cocycle2(L, tau.target, values)
    got = validate_cocycle(moved).violations
    assert got and got == ref.validate_cocycle(moved).violations
    assert walked[-1] == (weights, {0, weights[a] + weights[b]})

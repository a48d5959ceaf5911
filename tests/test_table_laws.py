"""Each table law has one owner in superuce.algebra.

_bilinear evaluates a table (LieSuperalgebra.bracket and
AssocSuperalgebra.product), _grading_failures walks the grading of a
product table and the degree of a cocycle's values, and
_symmetry_failures walks super skew-symmetry (validate_lie,
validate_cocycle) and supercommutativity (is_supercommutative).  On
tables that break these laws, graded or not, skew or not, with nonzero
diagonal cells, the validators must give the violations of the
independent loops of tests/reference_kernels.py entry for entry: one per
failing cell component and one per failing pair i <= j, an even diagonal
included.
"""

import ast
import inspect
import textwrap
from fractions import Fraction

from hypothesis import given, seed, settings
from hypothesis import strategies as st

import reference_kernels as ref
from superuce import (
    AssocSuperalgebra,
    Cocycle2,
    GradedBasis,
    LieSuperalgebra,
    build_family,
    coefficient_algebra,
    tau_cocycle,
    validate_assoc,
    validate_cocycle,
    validate_lie,
)
from superuce import algebra, uce

from systems_util import heisenberg, osp12, sl2
import unvalidated

nonzero = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)).filter(bool)


def _sl21():
    return build_family("sl", 2, 1, coefficient_algebra("Q")).algebra


LIE = {"sl2": sl2, "heis": heisenberg, "osp12": osp12, "sl21": _sl21}


@st.composite
def cells(draw, par, target_par, i, j, graded):
    want = (par[i] + par[j]) & 1
    return {k: draw(nonzero) for k in range(len(target_par))
            if (not graded or target_par[k] == want) and draw(st.integers(0, 2)) == 0}


@st.composite
def lawless_table(draw, par, target_par, sign):
    """A table on basis parities par with cells in a space of parities
    target_par: graded or not, and either mirrored by sign * (-1)^{|i||j|}
    with random diagonal cells or drawn cell by cell."""
    d = len(par)
    graded, mirrored = draw(st.booleans()), draw(st.booleans())
    table = [[{} for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            cell = draw(cells(par, target_par, i, j, graded))
            table[i][j] = cell
            if i == j:
                continue
            s = -sign if par[i] and par[j] else sign
            table[j][i] = ({k: s * x for k, x in cell.items()} if mirrored
                           else draw(cells(par, target_par, j, i, graded)))
    return table


@st.composite
def lawless_lie(draw, max_dim=4):
    d = draw(st.integers(1, max_dim))
    par = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    basis = GradedBasis([f"b{i}" for i in range(d)], par)
    return unvalidated.lie(basis, draw(lawless_table(par, par, -1)))


@st.composite
def lawless_cocycle(draw):
    """Random values on a valid algebra, into a target of one or two
    elements: mis-graded, not alternating, or both, and sometimes neither,
    so the cyclic walk is reached too."""
    L = LIE[draw(st.sampled_from(sorted(LIE)))]()
    tpar = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
    target = GradedBasis([f"c{r}" for r in range(len(tpar))], tpar)
    return Cocycle2(L, target, draw(lawless_table(L.basis.parities, tpar, -1)))


@st.composite
def lawless_assoc(draw, max_dim=4):
    d = draw(st.integers(1, max_dim))
    par = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    basis = GradedBasis([f"b{i}" for i in range(d)], par)
    return unvalidated.assoc(basis, draw(lawless_table(par, par, 1)), {0: 1})


@seed(31)
@settings(max_examples=150, deadline=None)
@given(lawless_lie())
def test_lie_grading_and_skew_violations_match_the_reference(L):
    assert validate_lie(L).violations == ref.validate_lie(L).violations


@seed(37)
@settings(max_examples=100, deadline=None)
@given(lawless_cocycle())
def test_cocycle_degree_and_alternation_violations_match_the_reference(tau):
    assert validate_cocycle(tau).violations == ref.validate_cocycle(tau).violations


@seed(41)
@settings(max_examples=150, deadline=None)
@given(lawless_assoc())
def test_is_supercommutative_is_ab_equal_to_signed_ba(A):
    par = A.basis.parities
    want = all(A.product({i: 1}, {j: 1})
               == {k: (-x if par[i] and par[j] else x) for k, x in A.product({j: 1}, {i: 1}).items()}
               for i in range(A.dim) for j in range(A.dim))
    assert A.is_supercommutative() is want


def test_a_nonzero_even_diagonal_of_a_cocycle_is_one_violation():
    """tau(h,h) != 0 for even h fails once, at (h, h), worded for the
    diagonal (tests/test_cli.py checks [h,h] != 0 through a file)."""
    L = sl2()
    h = L.basis.index("h")
    values = [[{} for _ in range(L.dim)] for _ in range(L.dim)]
    values[h][h] = {0: 1}
    tau = Cocycle2(L, GradedBasis(["c"], [0]), values)
    assert validate_cocycle(tau).violations == [
        ("alternating", ("h", "h"), "tau(x,x) != 0 for even x")]


def test_every_law_walk_goes_through_the_shared_walkers(monkeypatch):
    """validate_lie, validate_cocycle, validate_assoc and
    is_supercommutative read _grading_failures and _symmetry_failures,
    and bracket and product read _bilinear, each on its own table."""
    fam = build_family("sl", 3, 2, coefficient_algebra("Grassmann(1)"))
    L, A, tau = fam.algebra, fam.coeff, tau_cocycle(fam)
    names = {id(L.table): "L", id(A.table): "A", id(tau.values): "tau",
             id(L.basis.parities): "par L", id(A.basis.parities): "par A",
             id(tau.target.parities): "par target"}
    calls = []
    grading, symmetry, bilinear = (algebra._grading_failures, algebra._symmetry_failures,
                                   algebra._bilinear)

    def grading_rec(table, par, target_par):
        calls.append(("grading", names.get(id(table)), names.get(id(target_par))))
        return grading(table, par, target_par)

    def symmetry_rec(table, par, sign):
        calls.append(("symmetry", names.get(id(table)), sign))
        return symmetry(table, par, sign)

    def bilinear_rec(table, u, v):
        calls.append(("bilinear", names.get(id(table))))
        return bilinear(table, u, v)

    for module in (algebra, uce):
        monkeypatch.setattr(module, "_grading_failures", grading_rec)
        monkeypatch.setattr(module, "_symmetry_failures", symmetry_rec)
    monkeypatch.setattr(algebra, "_bilinear", bilinear_rec)

    def walks(check):
        del calls[:]
        assert check()
        return [c for c in calls if c[0] != "bilinear"]

    assert walks(lambda: validate_lie(L).ok) == [("grading", "L", "par L"), ("symmetry", "L", -1)]
    assert walks(lambda: validate_cocycle(tau).ok) == [("grading", "tau", "par target"),
                                                      ("symmetry", "tau", -1)]
    assert walks(lambda: validate_assoc(A).ok) == [("grading", "A", "par A")]
    assert calls[1:] and set(calls[1:]) == {("bilinear", "A")}  # the unit checks
    assert walks(A.is_supercommutative) == [("symmetry", "A", 1)]
    assert walks(lambda: L.bracket({0: 1}, {1: 1}) is not None) == []
    assert calls == [("bilinear", "L")]


def _loops(node) -> list:
    return [n for n in ast.walk(node) if isinstance(n, (ast.For, ast.While, ast.comprehension))]


def test_bracket_and_product_hold_no_loop_and_a_cocycle_no_evaluator():
    for method in (LieSuperalgebra.bracket, AssocSuperalgebra.product):
        assert not _loops(ast.parse(textwrap.dedent(inspect.getsource(method)))), method
    assert not hasattr(Cocycle2, "apply")

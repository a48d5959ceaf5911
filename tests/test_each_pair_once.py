"""Every pair loop over a trusted Lie table visits each unordered pair once.

Super skew-symmetry, [y,x] = -(-1)^{|x||y|}[x,y], makes cell (j, i) of
a derived Lie table the sign-flipped copy of cell (i, j), and the
morphism equation of the pair (j, i) +-1 times that of (i, j).  So
every derived Lie table (lie_from_assoc, subalgebra_from_vectors,
quotient_by_central, the extension table of build_uce and the total
algebra of extension_from_cocycle) is built by algebra._lie_from_pairs,
which computes the cells i <= j only, once each; derived_subalgebra and
is_perfect eliminate the nonzero cells i <= j only; the nonzero weight
blocks of the presentation read the RREF row of a column (a, b), a < b,
off the row of (b, a); and check_morphism checks the pairs i <= j only.
Against the full-square versions in tests/reference_kernels.py they
must give the same cells (with the same int or Fraction entries), the
same presentation and the same verdicts, on families with odd parts,
and counting tests pin the cells projected and the rows eliminated.

Derived tables are built by the private constructors
LieSuperalgebra._derived and AssocSuperalgebra._derived, which do not
clean a table; every derived table must already be clean, and a lint
keeps those constructors at the two construction sites that build
every cell under the scalar rule: _lie_from_pairs for every Lie table,
and matrix_superalgebra.
"""

import ast
import json
import re
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import reference_kernels as ref
import superuce
import test_acceptance as acceptance
from superuce import (
    AssocSuperalgebra,
    GradedBasis,
    GradedLinearMap,
    QuotientPresentation,
    build_family,
    build_uce,
    centre,
    chain_system,
    check_morphism,
    coefficient_algebra,
    colimit,
    corner_embedding,
    derived_subalgebra,
    extension_from_cocycle,
    is_perfect,
    lie_from_assoc,
    quotient_by_central,
    tau_cocycle,
)
from superuce import algebra
from superuce.algebra import _clean_table
from superuce.cli import parse_algebra
from superuce.matrices import matrix_superalgebra

from test_one_orientation import nonzero, skew_tables
from test_weight_blocks import assert_same_as_reference

PACKAGE = Path(superuce.__file__).resolve().parent
INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"

# osp needs a supercommutative coefficient algebra, so Mat(2,0;Q) serves sl only
FAMILIES = {
    "sl(2,1;Grassmann(1))": ("sl", 2, 1, "Grassmann(1)"),
    "sl(2,1;Mat(2,0;Q))": ("sl", 2, 1, "Mat(2,0;Q)"),
    "osp(1,2;Grassmann(1))": ("osp", 1, 2, "Grassmann(1)"),
    "p(3)": ("p", 3, 3, "Q"),
    "sq(3)": ("sq", 3, 3, "Q"),
}


def typed(table) -> list:
    """The cells with each entry's type beside it, so 1 and Fraction(1) differ."""
    return [[{k: (type(x), x) for k, x in cell.items()} for cell in row] for row in table]


def assert_extension_equals_the_full_square(L):
    ext = build_uce(L)
    assert typed(ext.lie.table) == typed(ref.uce_table(ext))
    assert ref.check_morphism(ext.u, ext.lie, L)
    # the presentation, nonzero weight blocks included, is the full RREF
    assert_same_as_reference(L)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_derived_tables_equal_the_full_square(name):
    kind, m, n, coeff = FAMILIES[name]
    A = coefficient_algebra(coeff)
    fam = build_family(kind, m, n, A)
    assert typed(fam.gl.table) == typed(ref.lie_from_assoc(matrix_superalgebra(m, n, A)).table)
    sub, embedding = ref.subalgebra_from_vectors(fam.gl, fam.embedding.columns,
                                                 fam.algebra.basis.labels)
    assert typed(fam.algebra.table) == typed(sub.table)
    assert fam.embedding == embedding
    assert_extension_equals_the_full_square(fam.algebra)


def test_central_quotient_extension_equals_the_full_square():
    L = build_family("sq", 3, 3, coefficient_algebra("Q")).algebra
    quotient, _ = quotient_by_central(L, centre(L))
    assert quotient.dim < L.dim
    assert_extension_equals_the_full_square(quotient)


def test_central_quotient_table_equals_the_full_square():
    L = build_family("sq", 3, 3, coefficient_algebra("Q")).algebra
    Z = centre(L)
    quotient, _ = quotient_by_central(L, Z)
    assert typed(quotient.table) == typed(ref.quotient_by_central(L, Z).table)


@pytest.mark.parametrize("m, n", [(2, 1), (3, 2)])
def test_cocycle_extension_table_equals_the_full_square(m, n):
    """sl(m,n;Grassmann(1)) (+) HC1, built from the supertrace cocycle."""
    tau = tau_cocycle(acceptance.family("sl", m, n, "Grassmann(1)"))
    assert typed(extension_from_cocycle(tau).total.table) == typed(ref.extension_table(tau))


def test_a_central_quotient_projects_each_pair_once(monkeypatch):
    L = build_family("sq", 3, 3, coefficient_algebra("Q")).algebra
    Z = centre(L)
    project = QuotientPresentation.project
    calls = []

    def counted(self, v):
        calls.append(v)
        return project(self, v)

    monkeypatch.setattr(QuotientPresentation, "project", counted)
    quotient, _ = quotient_by_central(L, Z)
    n = quotient.dim
    # one call per cell p <= q of the table, then one per column of the projection
    assert (n, len(calls)) == (16, n * (n + 1) // 2 + L.dim)


def test_the_bracket_span_is_read_on_the_pairs_i_le_j(monkeypatch):
    """is_perfect and derived_subalgebra eliminate the nonzero cells
    i <= j only: by skew-symmetry they span every bracket."""
    data = json.loads((INPUTS / "sq5c.json").read_text(encoding="utf-8"))
    L = parse_algebra(data)
    sizes = []
    for name in ("rank_of_rows", "echelon_rows"):
        def counted(rows, real=getattr(algebra, name)):
            sizes.append(len(rows))
            return real(rows)
        monkeypatch.setattr(algebra, name, counted)
    upper = sum(1 for i, row in enumerate(L.table) for cell in row[i:] if cell)
    assert is_perfect(L)
    assert derived_subalgebra(L).dim == L.dim
    assert sizes == [upper, upper] == [458, 458]


def test_a_subalgebra_that_is_not_closed_names_the_first_pair_in_row_order():
    gl = build_family("gl", 2, 0, coefficient_algebra("Q")).algebra
    labels = gl.basis.labels
    # span{E1,1, E1,2, E2,1} is not closed: [E1,2, E2,1] = E1,1 - E2,2
    vectors = [{labels.index(x): 1} for x in ("E1,1(1)", "E1,2(1)", "E2,1(1)")]
    message = re.escape("span not closed under bracket at pair (b1, b2)")
    for build in (superuce.subalgebra_from_vectors, ref.subalgebra_from_vectors):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(gl, vectors, ["b0", "b1", "b2"])


def test_an_integral_sum_of_fractions_is_stored_as_an_int():
    """Mat(2) on 1, h = E11 - E22, E12, E21: E12 E21 = (1 + h)/2 and
    E21 E12 = (1 - h)/2, so [E12, E21] = h sums two halves."""
    half = Fraction(1, 2)
    basis = GradedBasis(["1", "h", "x", "y"], [0, 0, 0, 0])
    one, h, x, y = range(4)
    table = [[{} for _ in range(4)] for _ in range(4)]
    for k in range(4):
        table[one][k] = table[k][one] = {k: 1}
    table[h][h] = {one: 1}
    table[h][x] = {x: 1}
    table[x][h] = {x: -1}
    table[h][y] = {y: -1}
    table[y][h] = {y: 1}
    table[x][y] = {one: half, h: half}
    table[y][x] = {one: half, h: -half}
    A = AssocSuperalgebra(basis, table, {one: 1})
    L = lie_from_assoc(A)
    assert L.table[x][y] == {h: 1} and type(L.table[x][y][h]) is int
    assert L.table[y][x] == {h: -1} and type(L.table[y][x][h]) is int
    assert typed(L.table) == typed(ref.lie_from_assoc(A).table)


@st.composite
def maps_between_skew_tables(draw):
    """(f, L, M): a random parity-preserving map between random skew
    tables, or the identity or zero map of one (a morphism), each with
    at most one column replaced by a random vector of any parity."""
    L = draw(skew_tables())
    kind = draw(st.sampled_from(["random", "identity", "zero"]))
    M = draw(skew_tables()) if kind == "random" else L
    par, mpar = L.basis.parities, M.basis.parities

    def column(parity):
        return {k: draw(nonzero) for k in range(M.dim)
                if (parity is None or mpar[k] == parity) and draw(st.integers(0, 2)) == 0}

    if kind == "random":
        cols = [column(par[j]) for j in range(L.dim)]
    elif kind == "identity":
        cols = [{j: 1} for j in range(L.dim)]
    else:
        cols = [{} for _ in range(L.dim)]
    corrupt = draw(st.one_of(st.none(), st.integers(0, L.dim - 1)))
    if corrupt is not None:
        cols[corrupt] = column(draw(st.sampled_from([None, par[corrupt]])))
    return GradedLinearMap(L.basis, M.basis, cols), L, M


@seed(14)
@settings(max_examples=150, deadline=None)
@given(maps_between_skew_tables())
def test_half_and_full_morphism_checks_agree(case):
    f, L, M = case
    assert check_morphism(f, L, M) == ref.check_morphism(f, L, M)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_half_and_full_morphism_checks_agree_on_corrupted_lifts(name):
    kind, m, n, coeff = FAMILIES[name]
    L = build_family(kind, m, n, coefficient_algebra(coeff)).algebra
    ext = build_uce(L)
    u = ext.u
    assert check_morphism(u, ext.lie, L)
    for q in range(len(u.columns)):
        doubled = [{k: 2 * x for k, x in c.items()} if p == q else c
                   for p, c in enumerate(u.columns)]
        f = GradedLinearMap(u.domain, u.codomain, doubled)
        assert check_morphism(f, ext.lie, L) == ref.check_morphism(f, ext.lie, L), q


# ------------------------------------------------------- derived tables are clean

def assert_clean(alg, what):
    """_clean_table would change nothing: no stored zero, every index in
    range, every integral entry an int."""
    assert typed(_clean_table(alg.basis, alg.table)) == typed(alg.table), what


def test_derived_tables_are_already_clean():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for label, L in acceptance.acceptance_test_matrix():
            assert_clean(L, label)
            assert_clean(acceptance.extension(L).lie, f"extension of {label}")
    for (kind, m, n, coeff), fam in sorted(acceptance._FAMILIES.items()):
        assert_clean(fam.gl, f"gl of {kind}({m},{n};{coeff})")
    for name in ("Q", "Q[t]/(t^2)", "Grassmann(1)", "Mat(2,0;Q)"):
        A = coefficient_algebra(name)
        assert_clean(matrix_superalgebra(2, 1, A), f"Mat(2,1;{name})")
    small, big = (acceptance.family("sl", m, 0, "Q") for m in (2, 3))
    colim = colimit(chain_system([small.algebra, big.algebra], [corner_embedding(small, big)]))
    assert_clean(colim.algebra, "colimit of sl(2) -> sl(3)")
    total = extension_from_cocycle(tau_cocycle(acceptance.family("sl", 2, 1, "Grassmann(1)")))
    assert_clean(total.total, "sl(2,1;Grassmann(1)) + HC1")


ALLOWED_DERIVED = [
    "algebra.py:_lie_from_pairs",
    "matrices.py:matrix_superalgebra",
]


def derived_constructions(path: Path) -> list:
    """The top-level function enclosing each call of a _derived constructor."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and owner is None:
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "_derived"):
                found.append(f"{path.name}:{owner}")
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return found


def test_only_the_construction_sites_skip_cleaning():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in derived_constructions(path)]
    assert sorted(found) == ALLOWED_DERIVED, found

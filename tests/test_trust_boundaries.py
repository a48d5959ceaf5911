"""Validation runs where data enters the package; objects derived from a
validated algebra are built without re-validation.  These tests run every
validator on every constructor output explicitly, so no law check leaves
the suite."""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import reference_kernels as ref
from superuce import (
    AssocSuperalgebra,
    Cocycle2,
    GradedBasis,
    GradedLinearMap,
    InvalidAlgebraError,
    LieSuperalgebra,
    Subspace,
    build_family,
    build_uce,
    centre,
    chain_system,
    coefficient_algebra,
    colimit,
    corner_embedding,
    extension_from_cocycle,
    quotient_by_central,
    tau_cocycle,
    validate_assoc,
    validate_cocycle,
    validate_lie,
)
from superuce.cli import algebra_to_json, parse_algebra
from superuce.matrices import matrix_superalgebra

from systems_util import heisenberg, osp12, sl2
import unvalidated

ONE = Fraction(1)

COEFFS = ("Q", "Q[t]/(t^2)", "Q[x,y]/(x,y)^2", "Grassmann(1)", "Mat(2,0;Q)")


def assert_valid(report, what):
    assert report.ok, f"{what}: {report}"


@pytest.mark.parametrize("name", COEFFS)
def test_every_constructor_output_validates(name):
    A = coefficient_algebra(name)
    assert_valid(validate_assoc(A), name)
    assert_valid(validate_assoc(matrix_superalgebra(2, 1, A)), f"Mat(2,1;{name})")
    families = [("gl", 2, 1), ("sl", 2, 1)]
    if A.is_supercommutative():
        families.append(("osp", 1, 2))
    if name == "Q":
        families += [("p", 2, 2), ("sq", 2, 2)]
    for kind, m, n in families:
        fam = build_family(kind, m, n, A)
        what = f"{kind}({m},{n};{name})"
        assert_valid(validate_lie(fam.gl), f"gl of {what}")
        assert_valid(validate_lie(fam.algebra), what)
        assert_valid(validate_lie(build_uce(fam.algebra).lie), f"extension of {what}")
        Z = centre(fam.algebra)
        if Z.dim:
            quotient, _ = quotient_by_central(fam.algebra, Z)
            assert_valid(validate_lie(quotient), f"{what} / centre")

    small, big = (build_family("sl", m, 0, A) for m in (2, 3))
    colim = colimit(chain_system([small.algebra, big.algebra], [corner_embedding(small, big)]))
    assert_valid(validate_lie(colim.algebra), f"colimit of sl(2) -> sl(3) over {name}")

    if A.is_supercommutative():
        sl = build_family("sl", 2, 1, A)
        tau = tau_cocycle(sl)
        assert_valid(validate_cocycle(tau), f"tau on sl(2,1;{name})")
        total = extension_from_cocycle(tau).total
        assert_valid(validate_lie(total), f"sl(2,1;{name}) + HC1")


def test_extension_from_cocycle_rejects_broken_identity_of_own_source():
    """tau(E12, E13) = c alone is alternating and of degree zero on sl(3),
    but fails the cyclic cocycle identity; tau.source is the algebra itself."""
    L = build_family("sl", 3, 0, coefficient_algebra("Q")).algebra
    labels = L.basis.labels
    a, b = labels.index("E1,2(1)"), labels.index("E1,3(1)")
    values = [[{} for _ in range(L.dim)] for _ in range(L.dim)]
    values[a][b] = {0: ONE}
    values[b][a] = {0: -ONE}
    tau = Cocycle2(L, GradedBasis(["c"], [0]), values)
    laws = {law for law, _, _ in validate_cocycle(tau).violations}
    assert laws == {"cocycle"}
    assert tau.source is L
    with pytest.raises(ValueError, match="cocycle does not validate"):
        extension_from_cocycle(tau)


NOT_RATIONAL = [0.5, 1.0, True, "1"]


@pytest.mark.parametrize("bad", NOT_RATIONAL, ids=repr)
def test_a_table_entry_that_is_not_rational_is_refused(bad):
    # refused where it enters, before any law is checked
    why = f"{re.escape(repr(bad))} is not a rational"
    with pytest.raises(ValueError, match=rf"^table cell \(x, x\), index 0: {why}"):
        LieSuperalgebra(GradedBasis(["x"], [0]), [[{0: bad}]])
    basis = GradedBasis(["1", "t"], [0, 0])
    table = [[{0: 1}, {1: 1}], [{1: bad}, {}]]
    with pytest.raises(ValueError, match=rf"^table cell \(t, 1\), index 1: {why}"):
        AssocSuperalgebra(basis, table, {0: 1})


@pytest.mark.parametrize("bad", NOT_RATIONAL, ids=repr)
def test_a_unit_entry_that_is_not_rational_is_refused(bad):
    why = f"{re.escape(repr(bad))} is not a rational"
    with pytest.raises(ValueError, match=rf"^unit, index 0: {why}"):
        AssocSuperalgebra(GradedBasis(["1"], [0]), [[{0: 1}]], {0: bad})


@pytest.mark.parametrize("k", [3, -1])
def test_a_unit_entry_out_of_range_is_refused(k):
    # -1 would otherwise be stored, and Mat(2,0;A) would write it as a
    # unit entry of its own whose unit law fails everywhere
    with pytest.raises(ValueError, match=rf"^unit, index {k}: not an int in range\(1\)$"):
        AssocSuperalgebra(GradedBasis(["1"], [0]), [[{0: 1}]], {k: 1})


@pytest.mark.parametrize("k", [-1, 7])
def test_a_subspace_vector_out_of_range_is_refused(k):
    with pytest.raises(ValueError, match=rf"^subspace vector 0, index {k}: not an int in range\(3\)$"):
        Subspace(sl2(), [{k: 1}])


nonzero = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)).filter(bool)


@st.composite
def planted_lie(draw):
    """(basis, table) of a Lie superalgebra with one to three cells moved,
    each with its super skew-symmetric mirror, along a basis element of
    the cell's parity: still graded and skew, so only Jacobi can fail."""
    L = draw(st.sampled_from([sl2, heisenberg, osp12]))()
    d, par = L.dim, L.basis.parities
    table = [[dict(cell) for cell in row] for row in L.table]
    for _ in range(draw(st.integers(1, 3))):
        a, b, k = draw(st.sampled_from([
            (a, b, k) for a in range(d) for b in range(a, d) if a != b or par[a]
            for k in range(d) if par[k] == (par[a] + par[b]) & 1]))
        table[a][b][k] = table[a][b].get(k, 0) + draw(nonzero)
        s = 1 if par[a] and par[b] else -1
        table[b][a] = {t: s * x for t, x in table[a][b].items()}
    return L.basis, table


@st.composite
def planted_assoc(draw):
    """(basis, table, unit) of an associative superalgebra with one cell
    moved along a basis element of its parity, or with an even basis
    element added to its unit: associativity or the unit law can fail."""
    A = coefficient_algebra(draw(st.sampled_from(COEFFS)))
    d, par = A.dim, A.basis.parities
    table = [[dict(cell) for cell in row] for row in A.table]
    unit = dict(A.unit)
    if draw(st.booleans()):
        a, b, k = draw(st.sampled_from([(a, b, k) for a in range(d) for b in range(d)
                                        for k in range(d) if par[k] == (par[a] + par[b]) & 1]))
        table[a][b][k] = table[a][b].get(k, 0) + draw(nonzero)
    else:
        k = draw(st.sampled_from([k for k in range(d) if not par[k]]))
        unit[k] = unit.get(k, 0) + draw(nonzero)
    return A.basis, table, unit


def assert_refused_on_every_public_path(build, unchecked, reference, laws):
    """The constructor and parse_algebra both raise InvalidAlgebraError
    whose report is the reference validator's on the unvalidated object."""
    expected = reference(unchecked).violations
    assume(expected)
    assert {law for law, _, _ in expected} <= laws
    for make in (build, lambda: parse_algebra(algebra_to_json(unchecked))):
        with pytest.raises(InvalidAlgebraError) as err:
            make()
        assert err.value.report.violations == expected


@seed(53)
@settings(max_examples=80, deadline=None)
@given(planted_lie())
def test_no_public_path_builds_a_lie_table_that_breaks_jacobi(planted):
    basis, table = planted
    assert_refused_on_every_public_path(lambda: LieSuperalgebra(basis, table),
                                        unvalidated.lie(basis, table), ref.validate_lie,
                                        {"jacobi"})


@seed(59)
@settings(max_examples=80, deadline=None)
@given(planted_assoc())
def test_no_public_path_builds_an_assoc_table_that_breaks_a_law(planted):
    basis, table, unit = planted
    assert_refused_on_every_public_path(lambda: AssocSuperalgebra(basis, table, unit),
                                        unvalidated.assoc(basis, table, unit), ref.validate_assoc,
                                        {"associativity", "unit"})


@pytest.mark.parametrize("bad", [1.0, True, "1"], ids=repr)
def test_a_transition_entry_that_is_not_rational_is_refused(bad):
    # refused where the map is built, before any system or morphism check sees it
    L = sl2()
    why = f"{re.escape(repr(bad))} is not a rational \\(an int or a Fraction\\)"
    with pytest.raises(ValueError, match=rf"^column e, index 0: {why}$"):
        GradedLinearMap(L.basis, L.basis, [{0: bad}, {1: bad}, {2: bad}])


@pytest.mark.parametrize("bad", NOT_RATIONAL, ids=repr)
def test_a_cocycle_value_that_is_not_rational_is_refused(bad):
    # refused where the cocycle is built, before validate_cocycle or the
    # total algebra of extension_from_cocycle see it
    L = sl2()
    values = [[{} for _ in range(L.dim)] for _ in range(L.dim)]
    values[0][1] = {0: bad}
    values[1][0] = {0: bad}
    why = f"{re.escape(repr(bad))} is not a rational"
    with pytest.raises(ValueError, match=rf"^cocycle value \(e, h\), index 0: {why}"):
        Cocycle2(L, GradedBasis(["c"], [0]), values)


def test_cocycle_values_are_stored_under_the_scalar_rule():
    L = sl2()
    values = [[{} for _ in range(L.dim)] for _ in range(L.dim)]
    values[0][2] = {0: Fraction(2, 2), 1: Fraction(0)}
    values[2][0] = {0: -1}
    tau = Cocycle2(L, GradedBasis(["c", "d"], [0, 0]), values)
    assert tau.values[0][2] == {0: 1} and type(tau.values[0][2][0]) is int


def test_rational_entries_are_stored_under_the_scalar_rule():
    A = AssocSuperalgebra(GradedBasis(["1"], [0]), [[{0: Fraction(2, 2)}]], {0: Fraction(3, 3)})
    assert A.table == (({0: 1},),) and A.unit == {0: 1}
    assert type(A.table[0][0][0]) is int and type(A.unit[0]) is int

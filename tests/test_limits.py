"""Directed systems, colimits, and the extension-commutes-with-limits
verification at small sizes."""

import random
import re
import warnings
from fractions import Fraction

import pytest

from superuce import algebra, cli, limits
from superuce import (
    CertificateError,
    DirectedPoset,
    DirectedSystem,
    GradedLinearMap,
    InvalidSystemError,
    build_family,
    build_uce,
    centre,
    chain_system,
    check_morphism,
    coefficient_algebra,
    colimit,
    corner_embedding,
    factor_through,
    induced_colimit_map,
    limit_u,
    theorem_verify,
    uce_system,
    validate_system,
)
from superuce.linalg import kernel_basis

from reference_colimit import check_against_reference
from systems_util import abelian, block_map, heisenberg, random_chain_system, sl2, vee_system

ONE, TWO = Fraction(1), Fraction(2)


# ----------------------------------------------------------------------- poset

def test_poset_reflexive_closure_and_bounds():
    P = DirectedPoset([0, 1, 2], [(0, 2), (1, 2)])
    assert P.leq(0, 0) and P.leq(0, 2) and not P.leq(0, 1)
    assert P.top() == 2


def test_poset_rejects_antisymmetry_violation():
    with pytest.raises(ValueError):
        DirectedPoset([0, 1], [(0, 1), (1, 0)])


def test_poset_requires_directedness():
    # two incomparable elements with no upper bound
    with pytest.raises(ValueError, match="not directed"):
        DirectedPoset([0, 1], [])
    # no greatest element: the two maximal elements are named
    with pytest.raises(ValueError, match="no upper bound for 1, 2: poset is not directed"):
        DirectedPoset([0, 1, 2], [(0, 2)])


def test_poset_transitive_closure_not_inferred():
    with pytest.raises(ValueError):
        DirectedPoset([0, 1, 2], [(0, 1), (1, 2)])


# --------------------------------------------------------------------- systems

def sl_chain(ms, coeff="Q", kind_n=0):
    A = coefficient_algebra(coeff)
    fams = [build_family("sl", m, kind_n, A) for m in ms]
    maps = [corner_embedding(fams[k], fams[k + 1]) for k in range(len(fams) - 1)]
    return chain_system([f.algebra for f in fams], maps), fams


def test_corner_chain_validates():
    system, _ = sl_chain([3, 4, 5])
    assert validate_system(system).ok


def test_corrupted_composite_reported():
    system, fams = sl_chain([3, 4, 5])
    bad = dict(system.morphisms)
    bad[(0, 2)] = GradedLinearMap.zero(fams[0].algebra.basis, fams[2].algebra.basis)
    with pytest.raises(InvalidSystemError) as err:
        DirectedSystem(system.poset, system.algebras, bad)
    report = err.value.report
    assert any(law == "compatibility" for law, _, _ in report.violations)


def test_cover_paths_that_disagree_at_a_join_are_reported():
    """The diamond 0 < 1 < 3, 0 < 2 < 3 over sl(2): every cover map is a
    morphism, but the leg through 2 ends in the automorphism e -> 2e,
    f -> f/2, so the two cover paths from 0 disagree where they join, at 3."""
    L = sl2()
    ident = GradedLinearMap.identity(L.basis)
    scale = GradedLinearMap(L.basis, L.basis, [{0: TWO}, {1: ONE}, {2: Fraction(1, 2)}])
    assert check_morphism(scale, L, L)
    poset = DirectedPoset([0, 1, 2, 3], [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)])
    assert poset.covers == ((0, 1), (0, 2), (1, 3), (2, 3))
    maps = {(0, 1): ident, (0, 2): ident, (1, 3): ident, (2, 3): scale}
    with pytest.raises(InvalidSystemError) as err:
        DirectedSystem(poset, dict.fromkeys(range(4), L), maps)
    assert err.value.report.violations == [
        ("compatibility", "0 <= 3", "cover paths from 0 disagree where they join at 3")]
    maps[(2, 3)] = ident
    system = DirectedSystem(poset, dict.fromkeys(range(4), L), maps)
    assert system.transition(0, 3) == ident
    with pytest.raises(KeyError):
        system.transition(1, 2)  # no transition between incomparable elements


def test_a_transition_is_checked_on_brackets_only_when_it_keeps_parity():
    """A transition that swaps an even and an odd basis element of sl(2,1)
    is one grading violation, not also a morphism one; twice the identity
    keeps parity and is one morphism violation."""
    L = build_family("sl", 2, 1, coefficient_algebra("Q")).algebra
    par = L.basis.parities
    even, odd = par.index(0), par.index(1)
    swapped = [{c: 1} for c in range(L.dim)]
    swapped[even], swapped[odd] = swapped[odd], swapped[even]
    poset = DirectedPoset([0, 1], [(0, 1)])
    for cols, law in ((swapped, "grading"), ([{c: 2} for c in range(L.dim)], "morphism")):
        f = GradedLinearMap(L.basis, L.basis, cols)
        with pytest.raises(InvalidSystemError) as err:
            DirectedSystem(poset, {0: L, 1: L}, {(0, 1): f})
        assert [(v[0], v[1]) for v in err.value.report.violations] == [(law, "0 <= 1")]


def test_single_element_system_valid():
    L = sl2()
    poset = DirectedPoset(["only"], [])
    system = DirectedSystem(poset, {"only": L}, {})
    assert validate_system(system).ok
    colim = colimit(system)
    assert colim.algebra.dim == 3
    assert colim.injections["only"].is_bijective()


def test_non_morphism_transition_rejected():
    L = sl2()
    # swapping e and f is not a morphism
    f = GradedLinearMap(L.basis, L.basis, [{2: ONE}, {1: ONE}, {0: ONE}])
    poset = DirectedPoset([0, 1], [(0, 1)])
    with pytest.raises(InvalidSystemError) as err:
        DirectedSystem(poset, {0: L, 1: L}, {(0, 1): f})
    assert any(law == "morphism" for law, _, _ in err.value.report.violations)


# --------------------------------------------------------------------- colimit

def test_colimit_with_top_is_isomorphic_to_top():
    system, fams = sl_chain([3, 4, 5])
    colim = colimit(system)
    assert colim.algebra.dim == fams[-1].algebra.dim
    assert colim.injections[2].is_bijective()
    check_against_reference(colim)
    # injection compatibility: phi_i = phi_j . f_ji
    for (i, j) in system.poset.pairs():
        if i == j:
            continue
        assert colim.injections[j].compose(system.transition(i, j)) == colim.injections[i]


def test_colimit_kills_vectors_dropped_by_transitions():
    src, dst, f = block_map(("heis", "sl2"), ("sl2",), [None, 0])
    system = chain_system([src, dst], [f])
    colim = colimit(system)
    assert colim.algebra.dim == 3
    # the heisenberg slot dies in the colimit
    assert colim.injections[0].apply({0: ONE}) == {}
    ref = check_against_reference(colim)
    assert ref.injection(0).apply({0: ONE}) == {}


def test_antichain_plus_top_matches_top():
    Q = coefficient_algebra("Q")
    fams = [build_family("sl", m, 0, Q) for m in (3, 4, 6)]
    poset = DirectedPoset([0, 1, 2], [(0, 2), (1, 2)])
    morphisms = {
        (0, 2): corner_embedding(fams[0], fams[2]),
        (1, 2): corner_embedding(fams[1], fams[2]),
    }
    system = DirectedSystem(poset, {k: fams[k].algebra for k in range(3)}, morphisms)
    colim = colimit(system)
    assert colim.algebra.dim == fams[2].algebra.dim
    assert colim.injections[2].is_bijective()
    check_against_reference(colim)


# -------------------------------------------------------------- factor_through

def test_factor_through_canonical_cone_gives_identity():
    system, _ = sl_chain([3, 4])
    colim = colimit(system)
    cone = {i: colim.injections[i] for i in system.poset.elements}
    phi = factor_through(colim, cone)
    assert phi == GradedLinearMap.identity(colim.algebra.basis)


def test_factor_through_zero_cone_gives_zero():
    system, _ = sl_chain([3, 4])
    colim = colimit(system)
    zero_alg = abelian(1)
    cone = {i: GradedLinearMap.zero(system.algebras[i].basis, zero_alg.basis)
            for i in system.poset.elements}
    phi = factor_through(colim, cone)
    assert phi == GradedLinearMap.zero(colim.algebra.basis, zero_alg.basis)


def test_factor_through_inclusion_cone_gives_corner_embedding():
    Q = coefficient_algebra("Q")
    fams = [build_family("sl", m, 0, Q) for m in (5, 6)]
    big = build_family("sl", 8, 0, Q)
    system = chain_system([f.algebra for f in fams],
                          [corner_embedding(fams[0], fams[1])])
    colim = colimit(system)
    cone = {k: corner_embedding(fams[k], big) for k in range(2)}
    phi = factor_through(colim, cone)
    # colimit has top = sl(6); phi composed with the top injection is the
    # corner embedding sl(6) -> sl(8)
    assert phi.compose(colim.injections[1]) == cone[1]
    assert check_morphism(phi, colim.algebra, big.algebra)


def test_factor_through_rejects_incompatible_cone():
    system, fams = sl_chain([3, 4])
    colim = colimit(system)
    big = build_family("sl", 5, 0, coefficient_algebra("Q"))
    cone = {
        0: GradedLinearMap.zero(fams[0].algebra.basis, big.algebra.basis),
        1: corner_embedding(fams[1], big),
    }
    with pytest.raises(ValueError, match="not compatible"):
        factor_through(colim, cone)


# ------------------------------------------------------------------ uce_system

def test_uce_system_naturality():
    system, _ = sl_chain([3, 4, 5], coeff="Q[t]/(t^2)")
    ext_system, exts = uce_system(system)
    assert validate_system(ext_system).ok
    for (i, j) in system.poset.pairs():
        if i == j:
            continue
        lhs = exts[j].u.compose(ext_system.transition(i, j))
        rhs = system.transition(i, j).compose(exts[i].u)
        assert lhs == rhs


# --------------------------------------------------------------------- limit_u

def test_limit_u_centrally_closed_chain_has_zero_kernel():
    system, _ = sl_chain([3, 4, 5])
    rep = limit_u(system)
    assert len(rep.kernel) == 0
    assert rep.surjective


def test_limit_u_kernel_dim_one_for_plane_coefficients():
    system, _ = sl_chain([5, 6], coeff="Q[x,y]/(x,y)^2")
    rep = limit_u(system)
    assert len(rep.kernel) == 1
    assert all(centre(rep.colim_uce.algebra).contains(z) for z in rep.kernel)
    assert rep.surjective


def test_limit_u_abelian_system():
    A2 = abelian(2)
    ident = GradedLinearMap.identity(A2.basis)
    system = chain_system([A2, A2], [ident])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = limit_u(system)
    # uce of an abelian algebra is 0, so the induced map cannot be onto
    assert not rep.surjective


def _limit_u_systems():
    rng = random.Random(5)
    A2 = abelian(2)
    systems = [sl_chain([3, 4])[0], sl_chain([5, 6], coeff="Q[x,y]/(x,y)^2")[0],
               chain_system([A2, A2], [GradedLinearMap.identity(A2.basis)])]
    systems += [random_chain_system(rng)[0] for _ in range(3)]
    systems += [vee_system(rng) for _ in range(3)]
    return systems


def test_limit_u_reads_kernel_and_surjectivity_off_the_top_extension(monkeypatch):
    """v equals u_t, so limit_u runs no elimination of v and no centre:
    its kernel and surjectivity are those of the top member's extension,
    whose kernel build_uce certified central.  theorem_verify adds only
    phi == id on the perfect systems: no preimage, bijectivity or
    elimination work."""
    systems = _limit_u_systems()

    def refuse(*args, **kwargs):
        raise AssertionError("limit_u and theorem_verify must not re-prove a certificate")

    with monkeypatch.context() as m:
        m.setattr(limits, "kernel_basis", refuse, raising=False)
        m.setattr(limits, "centre", refuse, raising=False)
        m.setattr(limits, "Echelon", refuse, raising=False)
        m.setattr(GradedLinearMap, "is_surjective", refuse)
        m.setattr(GradedLinearMap, "rank", refuse)
        m.setattr(GradedLinearMap, "preimage", refuse)
        m.setattr(GradedLinearMap, "_preimage", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reports = [limit_u(system) for system in systems]
        perfect = [system for system, rep in zip(systems, reports)
                   if all(ext.perfect for ext in rep.exts.values())]
        m.setattr(GradedLinearMap, "is_bijective", refuse)
        theorems = [theorem_verify(system) for system in perfect]
    for rep in reports:
        assert list(rep.kernel) == kernel_basis(rep.map.matrix())
        assert rep.surjective == rep.map.is_surjective()
        assert all(centre(rep.colim_uce.algebra).contains(z) for z in rep.kernel)
    assert {rep.surjective for rep in reports} == {True, False}
    assert len(perfect) >= 2
    for rep in theorems:
        assert rep.kernel is rep.exts[rep.colim.top].kernel


@pytest.mark.parametrize("chain", ["sl:2..4:Q", "sl:1,2..3,2:Q"])
def test_theorem_report_is_read_off_the_top_extension(chain):
    """theorem_verify returns the report limit_u built: its kernel is the
    top member's own kernel tuple, and every limit-check result field
    equals the value of a freshly built extension of the top member."""
    kind, members, coeff = cli._parse_chain(chain)
    system = cli._family_system(kind, members, coeff)
    rep = theorem_verify(system)
    assert type(rep) is limits.LimitUReport
    top = system.poset.top()
    assert rep.kernel is rep.exts[top].kernel
    exts = [build_uce(system.algebras[i]) for i in system.poset.elements]
    ext = exts[top]
    want = {
        "members": len(exts),
        "dim_colim": system.algebras[top].dim,
        "dim_uce_of_colim": ext.dim,
        "dim_colim_of_uce": ext.dim,
        "phi_is_morphism": True,
        "phi_bijective": True,
        "psi_after_phi_is_id": True,
        "phi_after_psi_is_id": True,
        "h2_dims": [len(e.kernel) for e in exts],
        "h2_of_colim_dim": len(ext.kernel),
        "h2_colim_of_kernels_dim": len(ext.kernel),
        "h2_restriction_bijective": True,
        "projection_kernel_dim": len(ext.kernel),
        "projection_kernel_central": True,
        "projection_surjective": ext.perfect,
        "ok": True,
    }
    report, code = cli.run(["limit-check", "--chain", chain])
    assert code == 0
    assert list(report["results"]) == list(want)
    assert report["results"] == want


# ---------------------------------------------------------------- the theorem

def test_theorem_verify_small_chain():
    system, _ = sl_chain([3, 4])
    rep = theorem_verify(system)
    assert rep.surjective and len(rep.kernel) == 0


def test_theorem_verify_rejects_non_perfect():
    H = heisenberg()
    system = chain_system([H, H], [GradedLinearMap.identity(H.basis)])
    with pytest.raises(ValueError, match="perfect"):
        theorem_verify(system)


def test_theorem_verify_reads_perfectness_off_the_member_extensions(monkeypatch):
    """theorem_verify asks UceAlgebra.perfect, not is_perfect, and names
    the first member in element order that is not perfect."""

    def refuse(*args, **kwargs):
        raise AssertionError("is_perfect must not be called")

    for module in (algebra, limits):
        monkeypatch.setattr(module, "is_perfect", refuse, raising=False)
    assert theorem_verify(sl_chain([3, 4])[0]).surjective
    H = heisenberg()
    with pytest.raises(ValueError, match="member 0 is not perfect"):
        theorem_verify(chain_system([H, H], [GradedLinearMap.identity(H.basis)]))
    src, dst, f = block_map(("sl2",), ("sl2", "heis"), [0])
    with pytest.raises(ValueError, match="member 1 is not perfect"):
        theorem_verify(chain_system([src, dst], [f]))


def test_theorem_verify_certifies_phi_is_the_identity(monkeypatch, capsys):
    """A comparison map phi with its first column doubled is not the
    identity of the top member's extension, and the certificate names
    the top member."""
    inner = limits.factor_through

    def doubled_phi(colim, cones):
        out = inner(colim, cones)
        if cones is not colim.injections:
            return out  # the projection v of limit_u
        cols = [{k: 2 * x for k, x in col.items()} if q == 0 else col
                for q, col in enumerate(out.columns)]
        return GradedLinearMap(out.domain, out.codomain, cols)

    monkeypatch.setattr(limits, "factor_through", doubled_phi)
    message = "comparison map colim uce(L_i) -> uce(L_1) is not the identity"
    system, _ = sl_chain([3, 4])
    with pytest.raises(CertificateError, match=f"^{re.escape(message)}$"):
        theorem_verify(system)
    assert cli.main(["limit-check", "--chain", "sl:3..4:Q"]) == 1
    assert capsys.readouterr().err == f"certificate failed: {message}\n"


# ------------------------------------------------------- morphisms of systems

def test_induced_colimit_map_injective_components():
    srcA, dstA, fA = block_map(("sl2",), ("sl2", "heis"), [0])
    srcB, dstB, fB = block_map(("sl2", "odd"), ("sl2", "heis", "odd"), [0, 2])
    # chain transitions: include sl2 slot, drop nothing
    _, _, tsrc = block_map(("sl2",), ("sl2", "odd"), [0])
    _, _, tdst = block_map(("sl2", "heis"), ("sl2", "heis", "odd"), [0, 1])
    small = chain_system([srcA, srcB], [tsrc])
    big = chain_system([dstA, dstB], [tdst])
    cs = colimit(small)
    cb = colimit(big)
    out = induced_colimit_map(cs, cb, {0: fA, 1: fB})
    assert out.is_injective()


def test_induced_colimit_map_surjective_components():
    srcA, dstA, fA = block_map(("sl2", "heis"), ("sl2",), [0, None])
    srcB, dstB, fB = block_map(("sl2", "heis", "odd"), ("sl2", "odd"), [0, None, 1])
    _, _, tsrc = block_map(("sl2", "heis"), ("sl2", "heis", "odd"), [0, 1])
    _, _, tdst = block_map(("sl2",), ("sl2", "odd"), [0])
    big = chain_system([srcA, srcB], [tsrc])
    small = chain_system([dstA, dstB], [tdst])
    out = induced_colimit_map(colimit(big), colimit(small), {0: fA, 1: fB})
    assert out.is_surjective()


def test_induced_colimit_map_rejects_non_commuting():
    L = sl2()
    ident = GradedLinearMap.identity(L.basis)
    zero = GradedLinearMap.zero(L.basis, L.basis)
    sys1 = chain_system([L, L], [ident])
    sys2 = chain_system([L, L], [ident])
    with pytest.raises(ValueError, match="commute"):
        induced_colimit_map(colimit(sys1), colimit(sys2), {0: ident, 1: zero})

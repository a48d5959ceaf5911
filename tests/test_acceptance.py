"""Acceptance suite: ten criteria, one test each, run in file order.

Every equality below is exact rational arithmetic; there are no
tolerances anywhere.  A summary line per criterion is printed after the
run (see conftest).  Families, and the extensions the criteria build
themselves, are shared through module-level dicts so later criteria
reuse earlier work; steinberg_check, h_iso_check and theorem_verify
build their own.
"""

import random
import time
import warnings

from superuce import (
    GradedLinearMap,
    build_family,
    build_uce,
    centre,
    chain_system,
    coefficient_algebra,
    colimit,
    corner_embedding,
    derived_subalgebra,
    h2,
    h_iso_check,
    hc1,
    induced_colimit_map,
    is_perfect,
    limit_u,
    quotient_by_central,
    steinberg_check,
    subalgebra_from_vectors,
    theorem_verify,
    uce_of_morphism,
    uce_system,
)
from superuce.uce import h2_cohomology_oracle

from reference_colimit import check_against_reference
from systems_util import random_chain_system, random_system_morphism, vee_system

_FAMILIES = {}
_EXTENSIONS = {}
_STRANGE = {}


def family(kind, m, n, coeff_name):
    key = (kind, m, n, coeff_name)
    if key not in _FAMILIES:
        _FAMILIES[key] = build_family(kind, m, n, coefficient_algebra(coeff_name))
    return _FAMILIES[key]


def extension(L):
    """build_uce(L), once per algebra object (they live in the dicts here)."""
    if id(L) not in _EXTENSIONS:
        _EXTENSIONS[id(L)] = build_uce(L)
    return _EXTENSIONS[id(L)]


def strange_family_matrix():
    """p and sq at sizes 2 and 3, with their derived subalgebras and
    central quotients whenever those differ from the algebra itself."""
    if _STRANGE:
        return _STRANGE
    for kind in ("p", "sq"):
        for size in (2, 3):
            L = family(kind, size, size, "Q").algebra
            _STRANGE[f"{kind}({size})"] = L
            z = centre(L)
            if z.dim:
                _STRANGE[f"{kind}({size})/centre"], _ = quotient_by_central(L, z)
            der = derived_subalgebra(L)
            if der.dim < L.dim:
                labels = [f"d{k}" for k in range(der.dim)]
                _STRANGE[f"[{kind}({size}),{kind}({size})]"], _ = \
                    subalgebra_from_vectors(L, der.vectors, labels)
    return _STRANGE


def sl_chain_system(sizes, coeff_name):
    fams = [family("sl", m, n, coeff_name) for m, n in sizes]
    maps = [corner_embedding(fams[k], fams[k + 1]) for k in range(len(fams) - 1)]
    return chain_system([f.algebra for f in fams], maps)


def test_criterion_01_cyclic_homology_table(record_criterion):
    # independent of the extension machinery: cyclic module only
    started = time.perf_counter()
    dims = {"Q": hc1(coefficient_algebra("Q")).dim}
    for N in range(2, 6):
        dims[f"t^{N}"] = hc1(coefficient_algebra(f"Q[t]/(t^{N})")).dim
    dims["plane"] = hc1(coefficient_algebra("Q[x,y]/(x,y)^2")).dim
    dims["grassmann"] = hc1(coefficient_algebra("Grassmann(1)")).dim
    elapsed = time.perf_counter() - started
    assert dims["Q"] == 0
    assert all(dims[f"t^{N}"] == 0 for N in range(2, 6))
    assert dims["plane"] == 1
    assert dims["grassmann"] == 1
    assert elapsed < 1.0
    record_criterion(1, f"dims {list(dims.values())} as frozen; {elapsed:.3f}s")


def test_criterion_02_centrally_closed_classics(record_criterion):
    started = time.perf_counter()
    cases = [("sl", 3, 0), ("sl", 4, 0), ("sl", 5, 0), ("osp", 3, 2)]
    for kind, m, n in cases:
        L = family(kind, m, n, "Q").algebra
        assert h2(extension(L)).dim == 0, (kind, m, n)
        assert h2_cohomology_oracle(L) == 0, (kind, m, n)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    record_criterion(2, f"4 algebras, both routes give 0; {elapsed:.1f}s")


CASES_3 = [(m, n, name)
           for (m, n) in ((5, 0), (3, 2))
           for name in ("Q[t]/(t^2)", "Q[x,y]/(x,y)^2", "Grassmann(1)")]


def test_criterion_03_kernel_is_cyclic_homology(record_criterion):
    seen = []
    for m, n, name in CASES_3:
        started = time.perf_counter()
        A = coefficient_algebra(name)
        fam = family("sl", m, n, name)
        # steinberg_check builds the extension; as sl is perfect, u is onto
        # and its kernel, H2, has dimension dim_uce - dim sl
        assert is_perfect(fam.algebra), (m, n, name)
        rep = steinberg_check(fam)
        want = hc1(A).dim
        got = rep.dim_uce - fam.algebra.dim
        assert got == want, (m, n, name, got, want)
        assert rep.independence_of_k, (m, n, name)
        assert rep.linearity, (m, n, name)
        assert rep.relations, (m, n, name)
        assert rep.generation, (m, n, name)
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, (m, n, name, elapsed)
        seen.append(got)
    record_criterion(3, f"kernel dims {seen} match the coefficient table; "
                        "steinberg 4/4 each case")


def test_criterion_04_cocycle_model_of_the_extension(record_criterion):
    cases = [(5, 0, "Q"), (3, 2, "Q[x,y]/(x,y)^2"), (5, 0, "Q[t]/(t^2)")]
    for m, n, name in cases:
        started = time.perf_counter()
        fam = family("sl", m, n, name)
        rep = h_iso_check(fam)
        assert rep.is_morphism, (m, n, name)
        assert rep.commutes_with_projections, (m, n, name)
        assert rep.bijective, (m, n, name)
        assert rep.ok, (m, n, name)
        assert rep.dim_extension == rep.dim_uce, (m, n, name)
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, (m, n, name, elapsed)
    record_criterion(4, "comparison map bijective for all 3 cases")


def test_criterion_05_extension_commutes_with_chains(record_criterion):
    started = time.perf_counter()
    chains = [
        ([(5, 0), (6, 0), (7, 0)], "Q[t]/(t^2)"),
        ([(5, 0), (6, 0)], "Q[x,y]/(x,y)^2"),
    ]
    dims = []
    for sizes, name in chains:
        system = sl_chain_system(sizes, name)
        rep = theorem_verify(system)
        ext_top = rep.exts[rep.colim.top]
        # the direct-sum colimit and its own extension give the same numbers
        ref = check_against_reference(rep.colim)
        ext_ref = build_uce(ref.algebra)
        assert ext_ref.dim == ext_top.dim, name
        assert h2(ext_ref).dim == len(ext_top.kernel), name
        dims.append(rep.colim.algebra.dim)
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    record_criterion(5, f"both chains (colim dims {dims}); {elapsed:.1f}s")


def test_criterion_06_central_kernels_on_random_systems(record_criterion):
    rng = random.Random(2026)
    perfect_count = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(20):
            if trial % 4 == 3:
                system = vee_system(rng)
            else:
                system, _ = random_chain_system(rng)
            rep = limit_u(system)
            z = centre(rep.colim_uce.algebra)
            assert all(z.contains(v) for v in rep.kernel), trial
            check_against_reference(rep.colim)
            check_against_reference(rep.colim_uce)
            if is_perfect(colimit(system).algebra):
                perfect_count += 1
    assert 0 < perfect_count < 20, "sample must mix perfect and non-perfect"
    record_criterion(6, f"20 systems, every kernel central "
                        f"({perfect_count} perfect colimits, {20 - perfect_count} not)")


def test_criterion_07_functoriality(record_criterion):
    """uce lifts each identity to the identity, each lift is natural, and
    on every related pair that is no cover the direct lift equals the
    composite of the cover lifts, which is the transition of the system
    of extensions: it lifts only the covers and composes the rest."""
    chains = [
        ([(3, 0), (4, 0), (5, 0)], "Q"),
        # the chains probed under ROADMAP "Kernels along a chain"
        ([(1, 2), (2, 2), (3, 2)], "Q"),
        ([(2, 0), (3, 0), (4, 0)], "Grassmann(2)"),
        ([(2, 1), (3, 1), (3, 2)], "Grassmann(1)"),
        ([(3, 0), (4, 0), (5, 0), (6, 0)], "Q[x,y]/(x,y)^2"),
        ([(2, 0), (3, 0), (4, 0), (5, 0)], "Q[t]/(t^2)"),
        ([(4, 0), (5, 0), (6, 0), (7, 0)], "Q"),
    ]
    checked = composites = 0
    for sizes, coeff in chains:
        system = sl_chain_system(sizes, coeff)
        usys, exts = uce_system(system)
        for i, j in system.poset.pairs():
            arrow = system.transition(i, j)
            lifted = uce_of_morphism(arrow, source=exts[i], target=exts[j])
            assert exts[j].u.compose(lifted) == arrow.compose(exts[i].u)
            checked += 1
            if i == j:
                assert lifted == GradedLinearMap.identity(exts[i].lie.basis)
            elif (i, j) not in system.poset.covers:
                path = usys.morphisms[(i, i + 1)]
                for k in range(i + 1, j):
                    path = usys.morphisms[(k, k + 1)].compose(path)
                assert lifted == path == usys.transition(i, j)
                composites += 1
    record_criterion(7, f"id, composition, and naturality exact on {checked} arrows; "
                        f"{composites} direct lifts equal their cover composites")


def acceptance_test_matrix():
    """(label, algebra) pairs; the perfect ones feed the cross-oracle."""
    entries = [
        ("sl(3;Q)", family("sl", 3, 0, "Q").algebra),
        ("sl(4;Q)", family("sl", 4, 0, "Q").algebra),
        ("sl(5;Q)", family("sl", 5, 0, "Q").algebra),
        ("sl(3,2;Q)", family("sl", 3, 2, "Q").algebra),
        ("osp(1,2;Q)", family("osp", 1, 2, "Q").algebra),
        ("osp(2,2;Q)", family("osp", 2, 2, "Q").algebra),
        ("osp(3,2;Q)", family("osp", 3, 2, "Q").algebra),
    ]
    entries += [(f"sl({m},{n};{name})", family("sl", m, n, name).algebra)
                for m, n, name in CASES_3]
    entries += sorted(strange_family_matrix().items())
    return entries


def test_criterion_08_cross_oracle_on_the_test_matrix(record_criterion):
    compared, skipped = [], []
    for label, L in acceptance_test_matrix():
        if not is_perfect(L):
            skipped.append(label)
            continue
        ours = h2(extension(L)).dim
        oracle = h2_cohomology_oracle(L)
        assert ours == oracle, (label, ours, oracle)
        compared.append((label, ours))
    assert len(compared) >= 15
    assert skipped == ["p(2)"]
    record_criterion(8, f"{len(compared)} perfect algebras agree with the "
                        f"dual oracle; skipped non-perfect {skipped}")


def test_criterion_09_queer_central_quotient(record_criterion):
    L = strange_family_matrix()["sq(3)/centre"]
    ours = h2(extension(L)).dim
    oracle = h2_cohomology_oracle(L)
    assert ours == oracle
    # the dimension itself is an output of the run, not a frozen input
    record_criterion(9, f"dim of the kernel for sq(3)/centre = {ours}, both routes")


def test_criterion_10_colimits_preserve_exactness(record_criterion):
    rng = random.Random(7)
    for surjective in (False, True):
        for trial in range(10):
            src, dst, comps = random_system_morphism(rng, surjective=surjective)
            if surjective:
                assert all(f.is_surjective() for f in comps.values())
            else:
                assert all(f.is_injective() for f in comps.values())
            cs, cd = colimit(src), colimit(dst)
            check_against_reference(cs)
            check_against_reference(cd)
            out = induced_colimit_map(cs, cd, comps)
            if surjective:
                assert out.is_surjective(), trial
            else:
                assert out.is_injective(), trial
    record_criterion(10, "10 all-injective and 10 all-surjective morphisms of systems")

"""The central-extension construction and its functor laws."""

import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superuce
from superuce import (
    Cocycle2,
    GradedBasis,
    GradedLinearMap,
    build_family,
    build_uce,
    centre,
    coefficient_algebra,
    extension_from_cocycle,
    h2,
    h2_cohomology_oracle,
    h_iso_check,
    is_centrally_closed,
    is_perfect,
    kernel_basis,
    uce_of_morphism,
    validate_cocycle,
)
from superuce.algebra import _tensor_relations

from systems_util import abelian, heisenberg, sl2

ONE = Fraction(1)


def test_sl2_centrally_closed():
    L = sl2()
    ext = build_uce(L)
    assert ext.dim == 3
    assert h2(ext).dim == 0
    assert ext.u.is_bijective()
    assert is_centrally_closed(ext)


def test_extension_algebra_is_perfect_and_kernel_central():
    L = build_family("sl", 2, 1, coefficient_algebra("Q")).algebra
    ext = build_uce(L)
    assert is_perfect(ext.lie)
    z = centre(ext.lie)
    for v in h2(ext).vectors:
        assert z.contains(v)


coeff3 = st.tuples(*[st.integers(-2, 2)] * 3)


@settings(max_examples=40, deadline=None)
@given(coeff3, coeff3)
def test_class_of_super_skew(u, v):
    """<x,y> + (-1)^{|x||y|} <y,x> = 0 (all even here)."""
    L = sl2()
    ext = build_uce(L)
    x = {i: Fraction(c) for i, c in enumerate(u) if c}
    y = {i: Fraction(c) for i, c in enumerate(v) if c}
    lhs = ext.class_of(x, y)
    rhs = {k: -w for k, w in ext.class_of(y, x).items()}
    assert lhs == rhs


def test_class_of_cyclic_relation():
    """<x, [y,z]> + <y, [z,x]> + <z, [x,y]> = 0 for even x, y, z."""
    L = sl2()
    ext = build_uce(L)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                x, y, z = {i: ONE}, {j: ONE}, {k: ONE}
                acc = {}
                for (a, bc) in [(x, L.bracket(y, z)), (y, L.bracket(z, x)), (z, L.bracket(x, y))]:
                    for c, w in ext.class_of(a, bc).items():
                        s = acc.get(c, Fraction(0)) + w
                        if s:
                            acc[c] = s
                        else:
                            acc.pop(c, None)
                assert acc == {}


def test_bracket_projects_to_base_bracket():
    L = build_family("osp", 1, 2, coefficient_algebra("Q")).algebra
    ext = build_uce(L)
    for i in range(L.dim):
        for j in range(L.dim):
            lifted = ext.lie.bracket(ext.class_of({i: ONE}, {j: ONE}),
                                     ext.class_of({j: ONE}, {i: ONE}))
            assert ext.u.apply(lifted) == L.bracket(L.bracket({i: ONE}, {j: ONE}),
                                                    L.bracket({j: ONE}, {i: ONE}))


def test_b_relations_die_in_quotient():
    L = build_family("sl", 2, 1, coefficient_algebra("Q")).algebra
    ext = build_uce(L)
    for row in _tensor_relations(L.table, L.basis.parities):
        assert ext.presentation.project(dict(row)) == {}


def test_functor_laws_on_corner_chain():
    Q = coefficient_algebra("Q")
    fams = [build_family("sl", m, 0, Q) for m in (3, 4, 5)]
    from superuce import corner_embedding

    f = corner_embedding(fams[0], fams[1])
    g = corner_embedding(fams[1], fams[2])
    exts = [build_uce(f_.algebra) for f_ in fams]
    uf = uce_of_morphism(f, source=exts[0], target=exts[1])
    ug = uce_of_morphism(g, source=exts[1], target=exts[2])
    ugf = uce_of_morphism(g.compose(f), source=exts[0], target=exts[2])
    assert ugf == ug.compose(uf)
    ident = GradedLinearMap.identity(fams[0].algebra.basis)
    uid = uce_of_morphism(ident, source=exts[0], target=exts[0])
    assert uid == GradedLinearMap.identity(exts[0].lie.basis)
    # naturality is asserted inside uce_of_morphism; check once more explicitly
    assert exts[1].u.compose(uf) == f.compose(exts[0].u)


def test_a_non_central_kernel_vector_is_caught(monkeypatch):
    """A planted kernel vector e_0: sl(2) is perfect and centrally closed,
    so u maps e_0 to a nonzero element, and e_0 does not commute with
    everything; the certificate u z = 0 names it by its last coordinate."""
    L = sl2()
    ext = build_uce(L)
    u_matrix = ext.u.matrix()
    assert ext.u.columns[0] and any(ext.lie.table[0])
    real = superuce.uce.kernel_basis

    def planted(m):
        return real(m) + ([{0: ONE}] if m == u_matrix else [])

    monkeypatch.setattr(superuce.uce, "kernel_basis", planted)
    label = ext.u.domain.labels[0]
    with pytest.raises(superuce.CertificateError,
                       match=f"^kernel of u: u does not kill the kernel vector at {label}$"):
        build_uce(L)


def test_a_lift_of_a_map_that_is_not_a_morphism_is_caught():
    L = sl2()
    ext = build_uce(L)
    double = GradedLinearMap(L.basis, L.basis, [{i: 2} for i in range(L.dim)])
    # <2a, 2b> goes to 4[a,b] and <a,b> to 2[a,b]: they part where [a,b] != 0
    q = next(q for q, (a, b) in enumerate(ext.free_pairs) if L.table[a][b])
    label = ext.lie.basis.labels[q]
    with pytest.raises(superuce.CertificateError,
                       match=f"^induced map does not commute with the canonical maps at {label}$"):
        uce_of_morphism(double, source=ext, target=ext)


def test_each_extension_element_records_its_basis_pair():
    """Basis element q of the extension is <b_a, b_b> for (a, b) =
    free_pairs[q]: its label, parity, u-column and class all say so.
    The bracket is [x, y] = <u x, u y> on basis elements, which is why the
    colimit comparison phi has the identity as its inverse psi."""
    import test_acceptance as acceptance

    for name, L in acceptance.acceptance_test_matrix():
        ext = acceptance.extension(L)
        labels, par = L.basis.labels, L.basis.parities
        assert len(ext.free_pairs) == ext.dim, name
        for q, (a, b) in enumerate(ext.free_pairs):
            assert ext.u.columns[q] == L.table[a][b], (name, q)
            assert ext.lie.basis.labels[q] == f"<{labels[a]},{labels[b]}>", (name, q)
            assert ext.lie.basis.parities[q] == (par[a] + par[b]) & 1, (name, q)
            assert ext.class_of({a: 1}, {b: 1}) == {q: 1}, (name, q)
        u = ext.u.columns
        for p in range(ext.dim):
            for q in range(ext.dim):
                assert ext.lie.bracket({p: 1}, {q: 1}) == ext.class_of(u[p], u[q]), (name, p, q)


def test_h2_warns_on_non_perfect():
    L = heisenberg()
    with pytest.warns(UserWarning, match="not perfect"):
        h2(L)


def test_perfectness_is_read_off_the_rank_of_u(monkeypatch):
    """h2 warns, and is_centrally_closed refuses, exactly on the non-perfect
    algebras, without asking is_perfect: u maps onto [L, L]."""
    from superuce import lie_from_assoc
    from systems_util import gl2_assoc

    cases = {
        "sl(2)": sl2(),
        "heisenberg": heisenberg(),
        "gl(2)": lie_from_assoc(gl2_assoc()),
        "abelian(2)": abelian(2),
        "p(2)": build_family("p", 2, 2, coefficient_algebra("Q")).algebra,
    }
    non_perfect = {name for name, L in cases.items() if not is_perfect(L)}
    assert non_perfect == {"heisenberg", "gl(2)", "abelian(2)", "p(2)"}

    def refuse(L):
        raise AssertionError("is_perfect must not be called")

    for module in (superuce, superuce.algebra, superuce.uce):
        monkeypatch.setattr(module, "is_perfect", refuse, raising=False)
    for name, L in cases.items():
        ext = build_uce(L)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            h2(ext)
        assert bool(caught) == (name in non_perfect), name
        if name in non_perfect:
            with pytest.raises(ValueError, match="perfect"):
                is_centrally_closed(ext)
        else:
            assert is_centrally_closed(ext)


def _refuse_elimination(monkeypatch, maps):
    """GradedLinearMap.rank and .matrix raise on each map in maps."""
    for name in ("rank", "matrix"):
        inner = getattr(GradedLinearMap, name)

        def guarded(self, _inner=inner, _name=name):
            if any(self is f for f in maps):
                raise AssertionError(f"u.{_name}() called after build_uce")
            return _inner(self)
        monkeypatch.setattr(GradedLinearMap, name, guarded)


def test_h2_and_central_closure_read_the_kernel_build_uce_found(monkeypatch):
    exts = {"sl(3)": build_uce(build_family("sl", 3, 0, coefficient_algebra("Q")).algebra),
            "heisenberg": build_uce(heisenberg())}
    want = {name: kernel_basis(ext.u.matrix()) for name, ext in exts.items()}
    _refuse_elimination(monkeypatch, [ext.u for ext in exts.values()])
    closed = exts["sl(3)"]
    assert list(h2(closed).vectors) == want["sl(3)"] == []
    assert is_centrally_closed(closed)
    open_ = exts["heisenberg"]
    with pytest.warns(UserWarning, match="not perfect"):
        assert list(h2(open_).vectors) == want["heisenberg"]
    with pytest.raises(ValueError, match="perfect"):
        is_centrally_closed(open_)


def test_h_iso_check_reads_the_kernel_build_uce_found(monkeypatch):
    built = []
    inner = superuce.matrices.build_uce

    def marking(L):
        ext = inner(L)
        built.append(ext.u)
        return ext
    monkeypatch.setattr(superuce.matrices, "build_uce", marking)
    _refuse_elimination(monkeypatch, built)
    rep = h_iso_check(build_family("sl", 3, 2, coefficient_algebra("Grassmann(1)")))
    assert len(built) == 1
    assert rep.ok
    assert rep.dim_h2 == rep.dim_hc1


def test_oracle_agrees_with_kernel_dimension():
    Qt2 = coefficient_algebra("Q[t]/(t^2)")
    cases = [
        sl2(),
        build_family("sl", 2, 0, Qt2).algebra,
        build_family("sl", 2, 1, coefficient_algebra("Q")).algebra,
        build_family("osp", 1, 2, coefficient_algebra("Q")).algebra,
    ]
    for L in cases:
        assert is_perfect(L)
        ext = build_uce(L)
        assert h2(ext).dim == h2_cohomology_oracle(L)


def test_sl2_truncated_coefficients_both_routes():
    """sl(2; Q[t]/(t^2)) is perfect with vanishing second homology."""
    Qt2 = coefficient_algebra("Q[t]/(t^2)")
    L = build_family("sl", 2, 0, Qt2).algebra
    assert L.dim == 6
    ext = build_uce(L)
    assert h2(ext).dim == 0
    assert h2_cohomology_oracle(L) == 0


def test_extension_from_cocycle_builds_heisenberg():
    """The standard symplectic cocycle on a 2-dim abelian algebra."""
    L = abelian(2)
    target = GradedBasis(["c"], [0])
    values = [[{}, {0: ONE}], [{0: -ONE}, {}]]
    tau = Cocycle2(L, target, values)
    assert validate_cocycle(tau).ok
    central = extension_from_cocycle(tau)
    K = central.total
    assert K.dim == 3
    assert central.kernel.dim == 1
    # [x, y] = c and c is central: the Heisenberg table
    assert K.bracket({0: ONE}, {1: ONE}) == {2: ONE}
    assert centre(K).dim == 1
    assert central.projection.apply({2: ONE}) == {}


def test_validate_cocycle_rejects_bad_values():
    L = abelian(2)
    target = GradedBasis(["c"], [0])
    # not alternating
    tau = Cocycle2(L, target, [[{0: ONE}, {}], [{}, {}]])
    rep = validate_cocycle(tau)
    assert not rep.ok
    assert any(law == "alternating" for law, _, _ in rep.violations)
    # wrong degree: even pair with odd value
    odd_target = GradedBasis(["c"], [1])
    tau2 = Cocycle2(L, odd_target, [[{}, {0: ONE}], [{0: -ONE}, {}]])
    rep2 = validate_cocycle(tau2)
    assert any(law == "degree" for law, _, _ in rep2.violations)


def test_cocycle_identity_rejected_when_broken():
    """On gl(2), tau(E11, E12) = c alone fails the cyclic identity
    (witnessed by the triple (E11, E12, E22))."""
    from superuce import lie_from_assoc

    from systems_util import gl2_assoc

    L = lie_from_assoc(gl2_assoc())
    target = GradedBasis(["c"], [0])
    values = [[{} for _ in range(4)] for _ in range(4)]
    values[0][1] = {0: ONE}
    values[1][0] = {0: -ONE}
    tau = Cocycle2(L, target, values)
    rep = validate_cocycle(tau)
    assert not rep.ok
    assert any(law == "cocycle" for law, _, _ in rep.violations)


def test_non_perfect_uce_kernel_still_central():
    L = heisenberg()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ext = build_uce(L)
        k = h2(ext)
    z = centre(ext.lie)
    for v in k.vectors:
        assert z.contains(v)


def test_double_extension_of_closed_algebra_is_identity_sized():
    L = build_family("sl", 3, 0, coefficient_algebra("Q")).algebra
    ext = build_uce(L)
    assert is_centrally_closed(ext)
    again = build_uce(ext.lie)
    assert again.dim == ext.dim
    assert is_centrally_closed(again)

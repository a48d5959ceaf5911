"""Structure-constant algebra layer: validation, maps, subquotients."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superuce import (
    AssocSuperalgebra,
    GradedBasis,
    GradedLinearMap,
    InvalidAlgebraError,
    LieSuperalgebra,
    Subspace,
    centre,
    check_morphism,
    derived_subalgebra,
    is_perfect,
    lie_from_assoc,
    quotient_by_central,
    validate_assoc,
    validate_lie,
)
from superuce.algebra import NotCentralError, subalgebra_from_vectors, vector_parity
from superuce.linalg import _ratio

from reference_kernels import fraction_rank_of_rows
from systems_util import gl2_assoc, heisenberg, sl2
import unvalidated

ONE = Fraction(1)


def test_sl2_is_valid_and_perfect():
    L = sl2()
    assert validate_lie(L).ok
    assert is_perfect(L)
    assert centre(L).dim == 0
    e, h, f = {0: ONE}, {1: ONE}, {2: ONE}
    assert L.bracket(h, e) == {0: Fraction(2)}
    assert L.bracket(e, f) == {1: ONE}


@pytest.mark.parametrize("p", [1.5, True, False, "1", 2, -1, 1.0], ids=repr)
def test_a_parity_that_is_not_the_int_0_or_1_is_refused(p):
    # no coercion: int(1.5), int(True) and int('1') would all read as odd
    with pytest.raises(ValueError, match=rf"^parity must be the int 0 or 1, got {re.escape(repr(p))}$"):
        GradedBasis(["x", "y"], [0, p])


def test_heisenberg_not_perfect():
    L = heisenberg()
    assert not is_perfect(L)
    assert centre(L).dim == 1
    assert derived_subalgebra(L).dim == 1


def test_gl2_centre_derived_quotient():
    gl2 = lie_from_assoc(gl2_assoc())
    z = centre(gl2)
    assert z.dim == 1
    assert z.contains({0: ONE, 3: ONE})  # the identity matrix
    der = derived_subalgebra(gl2)
    assert der.dim == 3
    quotient, projection = quotient_by_central(gl2, z)
    assert quotient.dim == 3
    assert check_morphism(projection, gl2, quotient)
    assert is_perfect(quotient)


def test_validate_catches_broken_skew():
    basis = GradedBasis(["x", "y"], [0, 0])
    table = [[{}, {0: ONE}], [{0: ONE}, {}]]  # [y,x] should be -x
    rep = validate_lie(unvalidated.lie(basis, table))
    assert not rep.ok
    assert any(law == "skew" for law, _, _ in rep.violations)
    with pytest.raises(InvalidAlgebraError):
        LieSuperalgebra(basis, table)


def test_validate_catches_broken_jacobi():
    # [x,y] = z, [x,z] = x breaks the cyclic identity
    basis = GradedBasis(["x", "y", "z"], [0, 0, 0])
    table = [[{} for _ in range(3)] for _ in range(3)]
    table[0][1] = {2: ONE}
    table[1][0] = {2: -ONE}
    table[0][2] = {0: ONE}
    table[2][0] = {0: -ONE}
    rep = validate_lie(unvalidated.lie(basis, table))
    assert not rep.ok
    assert any(law == "jacobi" for law, _, _ in rep.violations)


def test_validate_catches_broken_grading():
    basis = GradedBasis(["x", "y"], [0, 1])
    table = [[{}, {0: ONE}], [{0: -ONE}, {}]]  # [even, odd] landing even
    rep = validate_lie(unvalidated.lie(basis, table))
    assert any(law == "grading" for law, _, _ in rep.violations)


def test_validate_assoc_catches_violations():
    basis = GradedBasis(["1", "u"], [0, 0])
    # u * 1 = 1 breaks the unit law and associativity at once
    table = [[{0: ONE}, {1: ONE}], [{0: ONE}, {0: ONE}]]
    A = unvalidated.assoc(basis, table, {0: ONE})
    rep = validate_assoc(A)
    assert not rep.ok
    with pytest.raises(InvalidAlgebraError):
        AssocSuperalgebra(basis, table, {0: ONE})


def test_graded_linear_map_laws():
    L = sl2()
    ident = GradedLinearMap.identity(L.basis)
    zero = GradedLinearMap.zero(L.basis, L.basis)
    assert ident.compose(ident) == ident
    assert ident.compose(zero) == zero
    assert ident.is_bijective() and ident.rank() == 3
    assert zero.rank() == 0 and not zero.is_injective()
    assert check_morphism(ident, L, L)
    assert check_morphism(zero, L, L)  # the zero map is a morphism


def test_parity_preservation_detected():
    dom = GradedBasis(["x"], [0])
    cod = GradedBasis(["y"], [1])
    f = GradedLinearMap(dom, cod, [{0: ONE}])
    assert not f.is_parity_preserving()


def test_subalgebra_borel_closed():
    L = sl2()
    borel, emb = subalgebra_from_vectors(L, [{0: ONE}, {1: ONE}], labels=["e", "h"])
    assert borel.dim == 2
    assert borel.bracket({1: ONE}, {0: ONE}) == {0: Fraction(2)}
    assert check_morphism(emb, borel, L)


def test_subalgebra_not_closed_raises():
    L = sl2()
    with pytest.raises(ValueError, match="not closed under bracket"):
        subalgebra_from_vectors(L, [{0: ONE}, {2: ONE}], labels=["e", "f"])


def test_quotient_requires_central():
    L = sl2()
    Z = Subspace(L, [{1: ONE}])  # h is not central
    with pytest.raises(NotCentralError):
        quotient_by_central(L, Z)


def test_vector_parity_and_subspace_rules():
    basis = GradedBasis(["x", "y"], [0, 1])
    assert vector_parity({}, basis) is None
    assert vector_parity({1: ONE}, basis) == 1
    with pytest.raises(ValueError):
        vector_parity({0: ONE, 1: ONE}, basis)
    L = LieSuperalgebra(basis, [[{}, {}], [{}, {}]])
    with pytest.raises(ValueError):
        Subspace(L, [{0: ONE, 1: ONE}])
    with pytest.raises(ValueError):
        Subspace(L, [{0: ONE}, {0: Fraction(2)}])


coeffs = st.integers(min_value=-3, max_value=3)


@settings(max_examples=50, deadline=None)
@given(st.tuples(coeffs, coeffs, coeffs), st.tuples(coeffs, coeffs, coeffs))
def test_bracket_bilinear(u, v):
    L = sl2()
    uv = {i: Fraction(x) for i, x in enumerate(u) if x}
    vv = {i: Fraction(x) for i, x in enumerate(v) if x}
    direct = L.bracket(uv, vv)
    expanded = {}
    for i, x in uv.items():
        for j, y in vv.items():
            for k, z in L.table[i][j].items():
                w = expanded.get(k, Fraction(0)) + x * y * z
                if w:
                    expanded[k] = w
                else:
                    expanded.pop(k, None)
    assert direct == expanded


def test_morphism_check_rejects_non_morphism():
    L = sl2()
    # swapping e and f is not a morphism (it negates h but fixes [e,f]... check)
    f = GradedLinearMap(L.basis, L.basis, [{2: ONE}, {1: ONE}, {0: ONE}])
    assert not check_morphism(f, L, L)


# ------------------------------------------------------------ preimages of a map

def _random_map(rng):
    n, m = rng.randint(1, 6), rng.randint(1, 6)
    domain = GradedBasis([f"a{j}" for j in range(n)], [0] * n)
    codomain = GradedBasis([f"b{k}" for k in range(m)], [0] * m)
    # a few columns repeat earlier ones up to scale, so many maps drop rank
    cols = []
    for _ in range(n):
        if cols and rng.random() < 0.3:
            c = _ratio(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2))
            cols.append({k: c * x for k, x in rng.choice(cols).items()})
        else:
            cols.append({k: _ratio(rng.randint(-3, 3), rng.randint(1, 3))
                         for k in range(m) if rng.random() < 0.6})
    return GradedLinearMap(domain, codomain, cols)


@pytest.mark.parametrize("seed", range(12))
def test_preimage_round_trips_on_random_maps(seed):
    rng = random.Random(seed)
    f = _random_map(rng)
    rank = fraction_rank_of_rows(f.columns)
    assert f.rank() == rank
    for _ in range(5):
        x = {j: rng.randint(-2, 2) for j in range(len(f.domain))}
        v = f.apply({j: c for j, c in x.items() if c})
        assert f.apply(f.preimage(v)) == v
    for k in range(len(f.codomain)):
        # e_k is in the image exactly when adding it keeps the rank
        onto = fraction_rank_of_rows(list(f.columns) + [{k: 1}]) == rank
        got = f.preimage({k: 1})
        assert (got is not None) == onto, k
        if onto:
            assert f.apply(got) == {k: 1}

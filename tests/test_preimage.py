"""GradedLinearMap.preimage against the route it replaced.

preimage sums the cached certificates of the pivots, cert(e_p) scaled
by v_p, and returns the sum x exactly when apply(x) == v.
tests/reference_kernels.py keeps the old route, a reduce of v on a
Fraction Echelon(track=True) of the columns.  On random rational maps,
injective or not and with or without unit columns, and on vectors both
in and off the image, the two must agree entry for entry, None exactly
off the image, and every integral entry must be an int
(tests/scalar_rule.py).
"""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import reference_kernels as ref
from scalar_rule import scalar_faults
from superuce import GradedBasis, GradedLinearMap

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
nonzero = rationals.filter(bool)


@st.composite
def maps(draw, injective, units):
    """A map Q^n -> Q^m.  An injective one is triangular: column j is 0 at
    the leading rows of the columns before it and not 0 at its own.  Any
    other may repeat an earlier column up to scale, so it drops rank."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, m if injective else 7))
    lead = draw(st.permutations(range(m)))
    cols = []
    for j in range(n):
        if units and draw(st.booleans()):
            col = {lead[j] if injective else draw(st.integers(0, m - 1)): 1}
        elif not injective and cols and draw(st.booleans()):
            x = draw(nonzero)
            col = {k: x * y for k, y in draw(st.sampled_from(cols)).items()}
        else:
            col = {k: draw(rationals) for k in range(m) if draw(st.booleans())}
            if injective:
                for k in lead[:j]:
                    col.pop(k, None)
                col[lead[j]] = draw(nonzero)
        cols.append({k: x.numerator if x.denominator == 1 else x for k, x in col.items() if x})
    return GradedLinearMap(GradedBasis([f"a{j}" for j in range(n)], [0] * n),
                           GradedBasis([f"b{k}" for k in range(m)], [0] * m), cols)


def _scalar(v):
    return {k: x.numerator if x.denominator == 1 else x for k, x in v.items() if x}


@pytest.mark.parametrize("units", [True, False], ids=["units", "no-units"])
@pytest.mark.parametrize("injective", [True, False], ids=["injective", "any"])
@seed(27)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_preimage_equals_the_reference_certificate(injective, units, data):
    f = data.draw(maps(injective, units))
    m, n = len(f.codomain), len(f.domain)
    if injective:
        assert ref.fraction_rank_of_rows(f.columns) == n
    images = data.draw(st.lists(st.dictionaries(st.integers(0, n - 1), rationals),
                                min_size=1, max_size=3))
    vectors = [f.apply(_scalar(x)) for x in images]
    vectors += data.draw(st.lists(st.dictionaries(st.integers(0, m - 1), rationals),
                                  min_size=1, max_size=3))
    vectors = [_scalar(v) for v in vectors]
    for v, want in zip(vectors, ref.preimages(f, vectors)):
        got = f.preimage(v)
        assert got == want
        if got is not None:
            assert f.apply(got) == v
            assert not scalar_faults(got)

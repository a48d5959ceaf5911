"""Pairing space and first cyclic homology of the builtin coefficients.

The expected HC_1 dimensions for the commutative algebras are
recomputed here from scratch through a second route: for commutative A,
HC_1(A) is the space of differential one-forms modulo exact ones, which
has a direct presentation by the Leibniz rule.  The two constructions
share no code.
"""

from fractions import Fraction

import pytest

from superuce import SparseMatrix, coefficient_algebra, cyclic_pairs, hc1

ONE = Fraction(1)

# hc1 column frozen from the independent oracles below and the
# supercommutative identification pairs == hc1
FROZEN = [
    ("Q", 0),
    ("Q[t]/(t^2)", 0),
    ("Q[t]/(t^3)", 0),
    ("Q[t]/(t^4)", 0),
    ("Q[t]/(t^5)", 0),
    ("Q[x,y]/(x,y)^2", 1),
    ("Grassmann(1)", 1),
    ("Grassmann(2)", 5),
    ("Grassmann(3)", 17),
    ("Mat(2,0;Q)", 0),
]

COMMUTATIVE = ["Q", "Q[t]/(t^2)", "Q[t]/(t^3)", "Q[t]/(t^4)", "Q[t]/(t^5)",
               "Q[x,y]/(x,y)^2"]


def one_forms_modulo_exact(A) -> int:
    """dim of (Kahler one-forms / exact forms) for commutative even A.

    Coordinates (i, t) stand for b_i db_t.  Relations: the Leibniz rule
    b_i (d(b_j b_k) - b_j db_k - b_k db_j) = 0 for all i, j, k, and the
    exact forms db_t.
    """
    d = A.dim
    rows = []

    def coord(i, t):
        return i * d + t

    for i in range(d):
        for j in range(d):
            for k in range(j, d):
                row = {}
                # b_i * sum_t c^t_{jk} db_t
                for t, x in A.table[j][k].items():
                    row[coord(i, t)] = row.get(coord(i, t), Fraction(0)) + x
                # - (b_i b_j) db_k
                for l, x in A.table[i][j].items():
                    row[coord(l, k)] = row.get(coord(l, k), Fraction(0)) - x
                # - (b_i b_k) db_j
                for l, x in A.table[i][k].items():
                    row[coord(l, j)] = row.get(coord(l, j), Fraction(0)) - x
                row = {c: x for c, x in row.items() if x}
                if row:
                    rows.append(row)
    for t in range(d):
        rows.append({coord(l, t): u for l, u in A.unit.items()})
    mat = SparseMatrix(rows, d * d)
    from superuce.linalg import rank_of_rows

    return d * d - rank_of_rows(list(mat.rows))


@pytest.mark.parametrize("name,dim_hc1", FROZEN)
def test_frozen_hc1(name, dim_hc1):
    A = coefficient_algebra(name)
    assert hc1(A).dim == dim_hc1


@pytest.mark.parametrize("name", COMMUTATIVE)
def test_hc1_matches_one_form_oracle(name):
    A = coefficient_algebra(name)
    assert hc1(A).dim == one_forms_modulo_exact(A)


@pytest.mark.parametrize("name", [n for n, _ in FROZEN])
def test_pairs_equal_hc1_iff_supercommutative_kernel(name):
    A = coefficient_algebra(name)
    pairs = cyclic_pairs(A)
    if A.is_supercommutative():
        # the supercommutator map vanishes, so the kernel is everything
        assert all(not col for col in pairs.commutator.columns)
        assert hc1(A).dim == pairs.dim
    else:
        assert any(col for col in pairs.commutator.columns)


@pytest.mark.parametrize("name", [n for n, _ in FROZEN])
def test_unit_pairs_to_zero(name):
    """<<1, a>> dies: cyclic relation on (1, 1, a) plus symmetry."""
    A = coefficient_algebra(name)
    pairs = cyclic_pairs(A)
    unit = dict(A.unit)
    for t in range(A.dim):
        assert pairs.pair(unit, {t: ONE}) == {}
        assert pairs.pair({t: ONE}, unit) == {}


@pytest.mark.parametrize("name", [n for n, _ in FROZEN])
def test_commutator_matches_supercommutator(name):
    A = coefficient_algebra(name)
    pairs = cyclic_pairs(A)
    par = A.basis.parities
    for a in range(A.dim):
        for b in range(A.dim):
            cls = pairs.pair({a: ONE}, {b: ONE})
            got = pairs.commutator.apply(cls)
            want = dict(A.table[a][b])
            sign = -ONE if par[a] and par[b] else ONE
            for k, x in A.table[b][a].items():
                y = want.get(k, Fraction(0)) - sign * x
                if y:
                    want[k] = y
                else:
                    want.pop(k, None)
            assert got == want


def test_grassmann1_pairing_generator():
    """The 1-dim pairing space of Q + Q xi is spanned by <<xi, xi>>."""
    A = coefficient_algebra("Grassmann(1)")
    pairs = cyclic_pairs(A)
    xi = A.basis.index("x1")
    assert pairs.dim == 1
    assert pairs.pair({xi: ONE}, {xi: ONE}) != {}


def test_even_squares_die():
    A = coefficient_algebra("Q[t]/(t^2)")
    pairs = cyclic_pairs(A)
    t = A.basis.index("t")
    assert pairs.pair({t: ONE}, {t: ONE}) == {}


def test_matrix_coefficients_pairs_dim():
    """Observed: pairing space of Mat(2,0;Q) is 3-dim, commutator injective."""
    A = coefficient_algebra("Mat(2,0;Q)")
    pairs = cyclic_pairs(A)
    assert pairs.dim == 3
    assert not A.is_supercommutative()
    assert hc1(A).dim == 0

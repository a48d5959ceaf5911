"""Matrix families bring a certified torus, and the pair loops walk only
the pairs of a reachable weight.

build_family keeps on gl and sl over a supercommutative coefficient
algebra the torus h = sum_t c_t E_tt(1) of supertrace 0, under which
E_ij(a) has weight c_i - c_j, once algebra._keep_torus has certified it
with one bracket per basis element; so _torus solves no system for
them.  Under a certified torus [b_i, b_j] has weight w_i + w_j, so a
pair whose weight sum no vector can have is 0 and
algebra._reachable_pairs skips it: the sl cells of
subalgebra_from_vectors, the extension table of build_uce and the
pairs of check_morphism.  Counting tests, through the counters of
tools/scale.py, pin the pairs visited (each fails on the all-pairs
loops); the certificate is seen to fire on a corrupted weight; a
spanning vector that is no weight vector is seen to fall back to every
pair; and the skip set of check_morphism is seen to keep the
codomain's weights.  That the tables, presentations and verdicts equal
the all-pairs reference is checked in tests/test_each_pair_once.py.
"""

import pytest

import reference_kernels as ref
from superuce import (
    CertificateError,
    GradedBasis,
    GradedLinearMap,
    LieSuperalgebra,
    build_family,
    build_uce,
    check_morphism,
    coefficient_algebra,
    corner_embedding,
    subalgebra_from_vectors,
)
from superuce import algebra, matrices

from systems_util import sl2
from test_scale_tool import scale
import unvalidated

MEMBERS = [("sl", 7, 0, "Q[t]/(t^2)"), ("sl", 2, 1, "Grassmann(1)"), ("sl", 1, 1, "Q"),
           ("sl", 2, 2, "Q"), ("sl", 1, 0, "Q"), ("gl", 2, 1, "Grassmann(1)"),
           ("gl", 3, 0, "Q[t]/(t^2)")]


def family(kind, m, n, coeff):
    return build_family(kind, m, n, coefficient_algebra(coeff))


@pytest.mark.parametrize("member", MEMBERS, ids=lambda m: "{}({},{};{})".format(*m))
def test_a_family_brings_its_torus_and_torus_solves_nothing(member):
    def job():
        L = family(*member).algebra
        ext = build_uce(L)
        assert algebra._torus(L) is L._torus
        return L, ext

    counts, (L, ext) = scale.counters(job)
    assert "torus systems solved" not in counts
    h, weights = L._torus
    for j, w in enumerate(weights):
        assert algebra._bilinear(L.table, h, {j: 1}) == ({j: w} if w else {})
    # the family's torus is as fine as the one _torus solves for: the same
    # weight-0 block, so the same stored rows
    fresh = unvalidated.lie(L.basis, L.table)
    assert len(ext.presentation.relations) == len(build_uce(fresh).presentation.relations)


def test_a_coefficient_algebra_with_idempotents_brings_no_torus():
    """Mat(2,0;Q) is not supercommutative: its idempotents e11 and e22
    give sl(2;Mat(2,0;Q)) a torus finer than gl's diagonal, 9 weights
    against 3, so the family brings none and _torus solves it once."""
    fam = family("sl", 2, 0, "Mat(2,0;Q)")
    assert fam.gl._torus is None and fam.algebra._torus is None
    counts, _ = scale.counters(lambda: build_uce(fam.algebra))
    assert counts["torus systems solved"] == 1 and len(set(fam.algebra._torus[1])) == 9


def test_the_family_torus_lies_in_sl_for_m_equal_n():
    """sl(2,2;Q) holds the identity, which acts by 0; h has supertrace 0
    and the weights of E1,3 and E4,2 agree, as under the whole torus."""
    fam = family("sl", 2, 2, "Q")
    h, weights = fam.algebra._torus
    assert matrices.supertrace(fam, fam.embedding._apply(h)) == {}
    labels = fam.algebra.basis.labels
    assert weights[labels.index("E1,3(1)")] == weights[labels.index("E4,2(1)")] != 0
    assert len(set(weights)) == 9


def test_sl_cells_of_a_reachable_weight_only():
    """sl(7;Q[t]/(t^2)) has 96 basis elements: 4,656 pairs i <= j, of
    which 2,010 have a weight sum that is a weight of gl."""
    counts, fam = scale.counters(lambda: family("sl", 7, 0, "Q[t]/(t^2)"))
    d = fam.algebra.dim
    assert d * (d + 1) // 2 == 4656
    assert counts["pairs visited by subalgebra_from_vectors"] == 2010
    # gl builds all of its 98 * 99 / 2 pairs, and A = Q[t]/(t^2) its 3 (sl's C basis)
    assert counts["pairs visited by lie_from_assoc"] == fam.gl.dim * (fam.gl.dim + 1) // 2 + 3 == 4854


def test_sl18_cells_of_a_reachable_weight_only():
    counts, fam = scale.counters(lambda: family("sl", 18, 0, "Q"))
    assert fam.algebra.dim * (fam.algebra.dim + 1) // 2 == 52326
    assert counts["pairs visited by subalgebra_from_vectors"] == 10404


@pytest.mark.parametrize("name, pairs", [("sl7_t2", 2010), ("sq5c", 685)])
def test_extension_table_and_morphism_check_walk_reachable_pairs(name, pairs):
    """The extension table computes, and check_morphism(u) compares, only
    the pairs p <= q of a reachable weight: 2,010 of 4,656 on
    sl(7;Q[t]/(t^2)) and 685 of 1,225 on sq5c."""
    from test_weight_blocks import _named

    L = _named(name)
    algebra._torus(L)
    counts, ext = scale.counters(lambda: build_uce(L))
    assert counts == {"pairs visited by build_uce": pairs, "pairs compared by check_morphism": pairs}
    assert scale.counters(lambda: check_morphism(ext.u, ext.lie, L)) == \
        ({"pairs compared by check_morphism": pairs}, True)


def test_a_corrupted_family_weight_is_caught(monkeypatch):
    diagonal = matrices._diagonal_torus

    def corrupted(fam):
        h, weights = diagonal(fam)
        weights[fam.coord(0, 1, 0)] += 1
        return h, weights

    monkeypatch.setattr(matrices, "_diagonal_torus", corrupted)
    for kind in ("gl", "sl"):
        with pytest.raises(CertificateError, match=r"not diagonal with weight -?[0-9]+ at basis "
                                                   r"element E1,2\(1\)$"):
            family(kind, 3, 0, "Q")


def test_a_corrupted_sl_weight_is_caught(monkeypatch):
    column_weights = matrices._column_weights

    def corrupted(columns, weights):
        out = column_weights(columns, weights)
        out[-1] += 1
        return out

    monkeypatch.setattr(matrices, "_column_weights", corrupted)
    with pytest.raises(CertificateError, match=r"not diagonal with weight 1 at basis element H2\(1\)$"):
        family("sl", 3, 0, "Q")


@pytest.mark.parametrize("parent, vectors, labels", [
    (lambda: family("gl", 2, 0, "Q").algebra, [{0: 1, 3: 1}, {1: 1, 2: 1}], ["1", "x"]),
    (sl2, [{0: 1, 2: 1}], ["e+f"]),
], ids=["gl2", "sl2"])
def test_a_vector_that_is_no_weight_vector_walks_every_pair(parent, vectors, labels):
    """span{E1,1 + E2,2, E1,2 + E2,1} of gl(2;Q) and span{e + f} of sl(2) are
    subalgebras whose spanning vectors are no weight vectors of the
    parent's certified torus: every pair is solved, and the table equals
    the all-pairs reference."""
    P = parent()
    assert P._torus is not None
    sub, emb = subalgebra_from_vectors(P, vectors, labels)
    want, want_emb = ref.subalgebra_from_vectors(P, vectors, labels)
    assert sub.table == want.table and emb.columns == want_emb.columns


def test_an_algebra_built_from_a_derived_table_shares_no_cell():
    """The zero cells of a derived table may be one shared empty dict;
    the public constructor copies every cell, so an algebra built from a
    derived table shares no cell with it."""
    L = family("sl", 3, 0, "Q").algebra
    derived = {id(c) for row in L.table for c in row}
    assert len(derived) < L.dim ** 2
    M = LieSuperalgebra(L.basis, L.table)
    cells = {id(c) for row in M.table for c in row}
    assert len(cells) == L.dim ** 2 and not cells & derived


def _graded(labels, parities, brackets) -> LieSuperalgebra:
    """The validated Lie superalgebra with [x, y] = c z for each (x, y, c, z)
    of brackets, and its mirror."""
    d = len(labels)
    table = [[{} for _ in range(d)] for _ in range(d)]
    for x, y, c, z in brackets:
        i, j, k = labels.index(x), labels.index(y), labels.index(z)
        table[i][j] = {k: c}
        table[j][i] = {k: c if parities[i] and parities[j] else -c}
    return LieSuperalgebra(GradedBasis(labels, parities), table)


def test_the_morphism_check_keeps_the_codomains_weights():
    """L = <h, x>, x odd of weight 1, [x, x] = 0; M = <h, x, y>, y of
    weight 2, [x, x] = y.  The inclusion is weight-preserving and fails
    at (x, x) only, whose weight 2 is a weight of M but the weight of no
    nonzero cell of L; a skip set without M's weights would pass it."""
    L = _graded(["h", "x"], [0, 1], [("h", "x", 1, "x")])
    M = _graded(["h", "x", "y"], [0, 1, 0], [("h", "x", 1, "x"), ("h", "y", 2, "y"),
                                              ("x", "x", 1, "y")])
    assert L._torus[1] == [0, 1] and M._torus[1] == [0, 1, 2]
    f = GradedLinearMap(L.basis, M.basis, [{0: 1}, {1: 1}])
    assert not ref.check_morphism(f, L, M)
    assert not check_morphism(f, L, M)


@pytest.mark.parametrize("coeff", ["Q", "Grassmann(1)"])
def test_corner_embeddings_are_checked_by_weight_as_in_full(coeff):
    small, big = family("sl", 2, 1, coeff), family("sl", 3, 1, coeff)
    f = corner_embedding(small, big)
    assert check_morphism(f, small.algebra, big.algebra)
    for q in range(len(f.columns)):
        cols = [{k: 2 * x for k, x in c.items()} if p == q else c for p, c in enumerate(f.columns)]
        g = GradedLinearMap(f.domain, f.codomain, cols)
        assert check_morphism(g, small.algebra, big.algebra) == \
            ref.check_morphism(g, small.algebra, big.algebra), q

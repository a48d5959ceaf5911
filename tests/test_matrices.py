"""Matrix families, the supertrace cocycle, and the presentation checks."""

import ast
import json
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import superuce
from superuce import cli, linalg, matrices
from superuce import (
    CertificateError,
    Cocycle2,
    GradedBasis,
    GradedLinearMap,
    build_family,
    check_morphism,
    coefficient_algebra,
    corner_embedding,
    cyclic_pairs,
    derived_subalgebra,
    h_iso_check,
    is_perfect,
    lie_from_assoc,
    steinberg_check,
    supertrace,
    tau_cocycle,
    validate_assoc,
    validate_cocycle,
    validate_lie,
)
from superuce.linalg import echelon_rows
from superuce.matrices import MatrixFamily, grassmann, matrix_superalgebra
from superuce.uce import UceAlgebra

from reference_kernels import bracket_Eij
import unvalidated

ONE = Fraction(1)


# ---------------------------------------------------------------- coefficients

def same_algebra(A, B) -> bool:
    return (A.basis, A.table, A.unit) == (B.basis, B.table, B.unit)


def test_coefficient_names_space_insensitive():
    A = coefficient_algebra("Q[t]/(t^2)")
    assert same_algebra(coefficient_algebra("Q[t] / (t^2)"), A)
    assert not same_algebra(coefficient_algebra("Q[t]/(t^3)"), A)
    # built on each call: nothing a caller does to one instance reaches another
    assert coefficient_algebra("Q[t]/(t^2)") is not A
    assert same_algebra(coefficient_algebra("Q[t]/(t^2)"), A)


@pytest.mark.parametrize("bad", ["Z", "Q[t]/(t^1)", "Q[t]/(t^7)", "Grassmann(0)",
                                 "Grassmann(4)", "Mat(3,0;Q)", "Q[x]/(x^2)"])
def test_unknown_coefficient_names_rejected(bad):
    with pytest.raises(ValueError, match="coefficient"):
        coefficient_algebra(bad)


def test_grassmann_signs():
    A = grassmann(2)
    i1 = A.basis.index("x1")
    i2 = A.basis.index("x2")
    i12 = A.basis.index("x1x2")
    assert A.table[i1][i2] == {i12: ONE}
    assert A.table[i2][i1] == {i12: -ONE}
    assert A.table[i1][i1] == {}
    assert A.is_supercommutative()


# ------------------------------------------------------------------ dimensions

FAMILY_CASES = [
    ("gl", 3, 2, "Q", 25),
    ("sl", 3, 2, "Q", 24),
    ("sl", 3, 2, "Grassmann(1)", 48),
    ("osp", 1, 2, "Q", 5),
    ("sq", 2, 2, "Q", 7),
    ("p", 2, 2, "Q", 7),
    ("sl", 5, 0, "Q[t]/(t^2)", 48),
    ("sl", 3, 2, "Q[x,y]/(x,y)^2", 72),
]


@pytest.mark.parametrize("kind,m,n,coeff,dim", FAMILY_CASES)
def test_family_dimensions(kind, m, n, coeff, dim):
    fam = build_family(kind, m, n, coefficient_algebra(coeff))
    assert fam.algebra.dim == dim


@pytest.mark.parametrize("kind,m,n,coeff,dim", FAMILY_CASES)
def test_position_inverts_coord_on_the_layout_of_mat(kind, m, n, coeff, dim):
    """MatrixFamily reads the gl layout that matrix_superalgebra writes:
    position inverts coord, and coord(i, j, t) carries the label
    E{i+1},{j+1}(a_t) of the basis matrix_superalgebra built."""
    A = coefficient_algebra(coeff)
    fam = build_family(kind, m, n, A)
    labels = fam.gl.basis.labels
    for i in range(m + n):
        for j in range(m + n):
            for t, a in enumerate(A.basis.labels):
                assert fam.position(fam.coord(i, j, t)) == (i, j, t)
                assert labels[fam.coord(i, j, t)] == f"E{i + 1},{j + 1}({a})"


def test_osp12_parity_split():
    fam = build_family("osp", 1, 2, coefficient_algebra("Q"))
    parities = fam.algebra.basis.parities
    assert sum(1 for p in parities if p == 0) == 3
    assert sum(1 for p in parities if p == 1) == 2


# ------------------------------------------------------- sl vs derived, perfect

@pytest.mark.parametrize("m,n,coeff", [
    (2, 1, "Q"),
    (3, 0, "Q[t]/(t^2)"),
    (2, 1, "Grassmann(1)"),
    (2, 2, "Grassmann(2)"),
])
def test_sl_equals_derived_gl(m, n, coeff):
    A = coefficient_algebra(coeff)
    fam = build_family("sl", m, n, A)
    der = derived_subalgebra(fam.gl)
    assert echelon_rows([dict(c) for c in fam.embedding.columns]) == \
        echelon_rows([dict(v) for v in der.vectors])


@pytest.mark.parametrize("m,n,coeff", [
    (3, 0, "Q"), (2, 1, "Q"), (3, 2, "Q"), (2, 1, "Grassmann(1)"),
    (3, 0, "Q[x,y]/(x,y)^2"),
])
def test_sl_perfect(m, n, coeff):
    fam = build_family("sl", m, n, coefficient_algebra(coeff))
    assert is_perfect(fam.algebra)


def test_osp_inside_sl():
    for (m, n, coeff) in [(1, 2, "Q"), (3, 2, "Q"), (2, 2, "Grassmann(1)")]:
        A = coefficient_algebra(coeff)
        fam = build_family("osp", m, n, A)
        sl = build_family("sl", m, n, A)
        from superuce.linalg import Echelon

        ech = Echelon()
        for col in sl.embedding.columns:
            ech.insert(dict(col))
        for col in fam.embedding.columns:
            assert ech.contains(dict(col))


# ------------------------------------------------------------------- supertrace

def test_supertrace_basis_values():
    fam = build_family("gl", 1, 1, coefficient_algebra("Q"))
    assert supertrace(fam, fam.E(0, 0, {0: ONE})) == {0: ONE}
    assert supertrace(fam, fam.E(1, 1, {0: ONE})) == {0: -ONE}
    assert supertrace(fam, fam.E(0, 1, {0: ONE})) == {}


@pytest.mark.parametrize("coeff", ["Q", "Q[t]/(t^3)", "Q[x,y]/(x,y)^2", "Grassmann(2)"])
def test_supertrace_of_brackets_vanishes_supercommutative(coeff):
    """str([x,y]) lands in [A,A] = 0 for supercommutative A."""
    A = coefficient_algebra(coeff)
    fam = build_family("gl", 2, 1, A)
    gl = fam.gl
    rng = random.Random(5)
    for _ in range(25):
        x = {rng.randrange(gl.dim): Fraction(rng.randint(-3, 3)) for _ in range(3)}
        y = {rng.randrange(gl.dim): Fraction(rng.randint(-3, 3)) for _ in range(3)}
        x = {c: v for c, v in x.items() if v}
        y = {c: v for c, v in y.items() if v}
        assert supertrace(fam, gl.bracket(x, y)) == {}


def test_supertrace_of_brackets_in_commutator_span():
    """Over matrix coefficients str([x,y]) lies in the span of [A,A]."""
    from superuce.linalg import Echelon

    A = coefficient_algebra("Mat(2,0;Q)")
    fam = build_family("gl", 2, 1, A)
    span = Echelon()
    for row in derived_subalgebra(lie_from_assoc(A)).vectors:
        span.insert(dict(row))
    rng = random.Random(11)
    for _ in range(25):
        i = rng.randrange(fam.gl.dim)
        j = rng.randrange(fam.gl.dim)
        tr = supertrace(fam, fam.gl.bracket({i: ONE}, {j: ONE}))
        assert span.contains(tr)


# ------------------------------------------------------------------ the bracket

def test_bracket_matrix_units_even():
    fam = build_family("gl", 3, 2, coefficient_algebra("Q"))
    got = fam.gl.bracket(fam.E(0, 1, {0: ONE}), fam.E(1, 0, {0: ONE}))
    want = dict(fam.E(0, 0, {0: ONE}))
    for c, x in fam.E(1, 1, {0: ONE}).items():
        want[c] = want.get(c, Fraction(0)) - x
    assert got == want
    assert fam.gl.bracket(fam.E(0, 1, {0: ONE}), fam.E(2, 3, {0: ONE})) == {}


def test_bracket_even_odd_position_sign():
    """i even, j odd, even entries: [E_ij, E_ji] = E_ii + E_jj, the plus
    sign coming from the odd-odd pair of generators."""
    fam = build_family("gl", 2, 1, coefficient_algebra("Q"))
    got = fam.gl.bracket(fam.E(0, 2, {0: ONE}), fam.E(2, 0, {0: ONE}))
    want = dict(fam.E(0, 0, {0: ONE}))
    for c, x in fam.E(2, 2, {0: ONE}).items():
        want[c] = want.get(c, Fraction(0)) + x
    assert got == want


@pytest.mark.parametrize("m,n,coeff", [
    (2, 1, "Q"), (1, 1, "Grassmann(1)"), (2, 1, "Q[t]/(t^2)"), (1, 2, "Grassmann(2)"),
])
def test_bracket_Eij_matches_gl_table(m, n, coeff):
    A = coefficient_algebra(coeff)
    fam = build_family("gl", m, n, A)
    size, dA = fam.size, A.dim
    for i in range(size):
        for j in range(size):
            for t in range(dA):
                for p in range(size):
                    for q in range(size):
                        for s in range(dA):
                            via_table = fam.gl.bracket({fam.coord(i, j, t): ONE},
                                                       {fam.coord(p, q, s): ONE})
                            via_formula = bracket_Eij(fam, i, j, {t: ONE}, p, q, {s: ONE})
                            assert via_table == via_formula


def test_gl_coordinates_and_the_matrix_unit_bracket_have_one_owner():
    """No function of matrices decodes positions in a closure of its own
    (MatrixFamily does), and the matrix-unit bracket is gl's table: the
    formula bracket_Eij is a test reference, not package API."""
    tree = ast.parse(Path(matrices.__file__).read_text(encoding="utf-8"))
    nested = {inner.name
              for outer in ast.walk(tree) if isinstance(outer, ast.FunctionDef)
              for inner in ast.walk(outer)
              if isinstance(inner, ast.FunctionDef) and inner is not outer}
    assert not nested & {"coord", "pos_par", "sigma", "posmap"}
    assert "bracket_Eij" not in superuce.__all__
    assert not hasattr(superuce, "bracket_Eij") and not hasattr(matrices, "bracket_Eij")


# --------------------------------------------------------------------- cocycle

def test_tau_zero_over_rationals():
    tau = tau_cocycle(build_family("sl", 3, 0, coefficient_algebra("Q")))
    assert all(not v for row in tau.values for v in row)
    assert validate_cocycle(tau).ok


def test_tau_single_surviving_term():
    """tau(E_12(x), E_21(y)) = <<x, y>> for even indices 1, 2."""
    A = coefficient_algebra("Q[x,y]/(x,y)^2")
    fam = build_family("sl", 3, 0, A)
    pairs = cyclic_pairs(A)
    tau = tau_cocycle(fam)
    sl = fam.algebra
    ix = A.basis.index("x")
    iy = A.basis.index("y")
    a = sl.basis.index("E1,2(x)")
    b = sl.basis.index("E2,1(y)")
    assert tau.values[a][b] == pairs.pair({ix: ONE}, {iy: ONE})


def test_tau_alternating_on_even():
    A = coefficient_algebra("Q[x,y]/(x,y)^2")
    tau = tau_cocycle(build_family("sl", 3, 0, A))
    for i in range(len(tau.values)):
        assert tau.values[i][i] == {} or tau.source.basis.parities[i] == 1


@pytest.mark.parametrize("m,n,coeff", [
    (2, 1, "Q[t]/(t^2)"), (3, 0, "Q[x,y]/(x,y)^2"), (2, 1, "Grassmann(1)"),
    (3, 2, "Grassmann(1)"),
])
def test_tau_validates(m, n, coeff):
    A = coefficient_algebra(coeff)
    tau = tau_cocycle(build_family("sl", m, n, A))
    assert validate_cocycle(tau).ok


def test_tau_needs_supercommutative():
    with pytest.raises(ValueError, match="supercommutative"):
        tau_cocycle(build_family("sl", 3, 0, coefficient_algebra("Mat(2,0;Q)")))


# ------------------------------------------------------------------ big checks

@pytest.mark.parametrize("check", [tau_cocycle, h_iso_check, steinberg_check])
def test_sl_checks_refuse_other_families(check):
    fam = build_family("gl", 5, 0, coefficient_algebra("Q"))
    with pytest.raises(ValueError, match="sl families"):
        check(fam)


def test_h_iso_small_rank_rejected():
    with pytest.raises(ValueError, match="m \\+ n >= 5"):
        h_iso_check(build_family("sl", 2, 0, coefficient_algebra("Q")))


def test_h_iso_rational_case():
    rep = h_iso_check(build_family("sl", 5, 0, coefficient_algebra("Q")))
    assert rep.ok
    assert rep.dim_h2 == 0 and rep.dim_hc1 == 0


def test_steinberg_small_rank_rejected():
    with pytest.raises(ValueError, match="m \\+ n >= 3"):
        steinberg_check(build_family("sl", 1, 1, coefficient_algebra("Q")))


def test_steinberg_rank_three():
    rep = steinberg_check(build_family("sl", 2, 1, coefficient_algebra("Q")))
    assert rep.ok


def test_steinberg_canonical_image():
    """u applied to each generator returns the plain matrix unit; this is
    folded into the independence flag."""
    rep = steinberg_check(build_family("sl", 3, 0, coefficient_algebra("Q")))
    assert rep.independence_of_k and rep.generation


# -------------------------------------------------- report booleans that can fail

H_ISO_FLAGS = ("is_morphism", "commutes_with_projections", "bijective")
STEINBERG_FLAGS = ("independence_of_k", "linearity", "relations", "generation")


def _rebuilt(ext, lie=None, u=None, kernel=None):
    return UceAlgebra(ext.base, lie or ext.lie, ext.presentation, u or ext.u,
                      ext.kernel if kernel is None else kernel, ext.free_pairs)


def _doubled_bracket(ext):
    """ext with its bracket doubled: still a Lie superalgebra, but not
    the bracket its classes and u were built for."""
    table = [[{k: 2 * x for k, x in cell.items()} for cell in row] for row in ext.lie.table]
    return _rebuilt(ext, lie=unvalidated.lie(ext.lie.basis, table))


def _doubled_u(ext):
    cols = [{k: 2 * x for k, x in col.items()} for col in ext.u.columns]
    return _rebuilt(ext, u=GradedLinearMap(ext.u.domain, ext.u.codomain, cols))


def _with_central_summand(ext):
    """ext (+) Qz with z central and killed by u: no bracket reaches z."""
    old = ext.lie.basis
    basis = GradedBasis(old.labels + ("z",), old.parities + (0,))
    table = [list(row) + [{}] for row in ext.lie.table] + [[{}] * (ext.dim + 1)]
    u = GradedLinearMap(basis, ext.u.codomain, list(ext.u.columns) + [{}])
    return _rebuilt(ext, lie=unvalidated.lie(basis, table), u=u,
                    kernel=ext.kernel + ({ext.dim: 1},))


def _zero_tau(tau_cocycle):
    """tau_cocycle with every value replaced by 0, on the same target."""
    def zero(fam):
        tau = tau_cocycle(fam)
        d = tau.source.dim
        return Cocycle2(tau.source, tau.target, [[{}] * d for _ in range(d)])
    return zero


def _flags(rep, names):
    return {name: getattr(rep, name) for name in names}


@pytest.mark.parametrize("flag", H_ISO_FLAGS)
def test_each_h_iso_boolean_fails_on_its_broken_input(monkeypatch, flag):
    """A doubled extension bracket breaks only the morphism check, a
    doubled u only the projections, and the zero cocycle (K = sl (+) HC_1
    with nothing mapping onto HC_1) only bijectivity."""
    if flag == "bijective":
        monkeypatch.setattr(matrices, "tau_cocycle", _zero_tau(matrices.tau_cocycle))
    else:
        corrupt = _doubled_bracket if flag == "is_morphism" else _doubled_u
        inner = matrices.build_uce
        monkeypatch.setattr(matrices, "build_uce", lambda L: corrupt(inner(L)))
    rep = h_iso_check(build_family("sl", 3, 2, coefficient_algebra("Grassmann(1)")))
    assert rep.dim_h2 == rep.dim_hc1 == 1
    assert _flags(rep, H_ISO_FLAGS) == {name: name != flag for name in H_ISO_FLAGS}
    assert rep.ok is False


def _cubed_entries(E):
    """MatrixFamily.E made nonlinear: it agrees on entries 0 and +-1 only."""
    return lambda fam, i, j, a: E(fam, i, j, {t: x ** 3 for t, x in a.items()})


@pytest.mark.parametrize("flag", STEINBERG_FLAGS)
def test_each_steinberg_boolean_fails_on_its_broken_input(monkeypatch, flag):
    """A doubled u breaks only the canonical image, and so independence;
    a nonlinear matrix entry only linearity; a doubled bracket only the
    relations; a central summand that no bracket reaches only generation."""
    fam = build_family("sl", 3, 0, coefficient_algebra("Q"))
    if flag == "linearity":
        monkeypatch.setattr(MatrixFamily, "E", _cubed_entries(MatrixFamily.E))
    else:
        corrupt = {"independence_of_k": _doubled_u, "relations": _doubled_bracket,
                   "generation": _with_central_summand}[flag]
        inner = matrices.build_uce
        monkeypatch.setattr(matrices, "build_uce", lambda L: corrupt(inner(L)))
    rep = steinberg_check(fam)
    assert _flags(rep, STEINBERG_FLAGS) == {name: name != flag for name in STEINBERG_FLAGS}
    assert rep.ok is False


def _moved_by(fam, phi):
    """ext (+) Qz with each bracket [x, y] moved by phi(u x, u y) z, for a
    bilinear phi on the gl coordinates of fam."""

    def corrupt(ext):
        d = ext.dim
        image = [fam.embedding.apply(col) for col in ext.u.columns]
        table = []
        for p, row in enumerate(ext.lie.table):
            cells = []
            for q, cell in enumerate(row):
                moved = phi(image[p], image[q])
                cells.append({**cell, d: moved} if moved else cell)
            table.append(cells + [{}])
        basis = GradedBasis(ext.lie.basis.labels + ("z",), ext.lie.basis.parities + (0,))
        u = GradedLinearMap(basis, ext.u.codomain, list(ext.u.columns) + [{}])
        return _rebuilt(ext, lie=unvalidated.lie(basis, table + [[{}] * (d + 1)]),
                        u=u, kernel=ext.kernel + ({d: 1},))
    return corrupt


def _with_odd_squares(fam):
    """_moved_by with phi(X, Y) the sum of X_c Y_c over the odd positions c
    of gl(m,n;Q).  phi is symmetric on odd elements and 0 on even ones, so
    the table stays super skew-symmetric; on the Steinberg generators it
    is 1 on the square of an odd one and 0 on every pair of distinct ones."""
    gl_par = fam.gl.basis.parities
    return _moved_by(fam, lambda X, Y: sum(x * Y.get(c, 0) for c, x in X.items() if gl_par[c]))


def test_steinberg_relations_include_each_generator_with_itself(monkeypatch):
    """The relations are checked once per unordered pair of generators, the
    diagonal included: a bracket moved only on the squares of the odd
    generators of sl(2,1) breaks only the relations."""
    fam = build_family("sl", 2, 1, coefficient_algebra("Q"))
    inner = matrices.build_uce
    monkeypatch.setattr(matrices, "build_uce", lambda L: _with_odd_squares(fam)(inner(L)))
    rep = steinberg_check(fam)
    assert _flags(rep, STEINBERG_FLAGS) == {name: name != "relations" for name in STEINBERG_FLAGS}


def test_steinberg_generation_brackets_new_elements_with_the_generators(monkeypatch):
    """z is reached only by [h, E_01] with h a bracket of two generators
    that has an E_00 entry, so generation holds only if the second round
    brackets the new elements against the generators too."""
    fam = build_family("sl", 3, 0, coefficient_algebra("Q"))
    c1, c2 = fam.coord(0, 0, 0), fam.coord(0, 1, 0)
    corrupt = _moved_by(fam, lambda X, Y: X.get(c1, 0) * Y.get(c2, 0) - X.get(c2, 0) * Y.get(c1, 0))
    inner = matrices.build_uce
    monkeypatch.setattr(matrices, "build_uce", lambda L: corrupt(inner(L)))
    rep = steinberg_check(fam)
    assert rep.dim_uce == 9
    assert _flags(rep, STEINBERG_FLAGS) == {name: True for name in STEINBERG_FLAGS}


def test_a_failed_report_boolean_exits_1(monkeypatch, capsys):
    """One failed boolean of each report: the command prints ok false and
    exits 1."""
    monkeypatch.setattr(matrices, "tau_cocycle", _zero_tau(matrices.tau_cocycle))
    argv = ["h-iso-check", "--family", "sl", "--m", "3", "--n", "2", "--coeff", "Grassmann(1)"]
    assert cli.main(argv) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert (results["bijective"], results["ok"]) == (False, False)
    monkeypatch.setattr(MatrixFamily, "E", _cubed_entries(MatrixFamily.E))
    assert cli.main(["steinberg-check", "--family", "sl", "--m", "3"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert (results["linearity"], results["ok"]) == (False, False)


def _drop_embedding_column(fam, label):
    """fam with the embedding column of one basis element zeroed: that
    element's matrix unit leaves the span of the embedding."""
    j = fam.algebra.basis.index(label)
    cols = [{} if k == j else col for k, col in enumerate(fam.embedding.columns)]
    fam.embedding = GradedLinearMap(fam.algebra.basis, fam.gl.basis, cols)
    return fam


def test_steinberg_check_certifies_its_sl_coordinates(monkeypatch, capsys):
    fam = _drop_embedding_column(build_family("sl", 3, 0, coefficient_algebra("Q")), "E1,2(1)")
    message = "the gl(3,0) vector on E1,2(1) of the Steinberg check is not in sl(3,0)"
    with pytest.raises(CertificateError, match=re.escape(message)):
        steinberg_check(fam)
    inner = cli.build_family
    monkeypatch.setattr(cli, "build_family",
                        lambda *args: _drop_embedding_column(inner(*args), "E1,2(1)"))
    assert cli.main(["steinberg-check", "--family", "sl", "--m", "3", "--coeff", "Q"]) == 1
    assert capsys.readouterr().err == f"certificate failed: {message}\n"


# ------------------------------------------------------------------- embeddings

def test_each_family_embedding_is_eliminated_once(monkeypatch):
    """Over a 3-member sl chain with a corner map for every related pair,
    Echelon.insert sees each embedding column of each family once: the
    embedding's own echelon solves the family's structure constants and
    every corner map into it.  Inserted vectors are kept alive, so their
    ids stay unique."""
    fams, inserted = [], []
    build, insert = cli.build_family, linalg.Echelon.insert

    def recording_build(*args):
        fams.append(build(*args))
        return fams[-1]

    def recording_insert(self, vec, tag=None):
        inserted.append(vec)
        return insert(self, vec, tag)

    monkeypatch.setattr(cli, "build_family", recording_build)
    monkeypatch.setattr(linalg.Echelon, "insert", recording_insert)
    _, code = cli.run(["limit-check", "--chain", "sl:2..4:Q"])
    assert code == 0 and len(fams) == 3
    seen = Counter(id(v) for v in inserted)
    for fam in fams:
        assert [seen[id(col)] for col in fam.embedding.columns] == [1] * fam.algebra.dim, fam


def test_corner_embedding_is_morphism():
    Q = coefficient_algebra("Q")
    src = build_family("sl", 3, 0, Q)
    dst = build_family("sl", 5, 0, Q)
    f = corner_embedding(src, dst)
    assert check_morphism(f, src.algebra, dst.algebra)
    assert f.is_injective()


def test_corner_embedding_mixed_blocks():
    Qxy = coefficient_algebra("Q[x,y]/(x,y)^2")
    src = build_family("sl", 2, 1, Qxy)
    dst = build_family("sl", 3, 2, Qxy)
    f = corner_embedding(src, dst)
    assert check_morphism(f, src.algebra, dst.algebra)
    # entries must be preserved under the corner inclusion
    v = {src.algebra.basis.index("E1,2(x)"): ONE}
    img = f.apply(v)
    assert img == {dst.algebra.basis.index("E1,2(x)"): ONE}


def test_corner_embedding_requires_same_coefficients():
    A1 = coefficient_algebra("Q[t]/(t^2)")
    src = build_family("sl", 2, 0, A1)
    dst = build_family("sl", 3, 0, coefficient_algebra("Q[t]/(t^3)"))
    with pytest.raises(ValueError, match="coefficient algebras must be equal"):
        corner_embedding(src, dst)


def test_corner_embedding_compares_coefficients_by_value():
    # two separately obtained coefficient algebras are equal, not the same object
    A1, A2 = coefficient_algebra("Q[t]/(t^2)"), coefficient_algebra("Q[t]/(t^2)")
    assert A1 is not A2
    src, dst = build_family("sl", 2, 0, A1), build_family("sl", 3, 0, A2)
    f = corner_embedding(src, dst)
    assert f.is_injective() and check_morphism(f, src.algebra, dst.algebra)


def test_corner_embedding_rejects_other_kinds():
    Q = coefficient_algebra("Q")
    a = build_family("osp", 1, 2, Q)
    b = build_family("osp", 3, 2, Q)
    with pytest.raises(ValueError, match="sl and gl"):
        corner_embedding(a, b)


# ---------------------------------------------------------------- preconditions

def test_build_family_precondition_errors():
    Q = coefficient_algebra("Q")
    with pytest.raises(ValueError, match="unknown family kind"):
        build_family("so", 3, 0, Q)
    with pytest.raises(ValueError, match="even number"):
        build_family("osp", 2, 1, Q)
    with pytest.raises(ValueError, match="n == m"):
        build_family("p", 2, 3, Q)
    with pytest.raises(ValueError, match="over Q only"):
        build_family("sq", 2, 2, coefficient_algebra("Q[t]/(t^2)"))
    with pytest.raises(ValueError, match="m \\+ n >= 1"):
        build_family("gl", 0, 0, Q)
    with pytest.raises(ValueError, match="supercommutative"):
        build_family("osp", 2, 2, coefficient_algebra("Mat(2,0;Q)"))


def test_matrix_superalgebra_associative_with_odd_entries():
    """The graded tensor product sign keeps Mat(1,1;Grassmann(2))
    associative, and its supercommutator algebra a Lie superalgebra."""
    A = coefficient_algebra("Grassmann(2)")
    M = matrix_superalgebra(1, 1, A)
    assert M.dim == 4 * A.dim
    assert validate_assoc(M).ok
    assert validate_lie(lie_from_assoc(M)).ok

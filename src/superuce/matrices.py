"""Matrix superalgebra families over builtin coefficient superalgebras.

Mat(m,n;A) has basis E_ij(a) for positions i, j (the first m indices
even, the last n odd) and a running over a homogeneous basis of A; the
parity of E_ij(a) is |i| + |j| + |a|.  The product is the graded tensor
product of the matrix units with A: the entry of the left factor moves
past the position grading of the right factor,

    E_ij(a) E_pq(b) = [j == p] (-1)^{|a|(|p|+|q|)} E_iq(ab).

Over a purely even A (or with n = 0) every sign is +1 and this is plain
matrix multiplication.  The sign is forced: it is what makes
str([x,y]) land in the supercommutator span [A,A] for every pair, so
that sl (below) is closed under the bracket and equals the derived
subalgebra of gl.  gl is the supercommutator algebra of Mat.

Families:

* sl(m,n;A): supertrace in the span of supercommutators [A,A]; basis is
  the off-diagonal E_ij(a) ordered by (i, j, a), then the diagonal
  differences H_i(a) = E_ii(a) - s_i s_{i+1} E_{i+1,i+1}(a) with
  s_i = (-1)^{|i|}, then E_11(s_1 c) for c in an echelon basis of [A,A].
* osp(m,n;A), n even, A supercommutative: the full stabilizer of the
  even form with Gram matrix diag(I_m, J_n), J_n the standard symplectic
  block, computed as a kernel per homogeneous sector.  The module is the
  free right A-module on the column basis and the form is
  beta(e_r a, e_s b) = (-1)^{|a||s|} G_rs ab; this supermodule sign
  convention is ours (documented, not asserted as anyone else's), and
  over purely even A it collapses to the classical stabilizer condition.
* p(m) over Q: stabilizer of the odd form with Gram [[0, I_m], [-I_m, 0]]
  intersected with supertrace zero (as a subalgebra of sl(m,m;Q)).
* sq(m) over Q: matrices [[a, b], [b, a]] in gl(m,m;Q) with tr b = 0,
  computed as a kernel of the equality and trace conditions.

The supertrace cocycle on sl(m,n;A) for supercommutative A takes values
in the pairing space of A:

    tau(x, y) = sum_{i, j} sigma_i (-1)^{|x_ij|(|i|+|j|)} <<x_ij, y_ji>>,

sigma_i = +1 on the first m row indices and -1 on the rest.  The entry
parity factor mirrors the graded tensor product sign of Mat and is +1
whenever the entry is even.

steinberg_check verifies the Steinberg presentation inside the built
extension: with ehat_ij(a) the class of E_ik(a) (x) E_kj(1) for the
smallest admissible middle index k, it checks independence of k,
linearity in a, the bracket relations among generators (the doubly
matched index pattern is not a presentation relation and is excluded),
and that the ehat generate the whole extension.
"""

from __future__ import annotations

import re
from random import Random

from .algebra import (
    AssocSuperalgebra,
    CertificateError,
    GradedBasis,
    GradedLinearMap,
    _bilinear,
    _column_weights,
    _keep_torus,
    check_morphism,
    derived_subalgebra,
    lie_from_assoc,
    subalgebra_from_vectors,
)
from .cyclic import cyclic_pairs
from .linalg import (
    Echelon,
    SparseMatrix,
    Vector,
    kernel_basis,
    vec_add_scaled,
)
from .uce import Cocycle2, build_uce, extension_from_cocycle


# ---------------------------------------------------------------- coefficients

def rational_algebra() -> AssocSuperalgebra:
    return AssocSuperalgebra(GradedBasis(["1"], [0]), [[{0: 1}]], {0: 1})


def truncated_polynomials(N: int) -> AssocSuperalgebra:
    """Q[t]/(t^N)."""
    if N < 2:
        raise ValueError("need N >= 2")
    labels = ["1", "t"] + [f"t^{k}" for k in range(2, N)]
    table = [[({i + j: 1} if i + j < N else {}) for j in range(N)] for i in range(N)]
    return AssocSuperalgebra(GradedBasis(labels, [0] * N), table, {0: 1})


def plane_square_zero() -> AssocSuperalgebra:
    """Q[x,y]/(x,y)^2."""
    labels = ["1", "x", "y"]
    table = [[{j: 1} if i == 0 else ({i: 1} if j == 0 else {}) for j in range(3)] for i in range(3)]
    return AssocSuperalgebra(GradedBasis(labels, [0, 0, 0]), table, {0: 1})


def grassmann(r: int) -> AssocSuperalgebra:
    """Exterior algebra on r odd generators."""
    if r < 1:
        raise ValueError("need r >= 1")
    from itertools import combinations

    subsets = [S for k in range(r + 1) for S in combinations(range(1, r + 1), k)]
    index = {S: i for i, S in enumerate(subsets)}
    labels = ["1" if not S else "".join(f"x{i}" for i in S) for S in subsets]
    parities = [len(S) & 1 for S in subsets]
    d = len(subsets)
    table = []
    for S in subsets:
        row = []
        for T in subsets:
            if set(S) & set(T):
                row.append({})
            else:
                seq = list(S) + list(T)
                sign = 1
                for i in range(len(seq)):
                    for j in range(i + 1, len(seq)):
                        if seq[i] > seq[j]:
                            sign = -sign
                row.append({index[tuple(sorted(seq))]: sign})
        table.append(row)
    return AssocSuperalgebra(GradedBasis(labels, parities), table, {0: 1})


_COEFF_GRAMMAR = """\
coefficient names: Q | Q[t]/(t^N) with 2 <= N <= 6 | Q[x,y]/(x,y)^2
                 | Grassmann(r) with 1 <= r <= 3 | Mat(2,0;Q)"""


def coefficient_algebra(name: str) -> AssocSuperalgebra:
    """Builtin coefficient algebra by name, built and validated on each call."""
    key = name.replace(" ", "")
    if key == "Q":
        alg = rational_algebra()
    elif m := re.fullmatch(r"Q\[t\]/\(t\^([0-9]+)\)", key):
        N = int(m.group(1))
        if not 2 <= N <= 6:
            raise ValueError(f"unknown coefficient algebra {name!r}; {_COEFF_GRAMMAR}")
        alg = truncated_polynomials(N)
    elif key == "Q[x,y]/(x,y)^2":
        alg = plane_square_zero()
    elif m := re.fullmatch(r"Grassmann\(([0-9]+)\)", key):
        r = int(m.group(1))
        if not 1 <= r <= 3:
            raise ValueError(f"unknown coefficient algebra {name!r}; {_COEFF_GRAMMAR}")
        alg = grassmann(r)
    elif key == "Mat(2,0;Q)":
        mat = matrix_superalgebra(2, 0, rational_algebra())
        alg = AssocSuperalgebra(mat.basis, mat.table, mat.unit)  # validated like the others
    else:
        raise ValueError(f"unknown coefficient algebra {name!r}; {_COEFF_GRAMMAR}")
    return alg


# ------------------------------------------------------------------- Mat and gl

def matrix_superalgebra(m: int, n: int, A: AssocSuperalgebra) -> AssocSuperalgebra:
    """Mat(m,n;A) on basis E_ij(a), parity |i| + |j| + |a|.

    Product: E_ij(a) E_pq(b) = [j == p] (-1)^{|a|(|p|+|q|)} E_iq(ab)
    (the graded tensor product sign; trivial over even A or for n = 0).
    Associative with unit whenever A is, and every cell is a signed
    product cell of A, so it is built without re-validation or cleaning.
    """
    size = m + n
    if size < 1:
        raise ValueError("need m + n >= 1")
    dA = A.dim
    apar = A.basis.parities
    alabels = A.basis.labels
    d = size * size * dA

    # the layout: E_ij(a_t) sits at coordinate (i * size + j) * dA + t,
    # the order the basis is written in below
    ppar = [0] * m + [1] * n
    labels = []
    parities = []
    for i in range(size):
        for j in range(size):
            for t in range(dA):
                labels.append(f"E{i + 1},{j + 1}({alabels[t]})")
                parities.append((ppar[i] + ppar[j] + apar[t]) & 1)
    table = [[{} for _ in range(d)] for _ in range(d)]
    for i in range(size):
        for j in range(size):
            for q in range(size):
                out = (i * size + q) * dA
                right = (j * size + q) * dA
                odd = (ppar[j] + ppar[q]) & 1
                for t in range(dA):
                    left = (i * size + j) * dA + t
                    sign = -1 if apar[t] and odd else 1
                    for s, prod in enumerate(A.table[t]):
                        if prod:
                            table[left][right + s] = {out + k: sign * x for k, x in prod.items()}
    unit = {(i * size + i) * dA + t: x for i in range(size) for t, x in A.unit.items()}
    return AssocSuperalgebra._derived(GradedBasis(labels, parities), table, unit)


class MatrixFamily:
    """A matrix family member together with its gl environment.

    The one reader of the gl(m,n;A) layout that matrix_superalgebra
    writes: coord and position encode and decode the basis element
    E_ij(a_t) at 0-based positions i, j, and index_parity and sigma give
    the parity and the sign (+1 on the first m positions, -1 on the
    rest) of a position.  E, entry and supertrace read only these.
    """

    __slots__ = ("kind", "m", "n", "coeff", "gl", "algebra", "embedding")

    def __init__(self, kind, m, n, coeff, gl, algebra, embedding):
        self.kind = kind
        self.m = m
        self.n = n
        self.coeff = coeff
        self.gl = gl
        self.algebra = algebra
        self.embedding = embedding

    @property
    def size(self) -> int:
        return self.m + self.n

    def index_parity(self, i: int) -> int:
        """Parity of position i (0-based)."""
        return 0 if i < self.m else 1

    def sigma(self, i: int) -> int:
        """Sign (-1)^{|i|} of position i (0-based)."""
        return -1 if self.index_parity(i) else 1

    def coord(self, i: int, j: int, t: int) -> int:
        """gl coordinate of E_ij(a_t)."""
        return (i * self.size + j) * self.coeff.dim + t

    def position(self, c: int) -> tuple:
        """(i, j, t) of the gl coordinate c; the inverse of coord."""
        pos, t = divmod(c, self.coeff.dim)
        i, j = divmod(pos, self.size)
        return i, j, t

    def E(self, i: int, j: int, a: Vector) -> Vector:
        """gl vector of the matrix with entry a at position (i, j), 0-based."""
        base = self.coord(i, j, 0)
        return {base + t: x for t, x in a.items() if x}

    def entry(self, v: Vector, i: int, j: int) -> Vector:
        """The (i, j) entry of a gl vector, as a coefficient vector."""
        base = self.coord(i, j, 0)
        out = {}
        for t in range(self.coeff.dim):
            x = v.get(base + t)
            if x:
                out[t] = x
        return out

    def __repr__(self) -> str:
        return f"MatrixFamily({self.kind}, m={self.m}, n={self.n}, dim={self.algebra.dim})"


def supertrace(fam: MatrixFamily, v: Vector) -> Vector:
    """str(x) = sum over even diagonal entries minus sum over odd ones."""
    out: Vector = {}
    for i in range(fam.size):
        vec_add_scaled(out, fam.entry(v, i, i), fam.sigma(i))
    return out


def _sl_vectors(fam: MatrixFamily):
    """Basis vectors and labels of sl inside the gl member fam: the
    off-diagonal E_ij(a) with gl's labels, the H_i(a), then E_11(s_1 c)
    for c in the echelon basis of [A,A], the derived subalgebra of A's
    supercommutator algebra."""
    A = fam.coeff
    alabels = A.basis.labels
    vectors = []
    labels = []
    for c, label in enumerate(fam.gl.basis.labels):
        i, j, _ = fam.position(c)
        if i != j:
            vectors.append({c: 1})
            labels.append(label)
    for i in range(fam.size - 1):
        ss = fam.sigma(i) * fam.sigma(i + 1)
        for t in range(A.dim):
            vectors.append({fam.coord(i, i, t): 1, fam.coord(i + 1, i + 1, t): -ss})
            labels.append(f"H{i + 1}({alabels[t]})")
    s1 = fam.sigma(0)
    for idx, c in enumerate(derived_subalgebra(lie_from_assoc(A)).vectors):
        vectors.append(fam.E(0, 0, {t: s1 * x for t, x in c.items()}))
        labels.append(f"C{idx}")
    return vectors, labels


def _diagonal_torus(fam: MatrixFamily) -> tuple:
    """(h, weights) of the gl member fam: h = sum_t c_t E_tt(1), so
    E_ij(a) has weight c_i - c_j.  With H_t = e_t - s_t s_{t+1} e_{t+1}
    (s_t = (-1)^{|t|}, as in sl's H_t), c = sum_t B^t H_t has supertrace
    0, so h lies in sl, and c_i - c_j encodes the tuple of the
    (H_t)_i - (H_t)_j, each of absolute value at most M = 2, in balanced
    base B = 6M + 1, as algebra._torus encodes its torus: the weights are
    as fine as the diagonal torus of sl allows.  Certified by
    algebra._keep_torus where it is stored."""
    size, dA = fam.size, fam.coeff.dim
    # c_t = B^t - s_{t-1} s_t B^{t-1}, B = 13, the first term absent for the last t
    c = [(13 ** t if t < size - 1 else 0) - (fam.sigma(t - 1) * fam.sigma(t) * 13 ** (t - 1) if t else 0)
         for t in range(size)]
    h = {fam.coord(t, t, u): c[t] * x for t in range(size) if c[t] for u, x in fam.coeff.unit.items()}
    return h, [c[i] - c[j] for i in range(size) for j in range(size) for _ in range(dA)]


def _gram_osp(m: int, n: int):
    size = m + n
    h = n // 2
    G = [[0] * size for _ in range(size)]
    for i in range(m):
        G[i][i] = 1
    for r in range(h):
        G[m + r][m + h + r] = 1
        G[m + h + r][m + r] = -1
    return G


def _gram_p(m: int):
    size = 2 * m
    G = [[0] * size for _ in range(size)]
    for r in range(m):
        G[r][m + r] = 1
        G[m + r][r] = -1
    return G


def _stabilizer_vectors(fam: MatrixFamily, G, trace_row: bool) -> list:
    """Kernel of the form-invariance condition inside the gl member fam,
    per homogeneous sector; with trace_row the even sector also has
    supertrace zero.

    The module is the free right A-module on the position basis, and the
    action carries the graded tensor product sign,
    E_ij(c) (e_r a) = [j == r] (-1)^{|c||r|} e_i (ca).  For x = E_ij(c)
    of parity P the condition rows, indexed by a module basis pair
    (r, s), a right factor a, and a value coordinate k, read

      [j == r] (-1)^{|c||j| + (|c|+|a|)|s|} G_is (ca)_k
        + [j == s] (-1)^{|c||j| + P(|r|+|a|) + |a|(|i|+|c|)} G_ri (ca)_k  =  0.

    The unknowns of sector P are the gl coordinates of parity P.
    """
    A = fam.coeff
    apar = A.basis.parities
    par = fam.index_parity
    out = []
    for P in (0, 1):
        unknowns = [c for c, p in enumerate(fam.gl.basis.parities) if p == P]
        rows: dict = {}
        for cu, c in enumerate(unknowns):
            i, j, t = fam.position(c)
            for ta in range(A.dim):
                prod = A.table[t][ta]
                if not prod:
                    continue
                for s in range(fam.size):
                    g = G[i][s]
                    if g:
                        e1 = ((apar[t] + apar[ta]) & 1) * par(s) + apar[t] * par(j)
                        s1 = -1 if e1 & 1 else 1
                        for k, x in prod.items():
                            vec_add_scaled(rows.setdefault((j, s, ta, k), {}), {cu: x}, s1 * g)
                for r in range(fam.size):
                    g = G[r][i]
                    if g:
                        e = (P * ((par(r) + apar[ta]) & 1)
                             + apar[ta] * ((par(i) + apar[t]) & 1)
                             + apar[t] * par(j))
                        s2 = -1 if e & 1 else 1
                        for k, x in prod.items():
                            vec_add_scaled(rows.setdefault((r, j, ta, k), {}), {cu: x}, s2 * g)
        row_list = [rows[key] for key in sorted(rows) if rows[key]]
        if trace_row and P == 0:
            tr: Vector = {}
            for cu, c in enumerate(unknowns):
                i, j, _ = fam.position(c)
                if i == j:
                    tr[cu] = fam.sigma(i)
            if tr:
                row_list.append(tr)
        mat = SparseMatrix(row_list, len(unknowns))
        for vec in kernel_basis(mat):
            out.append({unknowns[cu]: x for cu, x in vec.items()})
    return out


def _sq_vectors(fam: MatrixFamily) -> list:
    """Kernel of the sq conditions inside the gl(m,m;Q) member fam: equal
    diagonal blocks, equal off-diagonal blocks, and tr b = 0."""
    m = fam.m
    rows = []
    for i in range(m):
        for j in range(m):
            rows.append({fam.coord(i, j, 0): 1, fam.coord(m + i, m + j, 0): -1})
            rows.append({fam.coord(i, m + j, 0): 1, fam.coord(m + i, j, 0): -1})
    rows.append({fam.coord(i, m + i, 0): 1 for i in range(m)})
    return kernel_basis(SparseMatrix(rows, fam.gl.dim))


def build_family(kind: str, m: int, n: int, coeff: AssocSuperalgebra) -> MatrixFamily:
    """Construct gl, sl, osp, p, or sq inside gl(m,n;coeff).

    The gl member is built first; the vectors of any other member are
    read off it, in gl coordinates.  Nothing is re-validated: Mat and gl
    inherit their laws from coeff, and the family member is a subalgebra
    whose closure under the bracket is certified by
    subalgebra_from_vectors.

    gl and sl over a supercommutative coeff bring their torus
    (_diagonal_torus), certified where it is kept: under h, E_ij(a) has
    weight c_i - c_j, and sl, spanned by weight vectors of h, solves only
    the cells of a weight of gl and keeps h in its own coordinates.  Over
    a local supercommutative coeff, as every named one is, only the
    scalars act diagonally on coeff, so h is as fine as the torus
    algebra._torus solves for; over another coeff, such as Mat(2,0;Q),
    whose idempotents e11 and e22 give a finer torus, nothing is brought
    and _torus solves it.  osp, p and sq are spanned by vectors that are
    not weight vectors of gl's diagonal, so their gl carries no torus and
    every cell is solved.
    """
    if kind not in ("gl", "sl", "osp", "p", "sq"):
        raise ValueError(f"unknown family kind {kind!r}")
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError("need m, n >= 0 and m + n >= 1")
    if kind == "osp" and n % 2:
        raise ValueError("osp needs an even number of odd indices")
    if kind in ("p", "sq"):
        if n != m:
            raise ValueError(f"{kind}(m) lives in gl(m,m); pass n == m")
        if coeff.dim != 1 or coeff.basis.parities != (0,):
            raise ValueError(f"{kind}(m) is defined over Q only")
    if kind == "osp" and not coeff.is_supercommutative():
        raise ValueError("osp needs a supercommutative coefficient algebra")

    gl = lie_from_assoc(matrix_superalgebra(m, n, coeff))
    fam = MatrixFamily("gl", m, n, coeff, gl, gl, GradedLinearMap.identity(gl.basis))
    if kind in ("gl", "sl") and coeff.is_supercommutative():
        h = _keep_torus(gl, *_diagonal_torus(fam))[0]
    if kind == "gl":
        return fam
    if kind == "sl":
        vectors, labels = _sl_vectors(fam)
    else:
        if kind == "sq":
            vectors = _sq_vectors(fam)
        else:
            G = _gram_osp(m, n) if kind == "osp" else _gram_p(m)
            vectors = _stabilizer_vectors(fam, G, trace_row=kind == "p")
        labels = [f"{kind}{i}" for i in range(len(vectors))]
    fam_alg, embedding = subalgebra_from_vectors(gl, vectors, labels)
    if gl._torus is not None:  # sl over a supercommutative coeff
        _keep_torus(fam_alg, embedding._preimage(h) or {}, _column_weights(embedding.columns, gl)[0])
    return MatrixFamily(kind, m, n, coeff, gl, fam_alg, embedding)


# ------------------------------------------------------------------ the cocycle

def _require_sl(fam: MatrixFamily) -> None:
    if fam.kind != "sl":
        raise ValueError(f"this check works on sl families, not {fam.kind}")


def tau_cocycle(fam: MatrixFamily) -> Cocycle2:
    """Supertrace-weighted pairing cocycle on sl(m,n;A), A supercommutative.

    tau(x, y) = sum_{i, j} sigma_i (-1)^{|x_ij|(|i|+|j|)} <<x_ij, y_ji>>
    with sigma_i = +1 on the first m row indices and -1 on the rest;
    values in the pairing space of A (all of which is HC_1(A) since the
    commutator map vanishes), built here with cyclic_pairs(A).  The
    entry parity factor matches the graded tensor product sign of Mat
    and is +1 for even entries.  The entries x_ij are read off the
    embedding columns with fam.position, the signs with fam.sigma.
    """
    _require_sl(fam)
    A = fam.coeff
    if not A.is_supercommutative():
        raise ValueError("the supertrace cocycle needs a supercommutative coefficient algebra")
    pairs = cyclic_pairs(A)
    sl = fam.algebra
    d = sl.dim

    entries = []
    for col in fam.embedding.columns:
        by_pos: dict = {}
        for c, x in col.items():
            i, j, t = fam.position(c)
            by_pos.setdefault((i, j), {})[t] = x
        entries.append(by_pos)

    pair_class: dict = {}

    def pclass(t: int, s: int) -> Vector:
        got = pair_class.get((t, s))
        if got is None:
            got = pairs.pair({t: 1}, {s: 1})
            pair_class[(t, s)] = got
        return got

    apar = A.basis.parities
    values = []
    for bi in range(d):
        row = []
        exi = entries[bi]
        for bj in range(d):
            exj = entries[bj]
            acc: Vector = {}
            for (i, j), av in exi.items():
                bv = exj.get((j, i))
                if not bv:
                    continue
                sign = fam.sigma(i)
                odd_pos = sign != fam.sigma(j)
                for t, x in av.items():
                    tsign = -sign if (apar[t] and odd_pos) else sign
                    for s, y in bv.items():
                        cls = pclass(t, s)
                        if cls:
                            vec_add_scaled(acc, cls, tsign * x * y)
            row.append(acc)
        values.append(row)
    return Cocycle2(sl, pairs.basis, values)


# ------------------------------------------------------------------ big checks

class HIsoReport:
    __slots__ = ("dim_sl", "dim_uce", "dim_extension", "dim_h2", "dim_hc1",
                 "is_morphism", "commutes_with_projections", "bijective")

    def __init__(self, dim_sl: int, dim_uce: int, dim_extension: int,
                 dim_h2: int, dim_hc1: int, is_morphism: bool,
                 commutes_with_projections: bool, bijective: bool):
        self.dim_sl = dim_sl
        self.dim_uce = dim_uce
        self.dim_extension = dim_extension
        self.dim_h2 = dim_h2
        self.dim_hc1 = dim_hc1
        self.is_morphism = is_morphism
        self.commutes_with_projections = commutes_with_projections
        self.bijective = bijective

    @property
    def ok(self) -> bool:
        return self.is_morphism and self.commutes_with_projections and self.bijective


def h_iso_check(fam: MatrixFamily) -> HIsoReport:
    """Compare the built extension of the family sl(m,n;A) with sl (+) HC_1(A).

    Builds the extension of sl and the cocycle tau once.  The comparison
    map sends the class <a,b> to [a,b] (+) tau(a,b), which is the bracket
    of a and b in the cocycle extension K; so its column at the basis
    pair (a, b) of the extension is the table cell K[a][b].  Needs
    m + n >= 5 and supercommutative A; HC_1(A) is then the whole pairing
    space, the target of tau.
    """
    _require_sl(fam)
    if fam.m + fam.n < 5:
        raise ValueError("the comparison map is an isomorphism claim for m + n >= 5 only")
    sl = fam.algebra
    tau = tau_cocycle(fam)
    ext = build_uce(sl)
    central = extension_from_cocycle(tau)
    K = central.total
    hmap = GradedLinearMap(ext.lie.basis, K.basis, [K.table[a][b] for a, b in ext.free_pairs])
    is_morphism = check_morphism(hmap, ext.lie, K)
    commutes = central.projection.compose(hmap) == ext.u
    bijective = hmap.is_bijective()
    return HIsoReport(
        dim_sl=sl.dim, dim_uce=ext.dim, dim_extension=K.dim,
        dim_h2=len(ext.kernel), dim_hc1=len(tau.target),
        is_morphism=is_morphism, commutes_with_projections=commutes,
        bijective=bijective,
    )


class SteinbergReport:
    __slots__ = ("dim_uce", "generators", "independence_of_k", "linearity",
                 "relations", "generation")

    def __init__(self, dim_uce: int, generators: int, independence_of_k: bool,
                 linearity: bool, relations: bool, generation: bool):
        self.dim_uce = dim_uce
        self.generators = generators
        self.independence_of_k = independence_of_k
        self.linearity = linearity
        self.relations = relations
        self.generation = generation

    @property
    def ok(self) -> bool:
        return self.independence_of_k and self.linearity and self.relations and self.generation


def steinberg_check(fam: MatrixFamily, seed: int = 0) -> SteinbergReport:
    """Steinberg presentation checks inside the extension of the family sl(m,n;A).

    Builds the extension once; seed drives the random linearity samples.
    Every matrix unit is made with fam.E, and the expected bracket of two
    generators is read off gl's own table at fam.coord of each.  The
    relations are checked once per unordered pair of generators, the
    diagonal included: for the mirror pair both sides are
    -(-1)^{|a||b|} times these, as ext.lie and gl are Lie tables and
    ehat_lin and fam.entry are linear, and the j == p branch of a pair is
    the i == q branch of its mirror.  For the same reason the generation
    loop brackets each new element once against the elements already
    processed and against the new ones up to and including itself.
    """
    _require_sl(fam)
    m, n = fam.m, fam.n
    if m + n < 3:
        raise ValueError("the Steinberg comparison needs m + n >= 3")
    ext = build_uce(fam.algebra)
    A_ = fam.coeff
    dA = A_.dim
    size = m + n

    def sl_coords(glvec: Vector) -> Vector:
        x = fam.embedding._preimage(glvec)
        if x is None:
            support = ", ".join(fam.gl.basis.labels[c] for c in sorted(glvec))
            raise CertificateError(
                f"the gl({m},{n}) vector on {support} of the Steinberg check is not in sl({m},{n})"
            )
        return x

    apar = A_.basis.parities

    def ehat_via(i: int, j: int, a: Vector, k: int) -> Vector:
        # [E_ik(a'), E_kj(1)] = E_ij(a) needs a' twisted by the graded
        # tensor product sign, a'_t = (-1)^{|t|(|k|+|j|)} a_t
        kj = (fam.index_parity(k) + fam.index_parity(j)) & 1
        a2 = {t: (-x if (apar[t] and kj) else x) for t, x in a.items()}
        x = sl_coords(fam.E(i, k, a2))
        y = sl_coords(fam.E(k, j, dict(A_.unit)))
        return ext.class_of(x, y)

    def middle(i: int, j: int) -> int:
        for k in range(size):
            if k != i and k != j:
                return k
        raise ValueError("no admissible middle index")

    independence = True
    ehat: dict = {}
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            for t in range(dA):
                a = {t: 1}
                k0 = middle(i, j)
                base = ehat_via(i, j, a, k0)
                ehat[(i, j, t)] = base
                for k in range(size):
                    if k in (i, j) or k == k0:
                        continue
                    if ehat_via(i, j, a, k) != base:
                        independence = False
                # the canonical map returns the plain matrix unit
                expect = sl_coords(fam.E(i, j, a))
                if ext.u._apply(base) != expect:
                    independence = False

    def ehat_lin(i: int, j: int, a: Vector) -> Vector:
        out: Vector = {}
        for t, x in a.items():
            vec_add_scaled(out, ehat[(i, j, t)], x)
        return out

    rng = Random(seed)
    linearity = True
    offdiag = [(i, j) for i in range(size) for j in range(size) if i != j]
    for _ in range(10):
        i, j = offdiag[rng.randrange(len(offdiag))]
        a = {t: rng.randint(-3, 3) for t in range(dA)}
        a = {t: x for t, x in a.items() if x}
        if not a:
            continue
        k0 = middle(i, j)
        if ehat_via(i, j, a, k0) != ehat_lin(i, j, a):
            linearity = False

    relations = True
    uce_lie = ext.lie
    gens = list(ehat.items())
    for pos, ((i, j, t), g) in enumerate(gens):
        for (p, q, s), g2 in gens[pos:]:
            if j == p and i == q:
                continue  # not a presentation relation
            lhs = _bilinear(uce_lie.table, g, g2)
            # the generator bracket, read off gl and lifted
            # coefficient-for-coefficient
            expected = fam.gl.table[fam.coord(i, j, t)][fam.coord(p, q, s)]
            rhs: Vector = {}
            if j == p:
                rhs = ehat_lin(i, q, fam.entry(expected, i, q))
            elif i == q:
                rhs = ehat_lin(p, j, fam.entry(expected, p, j))
            if lhs != rhs:
                relations = False

    gen = Echelon()
    done, frontier = [], [v for v in ehat.values() if gen.insert(dict(v)) is not None]
    while frontier:
        added = []
        for k, w in enumerate(frontier):
            for v in done + frontier[:k + 1]:
                z = _bilinear(uce_lie.table, v, w)
                if z and gen.insert(dict(z)) is not None:
                    added.append(z)
        done += frontier
        frontier = added
    generation = gen.rank == ext.dim

    return SteinbergReport(
        dim_uce=ext.dim, generators=len(ehat),
        independence_of_k=independence, linearity=linearity,
        relations=relations, generation=generation,
    )


# ------------------------------------------------------------------ embeddings

def corner_embedding(src: MatrixFamily, dst: MatrixFamily) -> GradedLinearMap:
    """Corner inclusion sl(m,n;A) -> sl(m',n';A) (or gl into gl).

    Even positions map to the first even block, odd positions to the
    first odd block, so each odd position moves by dst.m - src.m;
    entries are preserved.  Positions are decoded with src.position and
    encoded with dst.coord.  The coefficient algebras must be equal:
    same basis, table and unit.
    """
    if src.kind != dst.kind or src.kind not in ("sl", "gl"):
        raise ValueError("corner embeddings are provided for sl and gl families")
    A, B = src.coeff, dst.coeff
    if (A.basis, A.table, A.unit) != (B.basis, B.table, B.unit):
        raise ValueError("coefficient algebras must be equal (basis, table and unit)")
    if src.m > dst.m or src.n > dst.n:
        raise ValueError("target must be at least as large in both blocks")
    shift = dst.m - src.m
    cols = []
    for col in src.embedding.columns:
        big: Vector = {}
        for c, x in col.items():
            i, j, t = src.position(c)
            i += shift * src.index_parity(i)
            j += shift * src.index_parity(j)
            big[dst.coord(i, j, t)] = x
        coords = dst.embedding._preimage(big)
        if coords is None:
            raise ValueError("corner image does not land in the target family")
        cols.append(coords)
    return GradedLinearMap(src.algebra.basis, dst.algebra.basis, cols)

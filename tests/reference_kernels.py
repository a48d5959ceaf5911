"""Reference versions of the exact kernels.

These are the rational-arithmetic validators, relation generator and
incremental elimination that the integer kernels in superuce replaced,
kept as they were so that tests can require equal results: the same
violations in the same order, the same relation span, and the same
pivots, residues, certificates and reduced rows.  Beside them are the
row space and rank by this Fraction Echelon, which the integer
row-space routines must match, the preimages of a map by a reduce on it,
which GradedLinearMap.preimage must match, the presentation of the tensor square
by one elimination of the whole relation space, which the weight-block
build_uce must match, and the Fraction dual-cohomology oracle over
every cochain, which the integer weight-0 oracle must match.  The
supercommutator algebra, the subalgebra table, the extension table,
the central quotient, the cocycle extension and the morphism check
here compute every ordered pair (i, j); the package's compute the pairs
i <= j and mirror the rest by super skew-symmetry, and must give the
same cells and the same verdicts.  The
validators here write out their own grading and skew loops, where the
package's read its shared table-law walkers.  The Lie validators here
walk every cyclic class i <= j, i <= k in both orientations and
validate_cocycle every class of every weight; the package's walk one
orientation per unordered triple, and validate_cocycle only weight 0
when it can, and must report the same violations in the
same order.  torus solves the whole off-diagonal system of the torus,
which the package's _torus prunes of the unknowns its one-entry rows
force to 0 first, and must give the same h and weights.  bracket_Eij
is the graded matrix-unit bracket written out
from its formula, against which the gl table of a matrix family, the
bracket the Steinberg check reads, is checked.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Optional

from superuce.algebra import (
    EVEN,
    ODD,
    AssocSuperalgebra,
    CertificateError,
    GradedBasis,
    GradedLinearMap,
    LieSuperalgebra,
    ValidationReport,
    _tensor_relations,
    vector_parity,
)
from superuce.linalg import (
    SparseMatrix,
    Vector,
    _denominator_lcm,
    _tensor,
    kernel_basis,
    quotient_space,
    rank_of_rows,
    vec_add_scaled,
)
from superuce.matrices import MatrixFamily
import unvalidated

ZERO = Fraction(0)
ONE = Fraction(1)


def _check_grading(report: ValidationReport, basis: GradedBasis, table) -> None:
    par = basis.parities
    for i in range(len(basis)):
        for j in range(len(basis)):
            want = (par[i] + par[j]) & 1
            for k in table[i][j]:
                if par[k] != want:
                    report.add(
                        "grading",
                        (basis.labels[i], basis.labels[j]),
                        f"component {basis.labels[k]} has parity {par[k]}, expected {want}",
                    )


def validate_lie(L: LieSuperalgebra) -> ValidationReport:
    """Grading, super skew-symmetry, and the cyclic super Jacobi identity.

    Skew-symmetry gives one violation per failing pair i <= j: at an even
    diagonal [x,x] != 0, elsewhere the mirror cell.  The Jacobi expression
    is invariant under cyclic rotation of (i, j, k), so triples are
    checked once per cyclic class.
    """
    report = ValidationReport()
    basis, table = L.basis, L.table
    d = len(basis)
    par = basis.parities
    labels = basis.labels
    _check_grading(report, basis, table)
    for i in range(d):
        if par[i] == EVEN and table[i][i]:
            report.add("skew", (labels[i], labels[i]), "[x,x] != 0 for even x")
        for j in range(i + 1, d):
            sign = -ONE if par[i] and par[j] else ONE
            expected = {k: -sign * x for k, x in table[i][j].items()}
            if table[j][i] != expected:
                report.add("skew", (labels[i], labels[j]), "[y,x] != -(-1)^{|x||y|}[x,y]")
    if not report.ok:
        return report
    for i in range(d):
        ti = table[i]
        for j in range(i, d):
            tj = table[j]
            for k in range(i, d):
                acc: Vector = {}
                cell = tj[k]
                if cell:
                    s = -ONE if par[i] and par[k] else ONE
                    for t, x in cell.items():
                        vec_add_scaled(acc, ti[t], s * x)
                cell = table[k][i]
                if cell:
                    s = -ONE if par[j] and par[i] else ONE
                    for t, x in cell.items():
                        vec_add_scaled(acc, tj[t], s * x)
                cell = ti[j]
                if cell:
                    s = -ONE if par[k] and par[j] else ONE
                    tk = table[k]
                    for t, x in cell.items():
                        vec_add_scaled(acc, tk[t], s * x)
                if acc:
                    report.add("jacobi", (labels[i], labels[j], labels[k]), "cyclic sum != 0")
    return report


def validate_cocycle(tau) -> ValidationReport:
    """Degree zero, super-alternating (one violation per failing pair
    i <= j, as in validate_lie), and the cyclic cocycle identity on tau's
    source, on every class i <= j, i <= k of every weight."""
    L = tau.source
    report = ValidationReport()
    d = L.dim
    par = L.basis.parities
    tpar = tau.target.parities
    labels = L.basis.labels
    table = L.table
    vals = tau.values
    for i in range(d):
        for j in range(d):
            want = (par[i] + par[j]) & 1
            for k in vals[i][j]:
                if tpar[k] != want:
                    report.add("degree", (labels[i], labels[j]),
                               f"value component has parity {tpar[k]}, expected {want}")
    for i in range(d):
        if par[i] == EVEN and vals[i][i]:
            report.add("alternating", (labels[i], labels[i]), "tau(x,x) != 0 for even x")
        for j in range(i + 1, d):
            sign = -ONE if par[i] and par[j] else ONE
            if vals[j][i] != {k: -sign * x for k, x in vals[i][j].items()}:
                report.add("alternating", (labels[i], labels[j]),
                           "tau(y,x) != -(-1)^{|x||y|} tau(x,y)")
    if not report.ok:
        return report
    for i in range(d):
        for j in range(i, d):
            for k in range(i, d):
                acc: Vector = {}
                for outer, cell, s in ((i, table[j][k], par[i] and par[k]),
                                       (j, table[k][i], par[j] and par[i]),
                                       (k, table[i][j], par[k] and par[j])):
                    for t, x in cell.items():
                        vec_add_scaled(acc, vals[outer][t], -x if s else x)
                if acc:
                    report.add("cocycle", (labels[i], labels[j], labels[k]),
                               "cyclic cocycle sum != 0")
    return report


def validate_assoc(A: AssocSuperalgebra) -> ValidationReport:
    """Grading, associativity on all ordered triples, two-sided even unit."""
    report = ValidationReport()
    basis, table = A.basis, A.table
    d = len(basis)
    labels = basis.labels
    _check_grading(report, basis, table)
    try:
        upar = vector_parity(A.unit, basis)
    except ValueError:
        report.add("unit", ("1",), "unit is not homogeneous")
        upar = None
    if upar == ODD:
        report.add("unit", ("1",), "unit must be even")
    for i in range(d):
        left = A.product(A.unit, {i: ONE})
        right = A.product({i: ONE}, A.unit)
        if left != {i: ONE}:
            report.add("unit", (labels[i],), "1 * x != x")
        if right != {i: ONE}:
            report.add("unit", (labels[i],), "x * 1 != x")
    for i in range(d):
        ti = table[i]
        for j in range(d):
            tij = ti[j]
            tj = table[j]
            for k in range(d):
                lhs: Vector = {}
                for t, x in tij.items():
                    vec_add_scaled(lhs, table[t][k], x)
                rhs: Vector = {}
                for t, x in tj[k].items():
                    vec_add_scaled(rhs, ti[t], x)
                if lhs != rhs:
                    report.add("associativity", (labels[i], labels[j], labels[k]), "(xy)z != x(yz)")
    return report


def torus(L: LieSuperalgebra) -> tuple:
    """(h, weights) of the certified torus as algebra._torus finds it, from
    one kernel_basis of the whole off-diagonal system, and found afresh
    on every call."""
    d = L.dim
    table = L.table
    even = [s for s in range(d) if not L.basis.parities[s]]
    off_diagonal: dict = {}  # (j, k) -> {n: coefficient of b_k in [b_even[n], b_j]}
    for n, s in enumerate(even):
        for j, cell in enumerate(table[s]):
            for k, x in cell.items():
                if k != j:
                    off_diagonal.setdefault((j, k), {})[n] = x
    hs = []
    alphas = []
    for v in kernel_basis(SparseMatrix(list(off_diagonal.values()), len(even))):
        alpha = [sum(x * table[even[n]][j].get(j, 0) for n, x in v.items()) for j in range(d)]
        den = _denominator_lcm(alpha)
        hs.append({even[n]: x * den for n, x in v.items()})
        alphas.append([int(a * den) for a in alpha])
    base = 6 * max((abs(a) for alpha in alphas for a in alpha), default=0) + 1
    h: Vector = {}
    weights = [0] * d
    for t, (ht, alpha) in enumerate(zip(hs, alphas)):
        scale = base ** t
        vec_add_scaled(h, ht, scale)
        for j, a in enumerate(alpha):
            weights[j] += scale * a
    for j, w in enumerate(weights):
        if L.bracket(h, {j: 1}) != ({j: w} if w else {}):
            raise CertificateError(
                f"torus element is not diagonal with weight {w} at basis element {L.basis.labels[j]}"
            )
    return h, weights


def b_relations(L: LieSuperalgebra) -> list:
    """Spanning vectors of the relation space B in L (x) L.

    Tensor coordinate (a, b) is a*dim + b.  Zero vectors are dropped.
    """
    d = L.dim
    par = L.basis.parities
    table = L.table
    rows = []
    for i in range(d):
        for j in range(i, d):
            sign = -ONE if par[i] and par[j] else ONE
            if i == j:
                if sign == ONE:
                    rows.append({i * d + i: ONE})
            else:
                rows.append({i * d + j: ONE, j * d + i: sign})
    for i in range(d):
        if par[i] == 0:
            rows.append({i * d + i: ONE})
    for i in range(d):
        ti = table[i]
        for j in range(i, d):
            tj = table[j]
            tij = ti[j]
            for k in range(i, d):
                cjk = tj[k]
                cki = table[k][i]
                if not (cjk or cki or tij):
                    continue
                row: Vector = {}
                if cjk:
                    s = -ONE if par[i] and par[k] else ONE
                    base = i * d
                    for t, x in cjk.items():
                        c = base + t
                        y = row.get(c, ZERO) + s * x
                        if y:
                            row[c] = y
                        else:
                            del row[c]
                if cki:
                    s = -ONE if par[j] and par[i] else ONE
                    base = j * d
                    for t, x in cki.items():
                        c = base + t
                        y = row.get(c, ZERO) + s * x
                        if y:
                            row[c] = y
                        else:
                            del row[c]
                if tij:
                    s = -ONE if par[k] and par[j] else ONE
                    base = k * d
                    for t, x in tij.items():
                        c = base + t
                        y = row.get(c, ZERO) + s * x
                        if y:
                            row[c] = y
                        else:
                            del row[c]
                if row:
                    rows.append(row)
    return rows


class Echelon:
    """Incremental elimination basis for a growing set of rows.

    Stored rows are normalized (pivot coefficient 1) and forward-reduced:
    every column of a stored row is >= its pivot.  With track=True each
    row carries a certificate expressing it over the inserted originals,
    which makes reduce() return exact membership certificates.
    """

    __slots__ = ("rows", "certs", "track", "_ntags")

    def __init__(self, track: bool = False):
        self.rows: dict = {}  # pivot column -> row
        self.certs: dict = {}  # pivot column -> {tag: coefficient}
        self.track = track
        self._ntags = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple:
        return tuple(sorted(self.rows))

    def reduce(self, vec: Vector):
        """Forward-reduce vec against the stored rows.

        Returns (residue, certificate).  The residue contains no pivot
        columns and residue == vec - sum(cert[t] * original_t) holds
        exactly when tracking is on (certificate is None otherwise).
        """
        v = dict(vec)
        cert: Optional[dict] = {} if self.track else None
        rows = self.rows
        heap = [c for c in v]
        heapq.heapify(heap)
        while heap:
            c = heapq.heappop(heap)
            coef = v.get(c)
            if not coef:
                v.pop(c, None)
                continue
            row = rows.get(c)
            if row is None:
                continue
            del v[c]
            for col, val in row.items():
                if col == c:
                    continue
                y = v.get(col)
                if y is None:
                    v[col] = -coef * val
                    heapq.heappush(heap, col)
                else:
                    y = y - coef * val
                    if y:
                        v[col] = y
                    else:
                        del v[col]
            if cert is not None:
                for t, cv in self.certs[c].items():
                    y = cert.get(t, ZERO) + coef * cv
                    if y:
                        cert[t] = y
                    else:
                        cert.pop(t, None)
        return v, cert

    def insert(self, vec: Vector, tag=None):
        """Add vec to the span.  Returns the new pivot, or None if dependent."""
        if self.track and tag is None:
            tag = self._ntags
        self._ntags += 1
        residue, cert = self.reduce(vec)
        if not residue:
            return None
        p = min(residue)
        coef = residue[p]
        inv = ONE / coef
        row = {c: x * inv for c, x in residue.items()}
        self.rows[p] = row
        if self.track:
            rc = {t: -cv * inv for t, cv in cert.items() if cv}
            rc[tag] = rc.get(tag, ZERO) + inv
            if not rc[tag]:
                del rc[tag]
            self.certs[p] = rc
        return p

    def contains(self, vec: Vector) -> bool:
        residue, _ = self.reduce(vec)
        return not residue

    def rref_rows(self) -> dict:
        """Fully reduced rows as {pivot: row}; one back-substitution pass."""
        done: dict = {}
        for p in sorted(self.rows, reverse=True):
            r = dict(self.rows[p])
            for c in [c for c in r if c != p and c in done]:
                val = r.pop(c)
                if not val:
                    continue
                for c2, v2 in done[c].items():
                    if c2 == c:
                        continue
                    y = r.get(c2, ZERO) - val * v2
                    if y:
                        r[c2] = y
                    else:
                        r.pop(c2, None)
            done[p] = r
        return done


def fraction_echelon_rows(rows) -> dict:
    """RREF of the span of rows by the Fraction Echelon above."""
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    return ech.rref_rows()


def fraction_rank_of_rows(rows) -> int:
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    return ech.rank


def preimages(f: GradedLinearMap, vectors) -> list:
    """For each vector v, the certificate of a reduce of v on the Fraction
    Echelon(track=True) of f's columns (column j tagged j), or None when
    the residue is not 0: the route GradedLinearMap.preimage replaced."""
    ech = Echelon(track=True)
    for col in f.columns:
        ech.insert(col)
    out = []
    for v in vectors:
        residue, cert = ech.reduce(v)
        out.append(None if residue else cert)
    return out


def reference_presentation(L: LieSuperalgebra):
    """L (x) L modulo the relation space B, by one RREF of every row of B."""
    d = L.dim
    return quotient_space(d * d, _tensor_relations(L.table, L.basis.parities))


def h2_cohomology_oracle(L: LieSuperalgebra) -> int:
    """dim of super-alternating 2-cocycles valued in a line, mod coboundaries.

    Unknowns are tau(b_i, b_j) for i < j plus tau(b_i, b_i) for odd i;
    the remaining values are forced by super-alternation.  Cocycle rows
    (the cyclic identity) are enumerated once per cyclic class;
    coboundaries are tau = g([.,.]) for all basis functionals g.  The
    even-line and odd-line sectors decouple by grading, so one global
    elimination counts both, and by field duality the result equals the
    full dim h2(L) for perfect L.  Independent of build_uce by
    construction.
    """
    d = L.dim
    par = L.basis.parities
    table = L.table
    pair_index = {}
    for i in range(d):
        if par[i]:
            pair_index[(i, i)] = len(pair_index)
        for j in range(i + 1, d):
            pair_index[(i, j)] = len(pair_index)
    npairs = len(pair_index)

    def add_value(row: Vector, i: int, t: int, coeff: Fraction) -> None:
        # tau(b_i, b_t) resolved to a signed unknown, or zero
        if i == t:
            if par[i]:
                k = pair_index[(i, i)]
                y = row.get(k, ZERO) + coeff
                if y:
                    row[k] = y
                else:
                    del row[k]
            return
        if i < t:
            k = pair_index[(i, t)]
            s = coeff
        else:
            k = pair_index[(t, i)]
            s = coeff if par[i] and par[t] else -coeff
        y = row.get(k, ZERO) + s
        if y:
            row[k] = y
        else:
            del row[k]

    constraint_rows = []
    for i in range(d):
        for j in range(i, d):
            for k in range(i, d):
                row: Vector = {}
                cell = table[j][k]
                if cell:
                    s = -ONE if par[i] and par[k] else ONE
                    for t, x in cell.items():
                        add_value(row, i, t, s * x)
                cell = table[k][i]
                if cell:
                    s = -ONE if par[j] and par[i] else ONE
                    for t, x in cell.items():
                        add_value(row, j, t, s * x)
                cell = table[i][j]
                if cell:
                    s = -ONE if par[k] and par[j] else ONE
                    for t, x in cell.items():
                        add_value(row, k, t, s * x)
                if row:
                    constraint_rows.append(row)
    dim_z2 = npairs - rank_of_rows(constraint_rows)

    coboundary_rows = []
    for g in range(d):
        row = {}
        for (i, j), k in pair_index.items():
            x = table[i][j].get(g)
            if x:
                row[k] = x
        if row:
            coboundary_rows.append(row)
    dim_b2 = rank_of_rows(coboundary_rows)
    return dim_z2 - dim_b2


def lie_from_assoc(A: AssocSuperalgebra) -> LieSuperalgebra:
    """Supercommutator algebra on every ordered pair, cleaned as the
    public constructor cleans a table."""
    d = A.dim
    par = A.basis.parities
    t = A.table
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            cell = dict(t[i][j])
            sign = -1 if par[i] and par[j] else 1
            vec_add_scaled(cell, t[j][i], -sign)
            row.append(cell)
        table.append(row)
    return unvalidated.lie(A.basis, table)


def subalgebra_from_vectors(parent: LieSuperalgebra, vectors, labels):
    """Subalgebra table from the embedding's preimage of every ordered
    pair's bracket, cleaned as the public constructor cleans a table."""
    basis_par = [vector_parity(v, parent.basis) for v in vectors]
    if None in basis_par:
        raise ValueError("zero vector in subalgebra basis")
    basis = GradedBasis(labels, basis_par)
    embedding = GradedLinearMap(basis, parent.basis, list(vectors))
    if embedding.rank() != len(vectors):
        raise ValueError("subalgebra basis is linearly dependent")
    cells = preimages(embedding, [parent.bracket(v, w) for v in vectors for w in vectors])
    table = []
    for i in range(len(vectors)):
        row = cells[i * len(vectors):(i + 1) * len(vectors)]
        if None in row:
            pair = f"({labels[i]}, {labels[row.index(None)]})"
            raise ValueError(f"span not closed under bracket at pair {pair}")
        table.append(row)
    return unvalidated.lie(basis, table), embedding


def uce_table(ext) -> tuple:
    """The extension table of a UceAlgebra, <[a,b], [c,d]> projected on
    every ordered pair of its basis pairs and cleaned as the public
    constructor cleans a table."""
    L = ext.base
    brackets = [L.table[a][b] for a, b in ext.free_pairs]
    project = ext.presentation.project
    table = [[project(_tensor(w, w2, L.dim)) for w2 in brackets] for w in brackets]
    return unvalidated.lie(ext.lie.basis, table).table


def quotient_by_central(L: LieSuperalgebra, Z) -> LieSuperalgebra:
    """L / Z on the free columns of its presentation, every ordered pair
    of them projected, cleaned as the public constructor cleans a table."""
    pres = quotient_space(L.dim, list(Z.vectors))
    free = pres.free_columns
    basis = GradedBasis([L.basis.labels[c] for c in free], [L.basis.parities[c] for c in free])
    return unvalidated.lie(basis, [[pres.project(L.table[a][b]) for b in free] for a in free])


def extension_table(tau) -> list:
    """The table of L (+) C that extension_from_cocycle builds, on every
    ordered pair: [b_i, b_j] (+) tau(b_i, b_j) for i, j < dim L, and 0
    at every pair with a central element."""
    L = tau.source
    d, c = L.dim, len(tau.target)
    table = [[{} for _ in range(d + c)] for _ in range(d + c)]
    for i in range(d):
        for j in range(d):
            cell = dict(L.table[i][j])
            for k, x in tau.values[i][j].items():
                cell[d + k] = x
            table[i][j] = cell
    return table


def check_morphism(f: GradedLinearMap, L: LieSuperalgebra, M: LieSuperalgebra) -> bool:
    """True iff f is an even Lie morphism, checked on every ordered basis pair."""
    if f.domain != L.basis or f.codomain != M.basis:
        return False
    if not f.is_parity_preserving():
        return False
    cols = f.columns
    for i in range(L.dim):
        fi = cols[i]
        for j in range(L.dim):
            if f.apply(L.table[i][j]) != M.bracket(fi, cols[j]):
                return False
    return True


def bracket_Eij(fam: MatrixFamily, i: int, j: int, a: Vector,
                p: int, q: int, b: Vector) -> Vector:
    """[E_ij(a), E_pq(b)] among matrix units, as a gl vector.

    [E_ij(a), E_pq(b)] = [j == p] (-1)^{|a|(|p|+|q|)} E_iq(ab)
      - (-1)^{|E_ij(a)||E_pq(b)|} [i == q] (-1)^{|b|(|i|+|j|)} E_pj(ba).

    Positions are 0-based; a and b must be homogeneous coefficient
    vectors.  Agrees with the supercommutator bracket of gl; the graded
    tensor product signs vanish for even entries, where this is the
    familiar matrix-unit bracket.
    """
    A = fam.coeff
    pa = vector_parity(a, A.basis) or 0
    pb = vector_parity(b, A.basis) or 0
    out: Vector = {}
    if j == p:
        s1 = -1 if pa and ((fam.index_parity(p) + fam.index_parity(q)) & 1) else 1
        vec_add_scaled(out, fam.E(i, q, A.product(a, b)), s1)
    if i == q:
        px = (fam.index_parity(i) + fam.index_parity(j) + pa) & 1
        py = (fam.index_parity(p) + fam.index_parity(q) + pb) & 1
        sign = -1 if px and py else 1
        s2 = -1 if pb and ((fam.index_parity(i) + fam.index_parity(j)) & 1) else 1
        vec_add_scaled(out, fam.E(p, j, A.product(b, a)), -sign * s2)
    return out

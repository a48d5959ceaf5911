"""Finite-dimensional Lie and associative superalgebras over Q.

An algebra is given by a homogeneous basis (labels plus parities in
{0, 1}) and a dense table of structure constants: table[i][j] is the
sparse vector of the product of basis elements i and j.  The laws are:

* grading: the product of parities i, j lands in parity i + j;
* Lie: super skew-symmetry and the cyclic super Jacobi identity
      (-1)^{|x||z|} [x,[y,z]] + (-1)^{|y||x|} [y,[z,x]]
                                + (-1)^{|z||y|} [z,[x,y]] = 0;
* associative: associativity on all basis triples and a two-sided
  even unit.

Each law has one implementation, shared by every table it governs:
_bilinear evaluates a table (bracket, product), _grading_failures walks
the grading of a product table and the degree of a cocycle's values,
_symmetry_failures walks super skew-symmetry (of a Lie table and of a
cocycle) and supercommutativity (of an associative table), and
_cyclic_failures sums the cyclic identity (Jacobi and cocycle).

This module owns the torus and the weight rule.  _torus finds, once per
Lie algebra, an even h whose ad is diagonal in the basis, with int
weights w; validate_lie finds it after the skew check and keeps it on
the algebra for uce.build_uce.  _keep_torus is the one place a torus is
stored, once it certifies [h, b_j] = w_j b_j for every basis element:
for _torus, and for the gl and sl matrix families over a
supercommutative coefficient algebra, which bring their diagonal
torus (matrices.build_family), so that _torus solves no system for
them.  Under w a cyclic class (i, j, k) can be
nonzero only when its total weight w_i + w_j + w_k is the weight of a
nonzero cell of the table it reads, so every walk of the cyclic
identity is told the admissible total weights (_cyclic_classes): the
weights of the cells, once they are certified homogeneous, for Jacobi;
the pair sums of a cocycle's support for the cocycle identity; {0} for
the weight-0 relations of the tensor square.

They are checked where data enters the package: the public
constructors LieSuperalgebra and AssocSuperalgebra, which every algebra
a caller builds and every algebra file goes through, pass every table
cell (_clean_table) and the unit through linalg._clean_vector, the one
gate for indices and entries, and validate the result, raising
InvalidAlgebraError with the validator's report.  GradedLinearMap
columns, the arguments of the public evaluators (bracket, product,
apply, preimage) and Subspace vectors pass the same gate; the package
itself calls the ungated _bilinear, _apply and _preimage.  An algebra
the package derives from a validated one (supercommutator algebra,
matrix algebra, subalgebra, central quotient, extension) satisfies the
laws by construction, and the package builds each of its cells under
the scalar rule; it is built by LieSuperalgebra._derived or
AssocSuperalgebra._derived, the one path with neither step.  The
certificates of each construction (closure, centrality, morphism and
bijectivity checks) always run.

A Lie table is super skew-symmetric, [y,x] = -(-1)^{|x||y|}[x,y].  So
every derived Lie table (supercommutator algebra, subalgebra, central
quotient, universal central extension, cocycle extension) is built by
_lie_from_pairs, the one package caller of LieSuperalgebra._derived: it
computes the cells i <= j and writes each cell (j, i) as the
sign-flipped copy, so the law _derived does not check holds by
construction.  Every reader of a trusted table reads the pairs i <= j
only: check_morphism, and the bracket span of derived_subalgebra and
is_perfect.  Under a certified torus [b_i, b_j] has weight w_i + w_j,
so a pair whose weight sum is the weight of no nonzero vector has a 0
cell.  _reachable_pairs walks the other pairs i <= j, in row order, and
is the one loop of _lie_from_pairs, of check_morphism and of
_pair_relations (the pairs of weight sum 0):
subalgebra_from_vectors solves only the pairs of a weight of its
parent, the extension table (uce.UceAlgebra.lie) projects only the
pairs of a weight of the extension, and check_morphism compares only
the pairs of a weight sum reachable on either side.  _column_weights is the one reader of a stored torus: it
weighs the vectors of a subalgebra, the columns of a morphism and sl's
vectors in gl by the torus of the algebra they lie in.  With no torus,
or a vector that is no weight vector, every weight is 0 and every pair
is walked.

Everything is immutable after construction, apart from private caches
filled on first use: the echelon a GradedLinearMap builds of its
columns and the certificates of its pivots, and the torus _torus keeps
on a LieSuperalgebra.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence

from .linalg import (
    Echelon,
    SparseMatrix,
    Vector,
    _clean_vector,
    _denominator_lcm,
    _rational,
    echelon_rows,
    kernel_basis,
    quotient_space,
    rank_of_rows,
    vec_add_scaled,
)

EVEN = 0
ODD = 1


class ValidationReport:
    """Collected law violations; empty means valid."""

    __slots__ = ("violations",)

    def __init__(self):
        self.violations = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, law: str, where: tuple, detail: str) -> None:
        self.violations.append((law, where, detail))

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        lines = [f"{law} at {where}: {detail}" for law, where, detail in self.violations[:20]]
        if len(self.violations) > 20:
            lines.append(f"... and {len(self.violations) - 20} more")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"ValidationReport({len(self.violations)} violations)"


class CertificateError(AssertionError):
    """A correctness certificate failed: a computed object does not have
    the property its construction guarantees.  The message names the
    object, pair or triple at fault.  Raised explicitly, so it survives
    python -O."""


class InvalidAlgebraError(ValueError):
    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report


class GradedBasis:
    """Ordered homogeneous basis: unique labels, each parity the int 0 or 1."""

    __slots__ = ("labels", "parities", "_index")

    def __init__(self, labels: Sequence[str], parities: Sequence[int]):
        self.labels = tuple(str(x) for x in labels)
        self.parities = tuple(parities)
        if len(self.labels) != len(self.parities):
            raise ValueError("labels and parities differ in length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("basis labels must be unique")
        for p in self.parities:
            if type(p) is not int or p not in (EVEN, ODD):
                raise ValueError(f"parity must be the int 0 or 1, got {p!r}")
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self._index[label]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedBasis)
            and self.labels == other.labels
            and self.parities == other.parities
        )

    def __hash__(self):
        return hash((self.labels, self.parities))

    def __repr__(self) -> str:
        return f"GradedBasis({len(self.labels)} elements)"


def _clean_table(basis: GradedBasis, table, n: Optional[int] = None, site: str = "table cell") -> tuple:
    """A d x d table over basis, d = len(basis), as tuples of cells, each
    passed through linalg._clean_vector into a space of dimension n
    (default d): the product table of either algebra class, or the values
    of a Cocycle2.  A table that is not d rows of d cells raises
    ValueError, as does a bad cell, named (site (label_i, label_j))."""
    labels = basis.labels
    d = len(labels)
    if len(table) != d or any(len(row) != d for row in table):
        raise ValueError(f"{site}s: expected {d} rows of {d} cells")
    n = d if n is None else n
    return tuple(tuple(_clean_vector(cell, n, f"{site} ({labels[i]}, {labels[j]})")
                       for j, cell in enumerate(row))
                 for i, row in enumerate(table))


def vector_parity(v: Vector, basis: GradedBasis) -> Optional[int]:
    """Parity of a homogeneous vector, None for 0, ValueError if mixed."""
    par = None
    for i in v:
        p = basis.parities[i]
        if par is None:
            par = p
        elif par != p:
            raise ValueError("vector is not homogeneous")
    return par


class LieSuperalgebra:
    """Lie superalgebra from structure constants, cleaned and validated at
    construction: InvalidAlgebraError carries validate_lie's report of a
    table that breaks a law.  Its certified torus (see _torus) is found
    by that validation, brought by a gl or sl matrix family, or found by
    uce.build_uce for another derived algebra, and kept.  The table is
    read-only: the zero cells of a derived table may be one shared empty
    dict (_lie_from_pairs), and the constructor copies every cell, so an
    algebra built from another's table shares no cell with it."""

    __slots__ = ("basis", "table", "_torus")

    def __init__(self, basis: GradedBasis, table):
        self.basis = basis
        self.table = _clean_table(basis, table)
        self._torus = None
        report = validate_lie(self)
        if not report.ok:
            raise InvalidAlgebraError(report)

    @classmethod
    def _derived(cls, basis: GradedBasis, table) -> "LieSuperalgebra":
        """An algebra the package derived from a trusted one.  Every cell
        was built under the scalar rule, with no stored zero and every
        index in range, so the rows only become tuples: no _clean_table,
        no validation."""
        alg = object.__new__(cls)
        alg.basis = basis
        alg.table = tuple(tuple(row) for row in table)
        alg._torus = None
        return alg

    @property
    def dim(self) -> int:
        return len(self.basis)

    def bracket(self, u: Vector, v: Vector) -> Vector:
        """Bilinear extension of the structure constants; u and v pass
        linalg._clean_vector first.  The package calls _bilinear."""
        d = self.dim
        return _bilinear(self.table, _clean_vector(u, d, "bracket"), _clean_vector(v, d, "bracket"))

    def __repr__(self) -> str:
        return f"LieSuperalgebra(dim={self.dim})"


class AssocSuperalgebra:
    """Unital associative superalgebra from structure constants, cleaned
    and validated at construction as LieSuperalgebra is, by
    validate_assoc."""

    __slots__ = ("basis", "table", "unit")

    def __init__(self, basis: GradedBasis, table, unit: Vector):
        self.basis = basis
        self.table = _clean_table(basis, table)
        self.unit = _clean_vector(unit, len(basis), "unit")
        report = validate_assoc(self)
        if not report.ok:
            raise InvalidAlgebraError(report)

    @classmethod
    def _derived(cls, basis: GradedBasis, table, unit: Vector) -> "AssocSuperalgebra":
        """As LieSuperalgebra._derived, with the unit stored as given."""
        alg = object.__new__(cls)
        alg.basis = basis
        alg.table = tuple(tuple(row) for row in table)
        alg.unit = unit
        return alg

    @property
    def dim(self) -> int:
        return len(self.basis)

    def product(self, u: Vector, v: Vector) -> Vector:
        """As LieSuperalgebra.bracket, for the product."""
        d = self.dim
        return _bilinear(self.table, _clean_vector(u, d, "product"), _clean_vector(v, d, "product"))

    def is_supercommutative(self) -> bool:
        """ab == (-1)^{|a||b|} ba on all basis pairs."""
        return not any(_symmetry_failures(self.table, self.basis.parities, 1))

    def __repr__(self) -> str:
        return f"AssocSuperalgebra(dim={self.dim})"


def _bilinear(table, u: Vector, v: Vector) -> Vector:
    """The bilinear extension of a table of cells: the sum of
    u_i v_j table[i][j] over the support of u and v."""
    out: Vector = {}
    for i, x in u.items():
        row = table[i]
        for j, y in v.items():
            cell = row[j]
            if cell:
                vec_add_scaled(out, cell, x * y)
    return out


def _grading_failures(table, par, target_par):
    """(i, j, k, want) for each component k of a cell table[i][j] whose
    parity target_par[k] is not want = |i| + |j|, in row order: the
    grading of a product table (target_par is par) or the degree of a
    cocycle's values (target_par is its target's)."""
    d = len(par)
    for i in range(d):
        row = table[i]
        for j in range(d):
            want = (par[i] + par[j]) & 1
            for k in row[j]:
                if target_par[k] != want:
                    yield i, j, k, want


def _symmetry_failures(table, par, sign):
    """The pairs i <= j, in order, where cell (j, i) is not
    sign * (-1)^{|i||j|} times cell (i, j).  sign -1 is super
    skew-symmetry, which also fails at a nonzero cell (i, i) of even i;
    sign +1 is supercommutativity, which fails there for odd i."""
    d = len(par)
    for i in range(d):
        row = table[i]
        for j in range(i, d):
            s = -sign if par[i] and par[j] else sign
            if table[j][i] != {k: s * x for k, x in row[j].items()}:
                yield i, j


def _check_grading(report: ValidationReport, basis: GradedBasis, table) -> None:
    labels, par = basis.labels, basis.parities
    for i, j, k, want in _grading_failures(table, par, par):
        report.add("grading", (labels[i], labels[j]),
                   f"component {labels[k]} has parity {par[k]}, expected {want}")


def _integral_table(table) -> tuple:
    """(int_table, D): D is the LCM of all denominators in the table and
    int_table == D * table cell by cell, with int entries.  A table with
    D == 1 has only int entries (the scalar rule) and is returned itself;
    no caller writes to it."""
    den = _denominator_lcm(x for row in table for cell in row for x in cell.values())
    if den == 1:
        return table, 1
    int_table = tuple(
        tuple({k: x.numerator * (den // x.denominator) for k, x in cell.items()} for cell in row)
        for row in table
    )
    return int_table, den


def _cyclic_classes(itable, par, weights=None, skew=False, totals=(0,), S=None):
    """The cyclic identity of a product table, one cyclic class at a time.

    For each basis triple (i, j, k) with i <= j and i <= k whose cells
    [j,k], [k,i], [i,j] are not all empty, yields (i, j, k, terms), where
    terms are the three (sign, outer index, cell) of

        (-1)^{|i||k|} i (x) [j,k] + (-1)^{|j||i|} j (x) [k,i]
                                  + (-1)^{|k||j|} k (x) [i,j].

    The Jacobi and cocycle identities and the cyclic relations of the
    tensor square all read this sum; it is invariant under cyclic
    rotation, so each class is visited once.

    With skew=True the table is trusted to be super skew-symmetric.  Each
    term of the sum of (i, k, j) is then -(-1)^{|i||j|+|j||k|+|k||i|}
    times the term with the same outer index in the sum of (i, j, k), so
    only k >= j is visited: one representative per unordered triple.  The
    Lie-table callers pass it; the associative relations of cyclic.py do
    not, as a product table is not skew.

    Given int weights of the basis elements, only the classes whose total
    weight weights[i] + weights[j] + weights[k] is in totals are visited
    (the weight rule).  No weights, or totals None, means every weight 0
    and totals (0,): every class is visited.  The admissible k of each
    pair sum s are listed once, ascending, from the groups of basis
    elements by weight (_by_weight), and each pair bisects its list; with
    totals {0} the list of s is the group of weight -s itself.

    Given a list S of basis indices (skew tables only; uce passes a
    generating set, see _generating_set), only the unordered triples
    that contain an element of S are visited, each once, as (s, j, k)
    with s its first element in S's order, j <= k, and neither j nor k
    an earlier element of S.  Without S the first indices are
    0, 1, ..., d - 1, and the walk is the one above.
    """
    d = len(itable)
    if weights is None or totals is None:
        weights, totals = [0] * d, (0,)
    groups: dict = {}  # pair sum s -> the groups of weight t - s, t in totals
    for wk, group in _by_weight(weights).items():
        for t in totals:
            groups.setdefault(t - wk, []).append(group)
    admissible = {s: gs[0] if len(gs) == 1 else sorted(k for g in gs for k in g)
                  for s, gs in groups.items()}
    rest = list(range(d))  # the indices no earlier first index has taken
    for i in range(d) if S is None else S:
        ti = itable[i]
        pi = par[i]
        for j in rest:
            tj = itable[j]
            cij = ti[j]
            pj = par[j]
            sji = -1 if pj and pi else 1
            group = admissible.get(weights[i] + weights[j], ())
            for k in group[bisect_left(group, j if skew else i):]:
                cjk = tj[k]
                cki = itable[k][i]
                if cjk or cki or cij:
                    pk = par[k]
                    yield i, j, k, (
                        (-1 if pi and pk else 1, i, cjk),
                        (sji, j, cki),
                        (-1 if pk and pj else 1, k, cij),
                    )
        rest.remove(i)
        if S is not None:  # i leaves the lists of k too; without S, k >= j > i
            for t in totals:
                group = admissible.get(t - weights[i], ())
                if i in group:
                    group.remove(i)


def _cyclic_failures(itable, values, par, weights, totals) -> list:
    """The cyclic classes whose identity fails: the cyclic sum of
    _cyclic_classes over the super skew-symmetric int table itable,

        sum over its terms (s, outer, cell) of s * x * values[outer][t]
                                              for each t -> x in cell,

    is not zero.  values is a table of cells indexed like itable: itable
    itself for the Jacobi identity, a cocycle's values for the cocycle
    identity.  The walk visits one representative (i, j, k), j <= k, per
    unordered triple; the sum of the mirror (i, k, j) is +-1 times it, so
    each failing j != k class is returned with its mirror, and the list
    is sorted: the classes a walk over both orientations finds failing,
    in the order it finds them.  Given weights, only the classes whose
    total weight is in totals are evaluated (see _cyclic_classes).
    """
    failed = []
    for i, j, k, terms in _cyclic_classes(itable, par, weights, True, totals):
        acc: dict = {}
        for s, outer, cell in terms:
            vo = values[outer]
            for t, x in cell.items():
                x *= s
                for r, y in vo[t].items():
                    acc[r] = acc.get(r, 0) + x * y
        if any(acc.values()):
            failed.append((i, j, k))
    return sorted(failed + [(i, k, j) for i, j, k in failed if j != k])


def _tensor_relations(table, par, weights=None, skew=False, S=None) -> list:
    """Int spanning rows of the relation space in V (x) V of a product
    table on V: the pair rows (_pair_relations), then the cyclic rows
    (_cyclic_relations).

    Tensor coordinate (a, b) is a*dim + b; zero rows are dropped.  Given
    int weights grading the table (see _cyclic_classes), every row is
    homogeneous and only the rows of weight 0 are emitted: they span the
    relations inside the weight-0 part of V (x) V.  Given S (a skew table),
    only the cyclic rows of the triples that contain an element of S.
    """
    return _pair_relations(par, weights) + _cyclic_relations(table, par, weights, skew, S)


def _pair_relations(par, weights=None) -> list:
    """One pair row per basis pair a <= b, each +-1.

    For a < b the pair row is a (x) b + (-1)^{|a||b|} b (x) a.  For a = b
    it is the diagonal row a (x) a when a is even (half the pair sum, and
    the quadratic relation too) and absent when a is odd (the sum is 0),
    so no pair or diagonal row is emitted twice.  Given weights, only the
    rows of weight 0: the pairs _reachable_pairs walks for the sums {0}.
    """
    d = len(par)
    rows = []
    for i, j in _reachable_pairs(weights or [0] * d, {0}):
        sign = -1 if par[i] and par[j] else 1
        if i == j:
            if sign == 1:
                rows.append({i * d + i: 1})
        else:
            rows.append({i * d + j: 1, j * d + i: sign})
    return rows


def _cyclic_relations(table, par, weights=None, skew=False, S=None) -> list:
    """One cyclic row per cyclic class of the table (see _cyclic_classes),
    D times the rational one, for D the LCM of the table's denominators.

    With skew=True (a Lie table) the rows are those of one representative
    per unordered triple: the row of (i, k, j) is +-1 times that of
    (i, j, k), so the span is the same.  The default walks both
    orientations, as a product table needs.  Given weights, only the
    classes of weight 0; given S, only those of the triples that meet S.
    """
    d = len(par)
    rows = []
    itable, _ = _integral_table(table)
    for _, _, _, terms in _cyclic_classes(itable, par, weights, skew, S=S):
        row: dict = {}
        for s, outer, cell in terms:
            base = outer * d
            for t, x in cell.items():
                c = base + t
                row[c] = row.get(c, 0) + s * x
        row = {c: x for c, x in row.items() if x}
        if row:
            rows.append(row)
    return rows


def _pair_basis(basis: GradedBasis, free_columns, brackets: tuple) -> tuple:
    """(pairs, GradedBasis) of a quotient of V (x) V on its free tensor
    columns: free column q is a*dim + b for (a, b) = pairs[q], and its
    basis element, of parity |a| + |b|, is labelled open la,lb close for
    (open, close) = brackets.  Labels with a comma can make two of these
    equal; the later ones, in column order, are primed until unused, as
    no label open la,lb close ends in a prime."""
    d = len(basis)
    labels, par = basis.labels, basis.parities
    left, right = brackets
    pairs = tuple(divmod(c, d) for c in free_columns)
    names, used = [], set()
    for a, b in pairs:
        name = f"{left}{labels[a]},{labels[b]}{right}"
        while name in used:
            name += "'"
        used.add(name)
        names.append(name)
    return pairs, GradedBasis(names, [(par[a] + par[b]) & 1 for a, b in pairs])


def _torus(L: LieSuperalgebra) -> tuple:
    """(h, weights): an even h with ad h diagonal in the basis and the int
    weights with [h, b_j] = weights[j] * b_j, certified: h is re-checked
    to be diagonal with these weights, and CertificateError names the
    basis element where it is not.

    The torus T, all even elements with ad h diagonal, is the kernel of
    one exact system in the coefficients of h over the even basis
    elements: every off-diagonal coefficient of [h, b_j] vanishes.  Most
    rows have one entry, which forces that coefficient to 0; such
    unknowns are dropped, repeatedly, until no row has one entry, and
    kernel_basis solves the rest.  Every kernel vector is 0 at a dropped
    unknown, so the free columns, in their order, and the canonical
    kernel basis are those of the whole system.  Each kernel basis
    vector h_t is scaled so that its weights alpha_j(h_t) are ints.  With
    M the largest |alpha_j(h_t)| and B = 6M + 1, the regular element is
    h = sum_t B^t h_t, whose weight w_j = sum_t B^t alpha_j(h_t) encodes
    the tuple (alpha_j(h_t))_t in balanced base B.  A sum of up to three
    such weights is 0 only when the tuples sum to 0, and two sums of two
    are equal only when their tuples are, so h splits L (x) L into the
    weight blocks of the whole torus.  A trivial torus gives all weights
    0.  The blocks are correct for any base, since the weights are h's
    own eigenvalues; the base only makes them as fine as the torus
    allows.

    The certified pair is kept on L and returned by every later call, so
    validate_lie, build_uce and validate_cocycle find it once per
    algebra; callers only read it.
    """
    if L._torus is not None:
        return L._torus
    d = L.dim
    table = L.table
    even = [s for s in range(d) if not L.basis.parities[s]]
    off_diagonal: dict = {}  # (j, k) -> {n: coefficient of b_k in [b_even[n], b_j]}
    for n, s in enumerate(even):
        for j, cell in enumerate(table[s]):
            for k, x in cell.items():
                if k != j:
                    off_diagonal.setdefault((j, k), {})[n] = x
    rows = list(off_diagonal.values())
    dropped: set = set()
    while forced := {n for row in rows if len(row) == 1 for n in row}:
        dropped |= forced
        rows = [r for row in rows if (r := {n: x for n, x in row.items() if n not in forced})]
    hs, alphas = [], []
    for v in kernel_basis(SparseMatrix(rows, len(even))):
        if not dropped.isdisjoint(v):
            continue  # a dropped unknown is in no row: its vector is its own unit vector
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
    return _keep_torus(L, h, weights)


def _keep_torus(L: LieSuperalgebra, h: Vector, weights: list) -> tuple:
    """Keep (h, weights) as the torus of L once h is certified: one bracket
    per basis element, [h, b_j] = weights[j] * b_j, and CertificateError
    names the basis element where it is not.  The one place a torus is
    stored, for _torus and for the matrix families, which know theirs."""
    for j, w in enumerate(weights):
        if _bilinear(L.table, h, {j: 1}) != ({j: w} if w else {}):
            raise CertificateError(
                f"torus element is not diagonal with weight {w} at basis element {L.basis.labels[j]}"
            )
    L._torus = (h, weights)
    return L._torus


def _cell_weights(values, weights, target=None) -> Optional[set]:
    """The weights w_i + w_j of the nonzero cells (i, j) of a table of
    values, under int weights of the basis: a cyclic class reads a
    nonzero value only if its total weight is one of them (the weight
    rule of _cyclic_failures).  Given the weights of the values' own
    basis as target (a bracket table), every cell is certified to be
    homogeneous, each component k of cell (i, j) of weight w_i + w_j,
    and None is returned when one is not."""
    reached = set()
    for wi, row in zip(weights, values):
        for wj, cell in zip(weights, row):
            if cell:
                w = wi + wj
                if target is not None and any(target[k] != w for k in cell):
                    return None
                reached.add(w)
    return reached


def _column_weights(columns, M) -> tuple:
    """(ws, sums): the weight of each column (a vector of M) under the
    certified torus of M, 0 for a zero column, and the set of M's
    weights.  The one reader of a stored torus.  When M has none, or a
    column is not homogeneous, every weight is 0 and sums is {0}, so
    _reachable_pairs walks every pair."""
    if M._torus is not None:
        wM = M._torus[1]
        sets = [{wM[k] for k in col} for col in columns]
        if all(len(ws) < 2 for ws in sets):
            return [min(ws, default=0) for ws in sets], set(wM)
    return [0] * len(columns), {0}


def _by_weight(weights) -> dict:
    """weight -> the basis indices of that weight, ascending; the weights
    in the order they first occur."""
    groups: dict = {}
    for k, w in enumerate(weights):
        groups.setdefault(w, []).append(k)
    return groups


def _generating_set(table, weights) -> list:
    """S, basis indices whose closure is the whole algebra: the least
    subspace that contains S and is closed under ad s for every s in S,
    the subalgebra S generates (it is spanned by the brackets
    [s_1, [s_2, ..., s_n]]).  The int weights grade the trusted table,
    as the torus does.

    The basis is walked greedily, the elements of nonzero weight first in
    increasing |w|, then those of weight 0, and b joins S when it is not
    yet in the closure.  The closure grows in one Echelon per weight, and
    every element of S acts on each new closure vector, b on the vectors
    from b on.  b need not act on the older closure C: with N the span of
    the ad y_1 ... ad y_n b, y_i in S (b among them), C + N is a
    subalgebra (ad c, for c in C, and ad x, for x in N, are sums of
    products of the ad s, s in S, which keep N), so it is the closure.
    A bracket whose weight is no weight of a basis element, or whose
    weight space the closure already spans, is skipped, and the walk
    stops at rank d: at most d inserts and |S| * d brackets.
    """
    d = len(table)
    sizes = {w: len(g) for w, g in _by_weight(weights).items()}
    closure = {w: Echelon() for w in sizes}
    gens, spans, todo = [], [], []  # S; the closure's (vector, weight); (s, vector, weight) to bracket

    def insert(v, w):
        if closure[w].insert(v) is not None:
            spans.append((v, w))
            todo.extend((s, v, w) for s in gens)

    for b in sorted(range(d), key=lambda b: (not weights[b], abs(weights[b]))):
        if len(spans) == d:
            break
        if closure[weights[b]].contains({b: 1}):
            continue
        gens.append(b)
        insert({b: 1}, weights[b])
        while todo and len(spans) < d:
            s, v, w = todo.pop()
            w += weights[s]
            if w in sizes and closure[w].rank < sizes[w]:
                insert(_bilinear(table, {s: 1}, v), w)
    return gens


def _reachable_pairs(weights, sums):
    """The pairs i <= j, in row order, whose weight sum
    weights[i] + weights[j] is in sums.  Each unordered pair of weights
    w, v is tested once; the partners of w, every j of a weight v with
    w + v in sums, are listed once, ascending, and each i of weight w
    bisects its list.  All weights 0 and sums {0} give every pair."""
    by_weight = _by_weight(weights)
    ws = list(by_weight)
    partners: dict = {w: [] for w in ws}
    for a, w in enumerate(ws):
        for v in [v for v in ws[a:] if w + v in sums]:
            partners[w] += by_weight[v]
            partners[v] += by_weight[w] if v != w else []
    for js in partners.values():
        js.sort()
    for i, w in enumerate(weights):
        js = partners[w]
        for j in js[bisect_left(js, i):]:
            yield i, j


def validate_lie(L: LieSuperalgebra) -> ValidationReport:
    """Grading, super skew-symmetry, and the cyclic super Jacobi identity.

    Grading and skew-symmetry are the walks _grading_failures and
    _symmetry_failures (sign -1), one violation per failing cell
    component and per failing pair i <= j.  The Jacobi expression is the
    cyclic sum of _cyclic_failures with the table itself as values: once
    skew-symmetry holds it is evaluated once per unordered triple, and
    each failing triple is reported with its mirror, in the order a walk
    over every class i <= j, i <= k gives.
    It is homogeneous of degree 2 in the structure constants, so it is
    evaluated in ints on the table scaled by the LCM D of its
    denominators: each sum is D^2 times the rational one and vanishes
    exactly when that one does.

    Only the classes that can fail are summed.  The certified torus of
    L (_torus, kept on L for build_uce) grades the basis by int weights,
    and _cell_weights certifies that every cell is homogeneous.  A term
    s * x * [b_outer, b_t] of the class (i, j, k) then has
    w_t = w_j + w_k, so it is nonzero only when the total weight
    w_i + w_j + w_k is the weight of a nonzero cell; the other classes
    vanish term by term.  When a cell is not homogeneous every class is
    summed, so the violations are always those of the full walk.
    """
    report = ValidationReport()
    basis, table = L.basis, L.table
    labels, par = basis.labels, basis.parities
    _check_grading(report, basis, table)
    for i, j in _symmetry_failures(table, par, -1):
        report.add("skew", (labels[i], labels[j]),
                   "[x,x] != 0 for even x" if i == j else "[y,x] != -(-1)^{|x||y|}[x,y]")
    if not report.ok:
        return report
    _, weights = _torus(L)
    itable, _ = _integral_table(table)
    for i, j, k in _cyclic_failures(itable, itable, par, weights, _cell_weights(table, weights, weights)):
        report.add("jacobi", (labels[i], labels[j], labels[k]), "cyclic sum != 0")
    return report


def validate_assoc(A: AssocSuperalgebra) -> ValidationReport:
    """Grading, associativity on all ordered triples, two-sided even unit.

    Associativity is checked in ints on the table scaled by the LCM of
    its denominators, as in validate_lie: (xy)z - x(yz) is homogeneous
    of degree 2 in the structure constants.
    """
    report = ValidationReport()
    basis, table = A.basis, A.table
    d, labels = len(basis), basis.labels
    _check_grading(report, basis, table)
    try:
        upar = vector_parity(A.unit, basis)
    except ValueError:
        report.add("unit", ("1",), "unit is not homogeneous")
        upar = None
    if upar == ODD:
        report.add("unit", ("1",), "unit must be even")
    for i in range(d):
        left = _bilinear(A.table, A.unit, {i: 1})
        right = _bilinear(A.table, {i: 1}, A.unit)
        if left != {i: 1}:
            report.add("unit", (labels[i],), "1 * x != x")
        if right != {i: 1}:
            report.add("unit", (labels[i],), "x * 1 != x")
    itable, _ = _integral_table(table)
    for i in range(d):
        ti = itable[i]
        for j in range(d):
            tij = ti[j]
            tj = itable[j]
            for k in range(d):
                tjk = tj[k]
                if not (tij or tjk):
                    continue
                acc: dict = {}
                for t, x in tij.items():
                    for r, y in itable[t][k].items():
                        acc[r] = acc.get(r, 0) + x * y
                for t, x in tjk.items():
                    for r, y in ti[t].items():
                        acc[r] = acc.get(r, 0) - x * y
                if any(acc.values()):
                    report.add("associativity", (labels[i], labels[j], labels[k]), "(xy)z != x(yz)")
    return report


def _lie_from_pairs(basis: GradedBasis, cell, weights=None, sums=(0,)) -> LieSuperalgebra:
    """The Lie superalgebra a validated construction derives: cell(i, j)
    is its bracket [b_i, b_j], built under the scalar rule and called once
    for each pair i <= j of _reachable_pairs(weights, sums), in row order,
    and cell (j, i) is written as -(-1)^{|i||j|} times it, so the table is
    super skew-symmetric by construction.  Every other cell is 0, as the
    caller knows that [b_i, b_j] has weight w_i + w_j and that no nonzero
    vector has a weight outside sums; it is an empty dict shared along
    its row, as no table is written to once built.  With no weights every
    weight is 0 and every pair is computed.  The one package caller of
    LieSuperalgebra._derived."""
    par = basis.parities
    d = len(par)
    table = [[{}] * d for _ in range(d)]
    for i, j in _reachable_pairs(weights or [0] * d, sums):
        c = table[i][j] = cell(i, j)
        if j > i and c:
            table[j][i] = dict(c) if par[i] and par[j] else {k: -x for k, x in c.items()}
    return LieSuperalgebra._derived(basis, table)


def lie_from_assoc(A: AssocSuperalgebra) -> LieSuperalgebra:
    """Supercommutator algebra: [x,y] = xy - (-1)^{|x||y|} yx.

    Built by _lie_from_pairs.  A sum of two Fractions that is integral is
    stored as an int.
    """
    par = A.basis.parities
    t = A.table

    def cell(i, j):
        sign = -1 if par[i] and par[j] else 1
        out = dict(t[i][j])
        for k, x in t[j][i].items():
            y = out.get(k, 0) - sign * x
            if y:
                out[k] = y if type(y) is int else _rational(y)
            else:
                del out[k]
        return out

    return _lie_from_pairs(A.basis, cell)


class GradedLinearMap:
    """Even linear map between graded spaces, stored column-wise; each
    column passes linalg._clean_vector, named by its domain label.  rank()
    reads one tracked Echelon of the columns, built on first use, and
    preimage() the certificates of its pivots, each made on first use."""

    __slots__ = ("domain", "codomain", "columns", "_echelon", "_certs")

    def __init__(self, domain: GradedBasis, codomain: GradedBasis, columns: Sequence[Vector]):
        if len(columns) != len(domain):
            raise ValueError("one column per domain basis element required")
        n = len(codomain)
        self.domain = domain
        self.codomain = codomain
        self.columns = tuple(_clean_vector(col, n, f"column {label}")
                             for label, col in zip(domain.labels, columns))
        self._echelon = None
        self._certs = {}

    @classmethod
    def identity(cls, basis: GradedBasis) -> "GradedLinearMap":
        return cls(basis, basis, [{i: 1} for i in range(len(basis))])

    @classmethod
    def zero(cls, domain: GradedBasis, codomain: GradedBasis) -> "GradedLinearMap":
        return cls(domain, codomain, [{} for _ in range(len(domain))])

    def apply(self, v: Vector) -> Vector:
        """The image of v, which passes linalg._clean_vector first."""
        return self._apply(_clean_vector(v, len(self.domain), "apply"))

    def _apply(self, v: Vector) -> Vector:
        """apply to a vector the package built, ungated."""
        out: Vector = {}
        for j, x in v.items():
            vec_add_scaled(out, self.columns[j], x)
        return out

    def compose(self, inner: "GradedLinearMap") -> "GradedLinearMap":
        """self after inner."""
        if inner.codomain != self.domain:
            raise ValueError("composition domain mismatch")
        cols = [self._apply(c) for c in inner.columns]
        return GradedLinearMap(inner.domain, self.codomain, cols)

    def is_parity_preserving(self) -> bool:
        dpar = self.domain.parities
        cpar = self.codomain.parities
        for j, col in enumerate(self.columns):
            for k in col:
                if cpar[k] != dpar[j]:
                    return False
        return True

    def matrix(self) -> SparseMatrix:
        rows: list = [dict() for _ in range(len(self.codomain))]
        for j, col in enumerate(self.columns):
            for k, x in col.items():
                rows[k][j] = x
        return SparseMatrix(rows, len(self.domain))

    def _columns_echelon(self) -> Echelon:
        if self._echelon is None:
            ech = Echelon(track=True)  # column j is tagged j
            for col in self.columns:
                ech.insert(col)
            self._echelon = ech
        return self._echelon

    def preimage(self, v: Vector) -> Optional[Vector]:
        """A domain vector x with apply(x) == v, or None when v is not in
        the image; v passes linalg._clean_vector first.

        Forward reduction against the echelon of the columns is a
        triangular solve in the pivot coordinates, so its certificate is
        linear in v restricted to the pivots: x = sum_p v_p cert(e_p).
        v is in the image exactly when apply(x) == v (residue 0), and x
        is then the elimination's certificate, under the scalar rule."""
        return self._preimage(_clean_vector(v, len(self.codomain), "preimage"))

    def _preimage(self, v: Vector) -> Optional[Vector]:
        """preimage of a vector the package built, ungated."""
        ech, certs = self._columns_echelon(), self._certs
        x: Vector = {}
        for p, y in v.items():
            if p in ech.rows:
                if p not in certs:
                    certs[p] = ech.reduce({p: 1})[1]
                vec_add_scaled(x, certs[p], y)
        x = {j: y if type(y) is int else _rational(y) for j, y in x.items()}
        return x if self._apply(x) == v else None

    def rank(self) -> int:
        return self._columns_echelon().rank

    def is_injective(self) -> bool:
        return self.rank() == len(self.domain)

    def is_surjective(self) -> bool:
        return self.rank() == len(self.codomain)

    def is_bijective(self) -> bool:
        return len(self.domain) == len(self.codomain) and self.rank() == len(self.domain)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedLinearMap)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.columns == other.columns
        )

    def __hash__(self):
        return hash((self.domain, self.codomain, tuple(tuple(sorted(c.items())) for c in self.columns)))

    def __repr__(self) -> str:
        return f"GradedLinearMap({len(self.domain)} -> {len(self.codomain)})"


class Subspace:
    """Homogeneous subspace of an algebra's underlying graded space, on
    independent vectors that each pass linalg._clean_vector."""

    __slots__ = ("ambient", "vectors", "_echelon")

    def __init__(self, ambient, vectors: Sequence[Vector]):
        basis = ambient.basis
        vecs = []
        for n, v in enumerate(vectors):
            v = _clean_vector(v, len(basis), f"subspace vector {n}")
            if not v:
                raise ValueError("zero vector in subspace basis")
            vector_parity(v, basis)  # raises if not homogeneous
            vecs.append(v)
        ech = Echelon()
        for v in vecs:
            if ech.insert(v) is None:
                raise ValueError("subspace basis is linearly dependent")
        self.ambient = ambient
        self.vectors = tuple(vecs)
        self._echelon = ech

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def contains(self, v: Vector) -> bool:
        return self._echelon.contains(v)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim} of {self.ambient!r})"


def check_morphism(f: GradedLinearMap, L: LieSuperalgebra, M: LieSuperalgebra) -> bool:
    """True iff f is an even Lie morphism, checked on the basis pairs i <= j.

    f is checked to be parity-preserving first, and L and M are trusted
    Lie tables (super skew-symmetric), so the equation of the pair (j, i),
    f[b_j, b_i] = [f b_j, f b_i], is -(-1)^{|i||j|} times the one of
    (i, j) and holds exactly when it does.

    f gives b_j the weight w_j of its column under the certified torus
    of M (_column_weights), and only the pairs whose weight sum is in R_L
    or in the weights of M are checked (_reachable_pairs), R_L the weight
    sums of the nonzero cells of L.  A skipped pair has both sides 0: its
    cell of L is 0, and [f b_i, f b_j] has weight w_i + w_j under the
    torus of M, a weight no basis element of M has.  When M keeps no
    torus, or a column is not homogeneous, every weight is 0 and every
    pair is checked.
    """
    if f.domain != L.basis or f.codomain != M.basis:
        return False
    if not f.is_parity_preserving():
        return False
    cols = f.columns
    ws, sums = _column_weights(cols, M)
    for i, j in _reachable_pairs(ws, _cell_weights(L.table, ws) | sums):
        if f._apply(L.table[i][j]) != _bilinear(M.table, cols[i], cols[j]):
            return False
    return True


def centre(L: LieSuperalgebra) -> Subspace:
    """Kernel of x -> ([x, b_j])_j, canonical basis from the RREF."""
    d = L.dim
    rows: dict = {}
    for i in range(d):
        for j in range(d):
            for k, x in L.table[i][j].items():
                rows.setdefault(j * d + k, {})[i] = x
    m = SparseMatrix([rows.get(r, {}) for r in sorted(rows)], d)
    return Subspace(L, kernel_basis(m))


def _bracket_span(L: LieSuperalgebra) -> list:
    """The nonzero cells i <= j of a trusted Lie table: by super
    skew-symmetry they span every basis bracket."""
    return [cell for i, row in enumerate(L.table) for cell in row[i:] if cell]


def derived_subalgebra(L: LieSuperalgebra) -> Subspace:
    """Span of all basis brackets, canonical echelon basis."""
    ech = echelon_rows(_bracket_span(L))
    return Subspace(L, [ech[p] for p in sorted(ech)])


def is_perfect(L: LieSuperalgebra) -> bool:
    return rank_of_rows(_bracket_span(L)) == L.dim


class NotCentralError(ValueError):
    pass


def quotient_by_central(L: LieSuperalgebra, Z: Subspace):
    """Quotient by a central subspace.

    Returns (quotient algebra, projection map).  The quotient basis is
    the canonical one of the presentation (non-pivot coordinates of L);
    only the cells p <= q of its table are projected (_lie_from_pairs).
    """
    if Z.ambient is not L:
        raise ValueError("subspace does not live in the given algebra")
    for z in Z.vectors:
        for j in range(L.dim):
            w = _bilinear(L.table, z, {j: 1})
            if w:
                raise NotCentralError(
                    f"subspace vector is not central: [z, {L.basis.labels[j]}] != 0"
                )
    pres = quotient_space(L.dim, list(Z.vectors))
    free = pres.free_columns
    labels = [L.basis.labels[c] for c in free]
    parities = [L.basis.parities[c] for c in free]
    basis = GradedBasis(labels, parities)
    quotient = _lie_from_pairs(basis, lambda p, q: pres.project(L.table[free[p]][free[q]]))
    proj_cols = [pres.project({j: 1}) for j in range(L.dim)]
    projection = GradedLinearMap(L.basis, basis, proj_cols)
    return quotient, projection


def subalgebra_from_vectors(parent: LieSuperalgebra, vectors: Sequence[Vector],
                            labels: Sequence[str]):
    """Subalgebra on the given independent homogeneous vectors, one label each.

    Returns (algebra, embedding into parent).  The embedding is built
    first; its rank certifies independence, and each structure constant
    is the embedding's preimage of a bracket, so it is exact and
    deterministic.  Only the pairs i <= j are solved (_lie_from_pairs):
    [v_j, v_i] is -(-1)^{|v_i||v_j|} [v_i, v_j], so it lies in the span
    exactly when [v_i, v_j] does.  Raises if the span is not closed under
    the bracket, naming the first failing pair in row order.

    Each v_i has its weight w_i under the certified torus of the parent
    (_column_weights), and only the pairs whose weight sum w_i + w_j is a
    weight of the parent are solved: [v_i, v_j] has that weight, so every
    other bracket is 0 and lies in the span.  When the parent keeps no
    torus, or a vector is no weight vector, every weight is 0 and every
    pair is solved.
    """
    basis_par = [vector_parity(v, parent.basis) for v in vectors]
    if None in basis_par:
        raise ValueError("zero vector in subalgebra basis")
    basis = GradedBasis(labels, basis_par)
    embedding = GradedLinearMap(basis, parent.basis, list(vectors))
    if embedding.rank() != len(vectors):
        raise ValueError("subalgebra basis is linearly dependent")
    weights, sums = _column_weights(embedding.columns, parent)

    def cell(i, j):
        out = embedding._preimage(_bilinear(parent.table, vectors[i], vectors[j]))
        if out is None:
            raise ValueError(f"span not closed under bracket at pair ({labels[i]}, {labels[j]})")
        return out

    return _lie_from_pairs(basis, cell, weights, sums), embedding

"""Universal central extensions of Lie superalgebras over Q.

For a Lie superalgebra L the relation space B inside L (x) L is spanned
by, over homogeneous x, y, z:

* x (x) y + (-1)^{|x||y|} y (x) x  (written on basis pairs),
* x (x) x for even x,
* (-1)^{|x||z|} x (x) [y,z] + (-1)^{|y||x|} y (x) [z,x]
                            + (-1)^{|z||y|} z (x) [x,y].

Evaluating the families on basis pairs and triples spans the same
space: the first and third families are multilinear, and the quadratic
second family expands over a basis into diagonal terms plus first-family
pair terms.  The third family is invariant under cyclic rotation of
(x, y, z), and by the super skew-symmetry of the bracket its element on
(x, z, y) is +-1 times the one on (x, y, z); so one representative per
unordered basis triple is enumerated.

The extension algebra is (L (x) L) / B with bracket
[<a,b>, <c,d>] = <[a,b], [c,d]> and canonical map u<a,b> = [a,b]; the
kernel of u is central, and for perfect L it is the second homology of
L and u is the universal central extension.  The extension is a Lie
superalgebra, so only its cells p <= q are projected and each cell
(q, p) is the sign-flipped copy; of those, only the pairs whose weight
(below) is the weight of an extension basis element, as every other
cell is 0.

Certificates.  build_uce certifies the presentation, not the extension
table.  Write beta(a (x) b) = [a, b] on L (x) L and project for the
presentation's map onto the extension.  Two checks give u . project =
beta on all of L (x) L, column by column: a free column projects to its
own class, which u maps to its bracket; a stored pivot c projects to
e_c minus its RREF row, so beta killing every stored row gives it; and
a pivot (a, b) read through the bracket (below) projects to the sum
over k of [b_a, b_b]_k lift_k, so u(lift_k) = e_k for every lift gives
it.  The table is project(u e_p (x) u e_q) on the basis of the
extension, so u[e_p, e_q] = beta(u e_p (x) u e_q) = [u e_p, u e_q]: u
is a morphism for the table, whenever it is built.  project is
bilinear, so [z, e_q] = project(u z (x) u e_q) for every z of the
extension, and a kernel vector with u z = 0 is central.  So build_uce
checks u z = 0 on its kernel vectors, and the table is built only on
first use (UceAlgebra.lie); none of its pairs is re-checked.

Weight blocks.  build_uce presents the quotient by the reduced row
echelon form (RREF) of B, but it eliminates only a small part of B.
Let h be an even element with ad h diagonal in the basis,
[h, b_j] = w_j b_j.  Then [b_a, b_b] has weight w_a + w_b, every
spanning row of B is homogeneous, and B is the direct sum of its weight
blocks B_l inside (L (x) L)_l.  For l != 0 the cyclic relation on
(h, x, y), for basis elements x, y with w_x + w_y = l, reads, modulo
the pair relations,

    h (x) [x,y] - l * x (x) y  in B,

so x (x) y = (1/l) h (x) [x,y] mod B.  Hence u maps (L (x) L)_l / B_l
isomorphically onto L_l = [h, L_l], and B_l is the kernel of u on the
block; no perfectness is needed.  This is the torus-acts-trivially
argument of Hochschild and Serre (Ann. of Math. 57, 1953) in the super
setting of Neher, "An introduction to universal central extensions of
Lie superalgebras" (2003).  Only the weight-0 block is generated,
eliminated and stored.  On a block l != 0 a column c is free in the RREF
exactly when [b_a, b_b] is not in the span of the images of the later
columns, so one greedy pass from the right over the images finds the
free columns.  Its columns are listed from the nonzero cells only, as
a column with a zero image is never free.  It skips the columns (a, b)
with a < b, whose image is -(-1)^{|a||b|} times that of (b, a), further
right, and it stops once
the free images span n_l dimensions, n_l the number of basis elements of
weight l: by Jacobi, [h, [b_a, b_b]] = (w_a + w_b) [b_a, b_b], so every
image lies in L_l and the columns left of that point are pivots.  Each
e_k of weight l is then an exact combination lift_k of the free images,
and the RREF row of a pivot c = (a, b) is e_c minus the sum over k of
[b_a, b_b]_k lift_k, the unique expression of its image over the later
free images.  No such row is stored: the presentation reads it through
the bracket and the lifts (linalg.QuotientPresentation).  It is the
presentation a full elimination of B gives.  h is a regular element of
the torus of all such elements (algebra._torus, which also grades
validation and is kept on L, so an algebra validated where it entered
the package, or a gl or sl matrix family, brings its torus along); with
no such element there is one block and B is eliminated whole.

Generating set.  The weight-0 block needs only some of its cyclic rows.
Let S be basis elements that generate L as a Lie superalgebra
(algebra._generating_set) and B_S the span of every pair row and of the
cyclic rows of the unordered basis triples that contain an element of
S.  Then B_S = B: the lemma of Kassel and Loday (Ann. Inst. Fourier 32,
1982), in the super form of Neher.  Write <a,b> for the class of
a (x) b in (L (x) L)/B_S and, for homogeneous x, y, z,

    phi_x(y, z) = <x,[y,z]> - <[x,y],z> - (-1)^{|x||y|} <y,[x,z]>.

Modulo the pair rows phi_x(y, z) is (-1)^{|x||z|} times the cyclic row
of (x, y, z), so phi_s = 0 for s in S, and phi_x is linear in x.  If
phi_a = phi_b = 0 then phi_[a,b] = 0: expand <[a,b],[y,z]> by phi_a
and phi_b, and the Jacobi identity of L (trusted) cancels what is left.
So {x : phi_x = 0} is a subalgebra; it contains S, hence it is L, and
every cyclic row lies in B_S.  B_S is spanned by homogeneous rows, so
its weight-0 rows span B_0, and only they are generated
(algebra._cyclic_classes given S): on sl(7;Q[t]/(t^2)), with |S| = 13,
611 rows in place of 1,474, of which 300 are independent.

A 2-cocycle (Cocycle2) is a table of values indexed like a bracket
table, cleaned by the same algebra._clean_table.  validate_cocycle checks it with the table-law walkers of
algebra (degree, super-alternation, the cyclic identity under the
weight rule of the torus), and it is evaluated only as part of the
bracket of the total algebra extension_from_cocycle builds; it has no
evaluator of its own.

The cohomological cross-check h2_cohomology_oracle counts degree-zero
super-alternating 2-cocycles with values in Q modulo coboundaries.  It
reads only the structure constants.  It shares the Hochschild-Serre
lemma with build_uce, in its dual form (cochains of nonzero weight under
a torus carry no cohomology), but not the code: it takes its own grading
from the diagonal basis elements, certifies it on the table and
enumerates its own weight-0 cyclic classes.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left

from .algebra import (
    CertificateError,
    GradedBasis,
    GradedLinearMap,
    LieSuperalgebra,
    Subspace,
    ValidationReport,
    _by_weight,
    _cell_weights,
    _cyclic_failures,
    _generating_set,
    _grading_failures,
    _clean_table,
    _integral_table,
    _lie_from_pairs,
    _pair_basis,
    _symmetry_failures,
    _tensor_relations,
    _torus,
)
from .linalg import (
    Echelon,
    QuotientPresentation,
    Vector,
    _tensor,
    echelon_rows,
    kernel_basis,
    rank_of_rows,
    vec_add_scaled,
)


class UceAlgebra:
    """The universal central extension data of a Lie superalgebra.

    Fields: base (L), presentation (of L (x) L by the relation space), u
    (extension -> L; its domain is the extension basis), kernel, the
    canonical basis of the kernel of u (a tuple of extension vectors,
    computed once by build_uce), free_pairs, the basis pair of each
    element, and lie, the extension algebra, whose table is built on
    first access and kept.  Extension basis element q is the class
    <b_a, b_b> for (a, b) = free_pairs[q], is labelled <label_a,label_b>,
    has parity |a| + |b|, and u maps it to [b_a, b_b].  Every map out of
    the extension is read off these pairs.
    """

    __slots__ = ("base", "_lie", "presentation", "u", "kernel", "free_pairs")

    def __init__(self, base, lie, presentation, u, kernel, free_pairs):
        self.base = base
        self._lie = lie  # None until first access
        self.presentation = presentation
        self.u = u
        self.kernel = kernel
        self.free_pairs = free_pairs

    @property
    def lie(self) -> LieSuperalgebra:
        """The extension algebra, its table built on first access.

        Cell (p, q) is project(u e_p (x) u e_q), built on the reachable
        pairs p <= q and mirrored by super skew-symmetry
        (algebra._lie_from_pairs), under the scalar rule, so it is not
        cleaned again.  It has weight w_p + w_q, w_p the weight of the
        free column of p, as u e_p and u e_q lie in L_{w_p} and L_{w_q};
        when no free column has that weight the block is 0 in the
        quotient, so the pair is not visited and its cell is 0.
        build_uce's certificate makes u a morphism with central kernel
        for this table (see the module docstring), so it is not checked.
        """
        if self._lie is None:
            d = self.base.dim
            _, weights = _torus(self.base)
            brackets, project = self.u.columns, self.presentation.project
            fw = [weights[a] + weights[b] for a, b in self.free_pairs]
            self._lie = _lie_from_pairs(
                self.u.domain, lambda p, q: project(_tensor(brackets[p], brackets[q], d)),
                fw, set(fw))
        return self._lie

    @property
    def basis(self) -> GradedBasis:
        """The extension basis, the domain of u."""
        return self.u.domain

    @property
    def dim(self) -> int:
        return len(self.u.domain)

    @property
    def perfect(self) -> bool:
        """Is L perfect?

        u maps <a,b> to [a,b], so its image is [L, L]: L is perfect
        exactly when u has rank dim L, that is, when
        dim - len(kernel) == dim L.  The kernel of u is then H2(L), and
        u is bijective exactly when the kernel is 0.
        """
        return self.dim - len(self.kernel) == self.base.dim

    def class_of(self, x: Vector, y: Vector) -> Vector:
        """Class <x, y> of a tensor x (x) y in extension coordinates."""
        return self.presentation.project(_tensor(x, y, self.base.dim))

    def __repr__(self) -> str:
        return f"UceAlgebra(dim={self.dim} over dim={self.base.dim})"


def _weight_presentation(L: LieSuperalgebra, weights: list) -> QuotientPresentation:
    """RREF presentation of L (x) L modulo B, block by weight block.

    The weight-0 rows of a generating set S are generated, eliminated
    and stored: every pair row and the cyclic rows of the triples that
    meet S (see the module docstring).  Each other
    block is one greedy pass from the right over the images of its
    columns (a, b) with a >= b and a nonzero cell, which stops at rank
    n_l; lift_k, the
    Echelon(track=True) certificate of e_k over the free images, is kept
    for each basis element k of weight l, and the block's rows are read
    through the bracket and the lifts (see the module docstring), which
    the presentation reads off L's table.  Every nonzero weight of a
    basis element has its block, and CertificateError is raised when
    its free images do not span the basis elements of that weight.
    """
    d = L.dim
    table = L.table
    S = _generating_set(table, weights)
    relations = echelon_rows(_tensor_relations(table, L.basis.parities, weights, True, S))
    elements = _by_weight(weights)
    free = [a * d + b for a, w in enumerate(weights) for b in elements.get(-w, ())
            if a * d + b not in relations]
    # each weight's columns a * d + b, a >= b, of a nonzero cell, in increasing order
    blocks: dict = {w: [] for w in elements}
    for a, row in enumerate(table):
        for b, cell in enumerate(row[:a + 1]):
            if cell:
                blocks[weights[a] + weights[b]].append(a * d + b)
    blocks.pop(0, None)
    lifts = {}
    for weight, cols in blocks.items():
        ks = elements[weight]
        ech = Echelon(track=True)
        for c in reversed(cols):
            if ech.rank == len(ks):
                break
            a, b = divmod(c, d)
            if ech.insert(table[a][b], tag=c) is not None:
                free.append(c)
        if ech.rank != len(ks):
            raise CertificateError(
                f"weight block {weight}: the free images span {ech.rank} dimensions, but "
                f"{len(ks)} basis elements have that weight "
                f"({', '.join(L.basis.labels[k] for k in ks)})"
            )
        for k in ks:
            lifts[k] = ech.reduce({k: 1})[1]
    return QuotientPresentation(d * d, relations, tuple(sorted(free)), (table, lifts))


def _certify_presentation(L: LieSuperalgebra, pres: QuotientPresentation,
                          u: GradedLinearMap) -> None:
    """u . project = beta on L (x) L, for beta(a (x) b) = [a, b] (see the
    module docstring): beta kills every stored RREF row, named by its
    pivot pair when it does not, and u(lift_k) = e_k for every lift of a
    nonzero weight block, named by its basis element k when it does not.
    """
    d, table, labels = L.dim, L.table, L.basis.labels
    for c, row in pres.relations.items():
        image: Vector = {}
        for c2, x in row.items():
            vec_add_scaled(image, table[c2 // d][c2 % d], x)
        if image:
            a, b = divmod(c, d)
            raise CertificateError(
                f"canonical map u: the bracket does not kill the relation row of "
                f"<{labels[a]},{labels[b]}>"
            )
    for k, lift in pres._lifts.items():
        if u._apply(lift) != {k: 1}:
            raise CertificateError(f"canonical map u: the lift of {labels[k]} does not map to it")


def build_uce(L: LieSuperalgebra) -> UceAlgebra:
    """Quotient of the tensor square by the relation space.

    L is trusted to be a valid Lie superalgebra (it was validated where
    it entered the package), so the extension is built without
    re-validation.  The presentation is built by weight blocks (see the
    module docstring) and equals the RREF presentation of the whole
    relation space.  The extension table is not built here: UceAlgebra.lie
    builds it on first access, and the CLI's h2 and uce (without
    --table) never read it.

    Its certificates always run, on the presentation: h is diagonal with
    the weights the blocks use (_torus), each nonzero block's free images
    span the basis elements of its weight, the bracket kills every stored
    row and u maps each lift to its basis element (_certify_presentation),
    and u kills each kernel vector.  Together these make u a morphism
    for the extension table, whenever it is built, with central kernel
    (see the module docstring).
    """
    _, weights = _torus(L)
    pres = _weight_presentation(L, weights)
    free_pairs, basis = _pair_basis(L.basis, pres.free_columns, ("<", ">"))
    u = GradedLinearMap(basis, L.basis, [L.table[a][b] for a, b in free_pairs])
    _certify_presentation(L, pres, u)
    kernel = tuple(kernel_basis(u.matrix()))
    for z in kernel:
        if u._apply(z):
            raise CertificateError(
                f"kernel of u: u does not kill the kernel vector at {basis.labels[max(z)]}"
            )
    return UceAlgebra(L, None, pres, u, kernel, free_pairs)


def h2(L) -> Subspace:
    """Kernel of the canonical map, as a subspace of the extension.

    Accepts a prebuilt UceAlgebra or a LieSuperalgebra, whose extension
    is built.  The kernel is the one build_uce computed, and the
    subspace's ambient is the UceAlgebra itself: its basis is the
    extension basis, and no extension table is built (ambient.lie builds
    it).  Warns when L is not perfect (see UceAlgebra.perfect): the
    kernel is still central, but it is not the second homology in that
    case.
    """
    ext = L if isinstance(L, UceAlgebra) else build_uce(L)
    if not ext.perfect:
        warnings.warn("algebra is not perfect; kernel of u is not H2", stacklevel=2)
    return Subspace(ext, ext.kernel)


def uce_of_morphism(f: GradedLinearMap, source: UceAlgebra,
                    target: UceAlgebra) -> GradedLinearMap:
    """Induced map "<a,b> -> <f a, f b>" between the extensions.

    source and target are the extensions of f's domain and codomain.
    """
    if f.domain != source.base.basis or f.codomain != target.base.basis:
        raise ValueError("morphism endpoints do not match the given extensions")
    cols = [target.class_of(f.columns[a], f.columns[b]) for a, b in source.free_pairs]
    out = GradedLinearMap(source.u.domain, target.u.domain, cols)
    # naturality: u_M after uce(f) equals f after u_L
    lhs = target.u.compose(out)
    rhs = f.compose(source.u)
    for j, (x, y) in enumerate(zip(lhs.columns, rhs.columns)):
        if x != y:
            raise CertificateError(
                "induced map does not commute with the canonical maps "
                f"at {source.u.domain.labels[j]}"
            )
    return out


def is_centrally_closed(ext: UceAlgebra) -> bool:
    """For the extension of a perfect L: is the canonical map an isomorphism?"""
    if not ext.perfect:
        raise ValueError("central closure is defined here for perfect algebras only")
    return not ext.kernel


class Cocycle2:
    """Degree-zero 2-cocycle on L with values in a graded space.

    values[i][j] is tau(b_i, b_j) in coordinates of the target basis.
    The values are cleaned as a product table is (algebra._clean_table,
    into the target's dimension): a table that is not dim L rows of
    dim L cells, or a value that fails linalg._clean_vector, raises
    ValueError naming the pair.
    """

    __slots__ = ("source", "target", "values")

    def __init__(self, source: LieSuperalgebra, target: GradedBasis, values):
        self.source = source
        self.target = target
        self.values = _clean_table(source.basis, values, len(target), "cocycle value")

    def __repr__(self) -> str:
        return f"Cocycle2({self.source!r} -> dim {len(self.target)})"


def validate_cocycle(tau: Cocycle2) -> ValidationReport:
    """Degree zero, super-alternating, and the cyclic cocycle identity on
    tau's source L.

    Degree and super-alternation are the walks validate_lie reads for
    grading and skew-symmetry (algebra._grading_failures into tau's
    target, algebra._symmetry_failures with sign -1), over tau's values.
    The cyclic identity is the sum validate_lie evaluates, with tau's
    values in place of the bracket (algebra._cyclic_failures); it reads
    the structure constants scaled by the LCM D of their denominators,
    so each sum is D times the rational one.  As there, it is evaluated
    once per unordered triple and each failing triple is reported with
    its mirror.  L is trusted to be a Lie superalgebra (it was validated
    where it entered the package): the mirror needs its table skew, and
    the weight rule below needs the torus weights to grade it.

    Only the classes whose total weight is a pair sum w_a + w_b of tau's
    own support are evaluated, under the certified torus of L (see
    algebra._torus): a term tau(b_i, b_t) of the class (i, j, k), with b_t
    a component of [b_j, b_k], has w_t = w_j + w_k, so it is nonzero only
    when w_i + w_j + w_k is such a sum.  A tau supported on weight 0 reads
    only the classes of total weight 0.
    """
    L = tau.source
    report = ValidationReport()
    par = L.basis.parities
    tpar = tau.target.parities
    labels = L.basis.labels
    vals = tau.values
    for i, j, k, want in _grading_failures(vals, par, tpar):
        report.add("degree", (labels[i], labels[j]),
                   f"value component has parity {tpar[k]}, expected {want}")
    for i, j in _symmetry_failures(vals, par, -1):
        report.add("alternating", (labels[i], labels[j]),
                   "tau(x,x) != 0 for even x" if i == j else "tau(y,x) != -(-1)^{|x||y|} tau(x,y)")
    if not report.ok:
        return report
    _, weights = _torus(L)
    itable, _ = _integral_table(L.table)
    for i, j, k in _cyclic_failures(itable, vals, par, weights, _cell_weights(vals, weights)):
        report.add("cocycle", (labels[i], labels[j], labels[k]), "cyclic cocycle sum != 0")
    return report


class CentralExtension:
    """A central extension presented on L (+) C coordinates."""

    __slots__ = ("total", "projection", "kernel")

    def __init__(self, total: LieSuperalgebra, projection: GradedLinearMap, kernel: Subspace):
        self.total = total
        self.projection = projection
        self.kernel = kernel

    def __repr__(self) -> str:
        return f"CentralExtension(total dim={self.total.dim})"


def extension_from_cocycle(tau: Cocycle2) -> CentralExtension:
    """L (+) C with bracket [l1 (+) c1, l2 (+) c2] = [l1,l2] (+) tau(l1,l2),
    where L is tau's source and C its target.

    tau is validated; the total algebra is then a Lie superalgebra by
    construction, and its cells are those of L and of tau, both already
    under the scalar rule, so it is built without re-validation or
    cleaning, on the pairs i <= j (algebra._lie_from_pairs).
    """
    if not validate_cocycle(tau).ok:
        raise ValueError("cocycle does not validate against its source algebra")
    L = tau.source
    d = L.dim
    c = len(tau.target)
    labels = list(L.basis.labels)
    used = set(labels)
    for lab in tau.target.labels:
        name = lab if lab not in used else f"z:{lab}"
        while name in used:
            name = "z:" + name
        labels.append(name)
        used.add(name)
    parities = list(L.basis.parities) + list(tau.target.parities)
    basis = GradedBasis(labels, parities)

    def cell(i, j):
        if j >= d:  # i <= j: a pair with a central element
            return {}
        out = dict(L.table[i][j])
        for k, x in tau.values[i][j].items():
            out[d + k] = x
        return out

    total = _lie_from_pairs(basis, cell)
    projection = GradedLinearMap(
        basis, L.basis, [{i: 1} if i < d else {} for i in range(d + c)]
    )
    kernel = Subspace(total, [{d + k: 1} for k in range(c)])
    return CentralExtension(total, projection, kernel)


def _diagonal_weights(itable, par) -> list:
    """Weight tuple of each basis element under the diagonal basis elements.

    h_1, ..., h_r are the even basis elements whose ad is diagonal in the
    basis: every cell [h_t, b_j] is a multiple of b_j.  Two distinct
    ones commute ([h_s, h_t] is a multiple of both h_t and h_s), so they
    grade L jointly, and basis element j gets the tuple
    (alpha_j(h_1), ..., alpha_j(h_r)) of its eigenvalues in the given
    integral table.  With no such element every tuple is ().
    """
    d = len(itable)
    hs = [s for s in range(d) if not par[s]
          and all(not cell or list(cell) == [j] for j, cell in enumerate(itable[s]))]
    return [tuple(itable[s][j].get(j, 0) for s in hs) for j in range(d)]


def h2_cohomology_oracle(L: LieSuperalgebra) -> int:
    """dim of super-alternating 2-cocycles valued in a line, mod coboundaries.

    Unknowns are tau(b_i, b_j) for i < j plus tau(b_i, b_i) for odd i;
    the remaining values are forced by super-alternation.  Cocycle rows
    (the cyclic identity) are enumerated once per unordered triple
    i <= j <= k: the row of (i, k, j) is +-1 times that of (i, j, k), as
    the table is skew, so the rank is the same as over every class;
    coboundaries are tau = g([.,.]) for all basis functionals g.  The
    even-line and odd-line sectors decouple by grading, so one global
    elimination counts both, and by field duality the result equals the
    full dim h2(L) for perfect L.

    Only weight-0 cochains are counted.  The even basis elements with
    diagonal ad grade L by weight tuples (see _diagonal_weights), which
    is certified on every cell of the table.  For such an h the Cartan
    formula L_h = d i_h + i_h d makes L_h zero on cohomology, while it
    multiplies a cochain of weight l by -l(h); so every block of nonzero
    weight is acyclic and H2 is the cohomology of the weight-0 block.
    Its unknowns are the pairs of weight 0, its cocycle rows come from
    the cyclic classes of weight 0, and its coboundaries are the g([.,.])
    rows on those pairs.  The rows are built in ints on the table scaled
    by the LCM of its denominators, which changes no rank.  This is the
    Hochschild-Serre lemma build_uce uses, but the oracle shares no code
    with build_uce, its torus or its relation generator.
    """
    d = L.dim
    par = L.basis.parities
    labels = L.basis.labels
    table, _ = _integral_table(L.table)
    weights = _diagonal_weights(table, par)
    for i in range(d):
        for j, cell in enumerate(table[i]):
            if not cell:
                continue
            w = tuple(a + b for a, b in zip(weights[i], weights[j]))
            for k in cell:
                if weights[k] != w:
                    raise CertificateError(
                        f"oracle weights do not grade the table: [{labels[i]},{labels[j]}] "
                        f"has a component along {labels[k]} of another weight"
                    )
    negated = [tuple(-a for a in w) for w in weights]
    by_weight: dict = {}  # weight -> basis elements of that weight, ascending
    for k, w in enumerate(weights):
        by_weight.setdefault(w, []).append(k)
    pair_index = {}
    for i in range(d):
        if par[i] and weights[i] == negated[i]:
            pair_index[(i, i)] = len(pair_index)
        for j in by_weight.get(negated[i], ()):
            if j > i:
                pair_index[(i, j)] = len(pair_index)
    npairs = len(pair_index)

    def add_value(row: dict, i: int, t: int, coeff: int) -> None:
        # tau(b_i, b_t) resolved to a signed weight-0 unknown, or zero
        if i == t:
            if not par[i]:
                return
            k = pair_index[(i, i)]
        elif i < t:
            k = pair_index[(i, t)]
        else:
            k = pair_index[(t, i)]
            if not (par[i] and par[t]):
                coeff = -coeff
        y = row.get(k, 0) + coeff
        if y:
            row[k] = y
        else:
            del row[k]

    constraint_rows = []
    for i in range(d):
        for j in range(i, d):
            target = tuple(-a - b for a, b in zip(weights[i], weights[j]))
            group = by_weight.get(target, ())
            for k in group[bisect_left(group, j):]:
                row: dict = {}
                cell = table[j][k]
                if cell:
                    s = -1 if par[i] and par[k] else 1
                    for t, x in cell.items():
                        add_value(row, i, t, s * x)
                cell = table[k][i]
                if cell:
                    s = -1 if par[j] and par[i] else 1
                    for t, x in cell.items():
                        add_value(row, j, t, s * x)
                cell = table[i][j]
                if cell:
                    s = -1 if par[k] and par[j] else 1
                    for t, x in cell.items():
                        add_value(row, k, t, s * x)
                if row:
                    constraint_rows.append(row)
    dim_z2 = npairs - rank_of_rows(constraint_rows)

    coboundary_rows: dict = {}  # g -> {pair: coefficient of b_g in [b_i, b_j]}
    for (i, j), k in pair_index.items():
        for g, x in table[i][j].items():
            coboundary_rows.setdefault(g, {})[k] = x
    dim_b2 = rank_of_rows(list(coboundary_rows.values()))
    return dim_z2 - dim_b2

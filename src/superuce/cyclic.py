"""First cyclic homology of an associative superalgebra over Q.

The pairing space of A is the quotient of A (x) A by the span of

* a (x) b + (-1)^{|a||b|} b (x) a,
* a (x) a for even a,
* (-1)^{|a||c|} a (x) bc + (-1)^{|b||a|} b (x) ca + (-1)^{|c||b|} c (x) ab,

evaluated on homogeneous basis pairs and triples; this spans the same
space as the defining families over all homogeneous elements.  The
first two families are bilinear; the quadratic family on even elements
expands over a basis into its diagonal terms plus symmetric pair terms
of the first family; the third family is trilinear.  The third family
is invariant under cyclic rotation of (a, b, c), so one representative
per cyclic class is enumerated.  Both orientations (a, b, c) and
(a, c, b) are kept: a product table is not skew, so their rows are not
multiples of each other as they are for a Lie table.  The rows are
built, in ints, by the same code as the relation space of the universal
central extension.

The class of a (x) b is written <<a,b>>.  The supercommutator map
sends <<a,b>> to ab - (-1)^{|a||b|} ba, read off the table of
lie_from_assoc(A); it kills every relation (this is certified during
construction), and its kernel is HC_1(A).  For supercommutative A the
map is zero, so HC_1(A) is the whole pairing space.

This module depends only on the algebra layer, not on the extension
machinery; its outputs are used as the expected side of the extension
tests, never the other way around.
"""

from __future__ import annotations

from .algebra import (
    AssocSuperalgebra,
    CertificateError,
    GradedBasis,
    GradedLinearMap,
    Subspace,
    _cyclic_relations,
    _pair_basis,
    _pair_relations,
    lie_from_assoc,
)
from .linalg import (
    QuotientPresentation,
    Vector,
    _tensor,
    kernel_basis,
    quotient_space,
    vec_add_scaled,
)


class CyclicPairs:
    """The pairing space <<A,A>> with projection and commutator map."""

    __slots__ = ("algebra", "presentation", "basis", "commutator")

    def __init__(self, algebra: AssocSuperalgebra, presentation: QuotientPresentation,
                 basis: GradedBasis, commutator: GradedLinearMap):
        self.algebra = algebra
        self.presentation = presentation
        self.basis = basis
        self.commutator = commutator

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pair(self, x: Vector, y: Vector) -> Vector:
        """Class of x (x) y in quotient coordinates."""
        return self.presentation.project(_tensor(x, y, self.algebra.dim))

    def __repr__(self) -> str:
        return f"CyclicPairs(dim={self.dim})"


def cyclic_pairs(A: AssocSuperalgebra) -> CyclicPairs:
    """Quotient presentation of <<A,A>> plus the supercommutator map."""
    d = A.dim
    par = A.basis.parities
    labels = A.basis.labels
    rows = {"pair": _pair_relations(par), "cyclic": _cyclic_relations(A.table, par)}
    pres = quotient_space(d * d, rows["pair"] + rows["cyclic"])
    commutator_table = lie_from_assoc(A).table

    # the commutator must vanish on every relation, else the map would
    # not descend to the quotient
    for kind, kind_rows in rows.items():
        for row in kind_rows:
            acc: Vector = {}
            for k, x in row.items():
                a, b = divmod(k, d)
                vec_add_scaled(acc, commutator_table[a][b], x)
            if acc:
                a, b = divmod(min(row), d)
                raise CertificateError(
                    f"supercommutator does not kill the {kind} relation "
                    f"on <<{labels[a]},{labels[b]}>>"
                )

    free_pairs, basis = _pair_basis(A.basis, pres.free_columns, ("<<", ">>"))
    commutator = GradedLinearMap(basis, A.basis, [commutator_table[a][b] for a, b in free_pairs])
    return CyclicPairs(A, pres, basis, commutator)


def hc1(A: AssocSuperalgebra) -> Subspace:
    """HC_1(A) = kernel of the commutator map on <<A,A>>.

    Builds cyclic_pairs(A) once; the pairing space is the ambient of the
    returned subspace.
    """
    pairs = cyclic_pairs(A)
    return Subspace(pairs, kernel_basis(pairs.commutator.matrix()))

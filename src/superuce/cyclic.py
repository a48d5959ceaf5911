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
per cyclic class is enumerated.

The class of a (x) b is written <<a,b>>.  The supercommutator map
sends <<a,b>> to ab - (-1)^{|a||b|} ba; it kills every relation (this
is asserted during construction), and its kernel is HC_1(A).  For
supercommutative A the map is zero, so HC_1(A) is the whole pairing
space.

This module depends only on the algebra layer, not on the extension
machinery; its outputs are used as the expected side of the extension
tests, never the other way around.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AssocSuperalgebra, CertificateError, GradedBasis, GradedLinearMap, Subspace
from .linalg import (
    QuotientPresentation,
    SparseMatrix,
    Vector,
    kernel_basis,
    quotient_space,
    vec_add_scaled,
)

ONE = Fraction(1)


def _pair_relations(A: AssocSuperalgebra) -> list:
    d = A.dim
    par = A.basis.parities
    t = A.table
    rows = []
    for i in range(d):
        for j in range(i, d):
            sign = -ONE if par[i] and par[j] else ONE
            if i == j:
                if sign == ONE:
                    rows.append({i * d + i: ONE})  # doubled diagonal term
            else:
                rows.append({i * d + j: ONE, j * d + i: sign})
    for i in range(d):
        if par[i] == 0:
            rows.append({i * d + i: ONE})
    for a in range(d):
        for b in range(a, d):
            tab = t[a][b]
            for c in range(a, d):
                row: Vector = {}
                cell = t[b][c]
                if cell:
                    s = -ONE if par[a] and par[c] else ONE
                    for k, x in cell.items():
                        y = row.get(a * d + k, 0) + s * x
                        if y:
                            row[a * d + k] = y
                        else:
                            row.pop(a * d + k, None)
                cell = t[c][a]
                if cell:
                    s = -ONE if par[b] and par[a] else ONE
                    for k, x in cell.items():
                        y = row.get(b * d + k, 0) + s * x
                        if y:
                            row[b * d + k] = y
                        else:
                            row.pop(b * d + k, None)
                if tab:
                    s = -ONE if par[c] and par[b] else ONE
                    for k, x in tab.items():
                        y = row.get(c * d + k, 0) + s * x
                        if y:
                            row[c * d + k] = y
                        else:
                            row.pop(c * d + k, None)
                if row:
                    rows.append(row)
    return rows


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
        d = self.algebra.dim
        tensor: Vector = {}
        for a, xa in x.items():
            base = a * d
            for b, yb in y.items():
                w = xa * yb
                if w:
                    k = base + b
                    z = tensor.get(k, 0) + w
                    if z:
                        tensor[k] = z
                    else:
                        del tensor[k]
        return self.presentation.project(tensor)

    def __repr__(self) -> str:
        return f"CyclicPairs(dim={self.dim})"


def cyclic_pairs(A: AssocSuperalgebra) -> CyclicPairs:
    """Quotient presentation of <<A,A>> plus the supercommutator map."""
    d = A.dim
    par = A.basis.parities
    labels = A.basis.labels
    t = A.table
    rows = _pair_relations(A)
    pres = quotient_space(d * d, rows)

    def raw_commutator(a: int, b: int) -> Vector:
        out = dict(t[a][b])
        sign = -ONE if par[a] and par[b] else ONE
        vec_add_scaled(out, t[b][a], -sign)
        return out

    # the commutator must vanish on every relation, else the map would
    # not descend to the quotient
    for row in rows:
        acc: Vector = {}
        for k, x in row.items():
            a, b = divmod(k, d)
            vec_add_scaled(acc, raw_commutator(a, b), x)
        if acc:
            a, b = divmod(min(row), d)
            raise CertificateError(
                f"supercommutator does not kill the pair relation on <<{labels[a]},{labels[b]}>>"
            )

    free = pres.free_columns
    qlabels = []
    qpar = []
    cols = []
    for col in free:
        a, b = divmod(col, d)
        qlabels.append(f"<<{labels[a]},{labels[b]}>>")
        qpar.append((par[a] + par[b]) & 1)
        cols.append(raw_commutator(a, b))
    basis = GradedBasis(qlabels, qpar)
    commutator = GradedLinearMap(basis, A.basis, cols)
    return CyclicPairs(A, pres, basis, commutator)


def hc1(A: AssocSuperalgebra, pairs: CyclicPairs = None) -> Subspace:
    """HC_1(A) = kernel of the commutator map on <<A,A>>."""
    if pairs is None:
        pairs = cyclic_pairs(A)
    vectors = kernel_basis(pairs.commutator.matrix())

    class _PairSpace:
        # minimal ambient wrapper so Subspace can check homogeneity
        def __init__(self, basis):
            self.basis = basis

        def __repr__(self):
            return f"<<A,A>> of {pairs.algebra!r}"

    return Subspace(_PairSpace(pairs.basis), vectors)

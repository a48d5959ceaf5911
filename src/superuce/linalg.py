"""Exact sparse linear algebra over the rationals.

Conventions used throughout the package:

* A vector is a dict {coordinate index: entry} with no stored zeros.
  Entries are rationals: int when integral, Fraction otherwise; every
  function here accepts both.
* A matrix acts on column vectors: (M v)[r] = sum_c M[r][c] * v[c].
* Echelon forms are fully reduced (RREF).  The RREF of a row space is
  unique, so every function here is deterministic bit for bit.  The
  pivot of a row is its first nonzero entry in column order, and rows
  are processed in the order given.

Elimination runs on Python ints.  Echelon clears an incoming vector's
denominators by their LCM, keeps its rows as primitive integer vectors
and eliminates by gcd-reduced cross-multiplication (integer-preserving
elimination in the sense of Bareiss, Math. Comp. 22, 1968).  A quotient
is formed only where a result leaves the kernel: residues and
certificates of reduce() and insert(), and the rows of rref_rows(),
whose pivot coefficient is 1.  Each goes through _ratio, which returns
an int when the division is exact and a Fraction otherwise; this module
is the only one that imports fractions.

_clean_vector is the one gate where a vector enters the package: every
index is an int (not a bool) in range(dim), every entry passes
_rational, the scalar rule (a rational is an int that is not a bool, or
a Fraction), and zeros are dropped.  The table cells and the unit of an
algebra, the arguments of bracket and product, the columns of a
GradedLinearMap and the arguments of its apply and preimage, the vectors
of a Subspace, the values of a Cocycle2, the rows of a SparseMatrix and
the relations of quotient_space all pass it, and each failure is one
ValueError naming the site, the index and what is wrong.  Echelon.insert
and reduce are not gated: they are the hot kernel and see only vectors
that passed the gate or were derived from such.

The row-space routines (echelon_rows, rank_of_rows and everything built
on them) insert every input row into one Echelon, in the order given.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

Vector = dict  # {int: rational}; rationals are int when integral, Fraction otherwise


def _ratio(num, den: int):
    """The exact quotient of an int or Fraction num by an int den: an int
    when den divides num, a Fraction otherwise.  den == 0 raises
    ZeroDivisionError, as Fraction does."""
    if type(num) is int and den and not num % den:
        return num // den
    q = Fraction(num, den)
    return q.numerator if q.denominator == 1 else q


def _rational(x):
    """x under the scalar rule.  A rational is an int that is not a bool, or
    a Fraction; anything else (a float, a bool, a str) raises TypeError."""
    if type(x) is Fraction:
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"{x!r} is not a rational (an int or a Fraction)")
    return _ratio(x.numerator, x.denominator)


def _clean_vector(vec, dim: int, where: str) -> Vector:
    """vec as it may enter the package: zeros dropped, every index an int
    (not a bool) in range(dim), every entry under the scalar rule.
    ValueError names the site where, the index and what is wrong."""
    out = {}
    for k, x in vec.items():
        if type(k) is not int or not 0 <= k < dim:
            raise ValueError(f"{where}, index {k!r}: not an int in range({dim})")
        if type(x) is not int:
            try:
                x = _rational(x)
            except TypeError as exc:
                raise ValueError(f"{where}, index {k}: {exc}") from None
        if x:
            out[k] = x
    return out


def vec_add_scaled(u: Vector, v: Vector, c) -> None:
    """u += c*v in place."""
    if not c:
        return
    for i, x in v.items():
        y = u.get(i, 0) + c * x
        if y:
            u[i] = y
        else:
            u.pop(i, None)


def _tensor(x: Vector, y: Vector, d: int) -> Vector:
    """x (x) y in V (x) V, dim V = d, at coordinates a*d + b; zeros dropped.

    Each coordinate is hit by one pair (a, b) only, so nothing accumulates.
    """
    out: Vector = {}
    for a, xa in x.items():
        base = a * d
        for b, yb in y.items():
            w = xa * yb
            if w:
                out[base + b] = w
    return out


class SparseMatrix:
    """Immutable sparse matrix; rows are vectors over column indices."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Vector], ncols: int):
        self.rows = tuple(_clean_vector(r, ncols, f"matrix row {n}") for n, r in enumerate(rows))
        self.nrows = len(self.rows)
        self.ncols = ncols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ncols, tuple(tuple(sorted(r.items())) for r in self.rows)))

    def __repr__(self) -> str:
        return f"SparseMatrix({self.nrows}x{self.ncols}, {sum(len(r) for r in self.rows)} entries)"


def _denominator_lcm(values) -> int:
    """LCM of the denominators of Fraction or int values."""
    den = 1
    for x in values:
        q = x.denominator
        if q != 1 and den % q:
            den = lcm(den, q)
    return den


def _integral(vec: Vector) -> tuple:
    """(w, D): D is the LCM of the denominators of vec and w == D * vec
    has int entries.  Zeros are dropped."""
    den = _denominator_lcm(vec.values())
    if den == 1:
        return {c: x.numerator for c, x in vec.items() if x}, 1
    return {c: x.numerator * (den // x.denominator) for c, x in vec.items() if x}, den


def _cancel(v: dict, a: int, row: dict, c: int) -> tuple:
    """Cancel the entry a that the int vector v had at column c, already
    removed from v, against the primitive row with pivot c.

    With a and the pivot coefficient divided by their gcd, v becomes
    b*v - a*row in place.  Returns (a, b).
    """
    b = row[c]
    if b != 1:
        g = gcd(a, b)
        a //= g
        b //= g
        if b != 1:
            for col in v:
                v[col] *= b
    for col, x in row.items():
        if col != c:
            y = v.get(col, 0) - a * x
            if y:
                v[col] = y
            else:
                v.pop(col, None)
    return a, b


class Echelon:
    """Incremental elimination basis for a growing set of rows.

    Stored rows are primitive integer vectors (coprime entries, positive
    pivot coefficient) and forward-reduced: every column of a stored row
    is >= its pivot.  An incoming vector is cleared of denominators by
    their LCM and eliminated by gcd-reduced cross-multiplication, so the
    elimination itself forms no Fraction.  With track=True each row
    carries a certificate expressing it over the inserted originals,
    which makes reduce() return exact membership certificates.

    Residues, pivots and certificates depend only on the span and the
    order of insertion, never on how the stored rows are scaled.
    """

    __slots__ = ("rows", "certs", "track", "_ntags")

    def __init__(self, track: bool = False):
        self.rows: dict = {}  # pivot column -> primitive int row
        self.certs: dict = {}  # pivot column -> {tag: rational}
        self.track = track
        self._ntags = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple:
        return tuple(sorted(self.rows))

    def _forward(self, vec: Vector):
        """Integer forward reduction of vec against the stored rows.

        Returns (w, scale, cert) with w free of pivot columns, scale a
        positive int, and w == scale*vec - sum(cert[t] * original_t);
        cert is None when tracking is off.
        """
        v, scale = _integral(vec)
        cert: Optional[dict] = {} if self.track else None
        rows = self.rows
        heap = [c for c in v if c in rows]
        heapq.heapify(heap)
        while heap:
            c = heapq.heappop(heap)
            a = v.pop(c, 0)
            if not a:
                continue
            row = rows[c]
            a, b = _cancel(v, a, row, c)
            for col in row:
                if col in rows and col != c:
                    heapq.heappush(heap, col)
            if cert is not None:
                if b != 1:
                    cert = {t: b * x for t, x in cert.items()}
                for t, x in self.certs[c].items():
                    y = cert.get(t, 0) + a * x
                    if y:
                        cert[t] = y
                    else:
                        cert.pop(t, None)
            scale *= b
        return v, scale, cert

    def reduce(self, vec: Vector):
        """Forward-reduce vec against the stored rows.

        Returns (residue, certificate).  The residue is a vector with no
        pivot columns, and residue == vec - sum(cert[t] * original_t)
        holds exactly when tracking is on (certificate is None otherwise).
        """
        v, scale, cert = self._forward(vec)
        if cert is not None:
            cert = {t: _ratio(x, scale) for t, x in cert.items()}
        residue = v if scale == 1 else {c: _ratio(x, scale) for c, x in v.items()}
        return residue, cert

    def insert(self, vec: Vector, tag=None):
        """Add vec to the span.  Returns the new pivot, or None if dependent."""
        if self.track and tag is None:
            tag = self._ntags
        self._ntags += 1
        v, scale, cert = self._forward(vec)
        if not v:
            return None
        p = min(v)
        g = gcd(*v.values())
        if v[p] < 0:
            # a positive pivot makes unit pivots 1, where _cancel scales nothing
            g = -g
        if g != 1:
            v = {c: x // g for c, x in v.items()}
        self.rows[p] = v
        if self.track:
            # the stored row is (scale*vec - sum(cert[t] * original_t)) / g
            rc = {t: _ratio(-x, g) for t, x in cert.items()}
            y = rc.get(tag, 0) + _ratio(scale, g)
            if y:
                rc[tag] = y
            else:
                rc.pop(tag, None)
            self.certs[p] = rc
        return p

    def contains(self, vec: Vector) -> bool:
        return not self._forward(vec)[0]

    def rref_rows(self) -> dict:
        """Fully reduced rows as {pivot: row}, pivot coefficient 1.

        One back-substitution pass from the last pivot to the first runs
        on the integer rows; each finished row is kept primitive, and
        only the emitted copy is divided by its pivot coefficient.
        """
        done: dict = {}  # pivot -> fully reduced primitive int row
        out: dict = {}
        for p in sorted(self.rows, reverse=True):
            r = dict(self.rows[p])
            for c in [c for c in r if c in done]:
                _cancel(r, r.pop(c), done[c], c)
            g = gcd(*r.values())
            if g != 1:
                r = {c: x // g for c, x in r.items()}
            done[p] = r
            pv = r[p]
            out[p] = {c: _ratio(x, pv) for c, x in r.items()}
        return out


def _echelon_of(rows: Sequence[Vector]) -> Echelon:
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    return ech


def echelon_rows(rows: Sequence[Vector]) -> dict:
    """RREF of the span of rows, as {pivot column: row}."""
    return _echelon_of(rows).rref_rows()


def rank_of_rows(rows: Sequence[Vector]) -> int:
    return _echelon_of(rows).rank


def kernel_basis(matrix: SparseMatrix) -> list:
    """Canonical basis of {v : M v = 0}, one vector per free column.

    The vector for free column j has coordinate 1 at j, the negated
    echelon entries at the pivot columns, and 0 elsewhere.
    """
    ech = echelon_rows(matrix.rows)
    pivset = set(ech)
    out = []
    for j in range(matrix.ncols):
        if j in pivset:
            continue
        v = {j: 1}
        for p, row in ech.items():
            x = row.get(j)
            if x:
                v[p] = -x
        out.append(v)
    return out


class QuotientPresentation:
    """Quotient of Q^ambient_dim by the span of relation rows.

    The quotient basis is indexed by the non-pivot (free) columns of the
    RREF of the relations, in increasing column order.  The canonical
    section sends quotient coordinate q to the ambient basis vector at
    free column q (all non-pivot coordinates other than q are zero), so
    project(section(w)) == w exactly and section(project(v)) - v lies in
    the relation span.

    relations holds the RREF row of each stored pivot.  A pivot c without
    a stored row is read through through = (image, lifts): project(e_c)
    is the sum over k of image[c][k] project(lifts[k]), each lift an
    ambient vector on free columns.  through is None when every row is
    stored.  pivots lists every pivot.
    """

    __slots__ = ("ambient_dim", "relations", "free_columns", "_qindex", "_image", "_lifts")

    def __init__(self, ambient_dim: int, relation_rows: dict, free_columns: tuple, through):
        self.ambient_dim = ambient_dim
        self.relations = relation_rows  # {pivot: rref row}
        self.free_columns = free_columns
        self._qindex = qi = {c: q for q, c in enumerate(free_columns)}
        self._image, lifts = through or (None, {})
        self._lifts = {k: {qi[c]: x for c, x in lift.items()} for k, lift in lifts.items()}

    @property
    def pivots(self) -> tuple:
        qi = self._qindex
        return tuple(c for c in range(self.ambient_dim) if c not in qi)

    @property
    def dim(self) -> int:
        return len(self.free_columns)

    def project(self, v: Vector) -> Vector:
        """Ambient vector to quotient coordinates; an integral sum is an int."""
        qi = self._qindex
        rel = self.relations
        out: Vector = {}
        through: Vector = {}
        for c, x in v.items():
            q = qi.get(c)
            if q is not None:
                y = out.get(q, 0) + x
                if y:
                    out[q] = y
                else:
                    out.pop(q, None)
            elif c in rel:
                for c2, v2 in rel[c].items():
                    if c2 != c:
                        q = qi[c2]  # rref rows touch no other pivot column
                        y = out.get(q, 0) - x * v2
                        if y:
                            out[q] = y
                        else:
                            out.pop(q, None)
            else:
                vec_add_scaled(through, self._image[c], x)
        for k, x in through.items():
            vec_add_scaled(out, self._lifts[k], x)
        for q, y in out.items():
            if type(y) is not int and y.denominator == 1:
                out[q] = y.numerator
        return out

    def __repr__(self) -> str:
        return f"QuotientPresentation(ambient={self.ambient_dim}, dim={self.dim})"


def quotient_space(ambient_dim: int, spanning: Sequence[Vector]) -> QuotientPresentation:
    """Presentation of Q^ambient_dim modulo the span of the given vectors."""
    rows = [_clean_vector(v, ambient_dim, f"relation {n}") for n, v in enumerate(spanning)]
    rref = echelon_rows(rows)
    free = tuple(c for c in range(ambient_dim) if c not in rref)
    return QuotientPresentation(ambient_dim, rref, free, None)

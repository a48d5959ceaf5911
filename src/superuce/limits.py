"""Directed systems of Lie superalgebras, colimits, and the limit theorem.

A directed system is a functor from a directed poset: one algebra per
element and one transition morphism per covering pair, the edges of the
poset's Hasse diagram.  Every other transition is composed along a path
of covers, f_ii = id is implicit, and where two cover paths join their
composites are checked to agree exactly.  A finite directed poset has a
greatest element t, and the colimit is the top member L_t with the
injections f_it.  The paper's theorem has its content in infinite rank;
here it is checked exactly on finite systems.

limit_u builds the extension of every member once, the lifted
transitions uce(f_ij) of the covers once, both colimits, colim L_i and
colim uce(L_i), and the canonical projection v between them, and keeps
them in one LimitUReport.  theorem_verify returns that report from one
limit_u call.
On a finite system both sides of the theorem are the extension of the
top member, and the comparison phi, the mediating map of the injections
of colim uce(L_i), is certified to be its identity; every other fact of
the theorem is a certificate that build_uce or factor_through has
already run, so the report carries no boolean of its own.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

from .algebra import (
    CertificateError,
    GradedLinearMap,
    LieSuperalgebra,
    ValidationReport,
    check_morphism,
)
from .uce import UceAlgebra, build_uce, uce_of_morphism


class InvalidSystemError(ValueError):
    """Raised when a directed system fails validation."""

    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report


class DirectedPoset:
    """Finite directed poset; the reflexive closure is taken automatically.

    A finite poset is directed exactly when it has a greatest element.
    covers lists the covering pairs i < j, with nothing strictly between
    them, in element order.
    """

    __slots__ = ("elements", "covers", "_leq", "_top")

    def __init__(self, elements: Sequence[Hashable], relation):
        self.elements = tuple(elements)
        if not self.elements:
            raise ValueError("a directed poset needs at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("poset elements must be distinct")
        known = set(self.elements)
        leq = {(i, i) for i in self.elements}
        for i, j in relation:
            if i not in known or j not in known:
                raise ValueError(f"relation pair ({i!r}, {j!r}) uses unknown elements")
            leq.add((i, j))
        for i, j in leq:
            if i != j and (j, i) in leq:
                raise ValueError(f"antisymmetry fails on {i!r}, {j!r}")
        for i, j in list(leq):
            for k in self.elements:
                if (j, k) in leq and (i, k) not in leq:
                    raise ValueError(f"transitivity fails: {i!r} <= {j!r} <= {k!r}")
        tops = [t for t in self.elements if all((i, t) in leq for i in self.elements)]
        if not tops:
            # without a greatest element there are two maximal ones
            a, b = [m for m in self.elements
                    if not any((m, k) in leq for k in self.elements if k != m)][:2]
            raise ValueError(f"no upper bound for {a!r}, {b!r}: poset is not directed")
        self._top = tops[0]
        self._leq = frozenset(leq)
        self.covers = tuple((i, j) for i, j in self.pairs() if i != j and not any(
            (i, k) in leq and (k, j) in leq for k in self.elements if k not in (i, j)))

    def leq(self, i, j) -> bool:
        return (i, j) in self._leq

    def top(self):
        """The greatest element."""
        return self._top

    def pairs(self) -> List[Tuple[Hashable, Hashable]]:
        """All related pairs (i, j) with i <= j, in element order."""
        return [(i, j) for i in self.elements for j in self.elements if (i, j) in self._leq]


class DirectedSystem:
    """Algebras over a directed poset with compatible transition maps.

    morphisms maps each covering pair (i, j) of the poset to its map
    L_i -> L_j.  transition(i, j) returns a cover's map as given and
    the identity for i == j; any other transition is composed along a
    path of covers, once, and cached.  A caller may also give the map of
    a pair that is not a cover; it is checked against that composite.
    The maps are checked at construction (validate_system).
    """

    __slots__ = ("poset", "algebras", "morphisms", "_transitions")

    def __init__(self, poset: DirectedPoset,
                 algebras: Dict[Hashable, LieSuperalgebra],
                 morphisms: Dict[Tuple[Hashable, Hashable], GradedLinearMap]):
        self.poset = poset
        self.algebras = dict(algebras)
        self.morphisms = dict(morphisms)
        self._transitions = {p: self.morphisms[p] for p in poset.covers if p in self.morphisms}
        report = validate_system(self)
        if not report.ok:
            raise InvalidSystemError(report)

    def transition(self, i, j) -> GradedLinearMap:
        if i == j:
            return GradedLinearMap.identity(self.algebras[i].basis)
        f = self._transitions.get((i, j))
        if f is None:
            if not self.poset.leq(i, j):
                raise KeyError((i, j))
            # through the first upper cover k of i below j: f_ji = f_jk . f_ki
            k = next(k for a, k in self.poset.covers if a == i and self.poset.leq(k, j))
            f = self._transitions[(i, j)] = self.transition(k, j).compose(self.morphisms[(i, k)])
        return f


def validate_system(system: DirectedSystem) -> ValidationReport:
    """Check the cover maps, and the composites where cover paths join.

    Each cover map is typed, graded and checked to respect brackets;
    every other transition is a composite of morphisms, hence one.  All
    cover paths from i to j agree when, at every element j with two or
    more lower covers k above i, the composites f_jk . f_ki agree; that
    is checked there and nowhere else, so a chain has nothing to compare.
    A map given for a pair that is no cover is typed and compared once
    with the composite.
    """
    report = ValidationReport()
    poset, algebras = system.poset, system.algebras
    for i in poset.elements:
        if i not in algebras:
            report.add("coverage", repr(i), "no algebra attached to this element")
    if not report.ok:
        return report
    for i, j in poset.pairs():
        f, cover = system.morphisms.get((i, j)), (i, j) in poset.covers
        if i == j:
            if f is not None and f != GradedLinearMap.identity(algebras[i].basis):
                report.add("identity", repr(i), "explicit self-transition is not the identity")
        elif f is None:
            if cover:
                report.add("coverage", f"{i!r} <= {j!r}", "missing transition map")
        elif f.domain != algebras[i].basis or f.codomain != algebras[j].basis:
            report.add("typing", f"{i!r} <= {j!r}", "transition endpoints do not match the algebras")
        elif cover and not f.is_parity_preserving():
            report.add("grading", f"{i!r} <= {j!r}", "transition is not parity preserving")
        elif cover and not check_morphism(f, algebras[i], algebras[j]):
            report.add("morphism", f"{i!r} <= {j!r}", "transition does not respect brackets")
    if not report.ok:
        return report
    for i, j in poset.pairs():
        if i == j or (i, j) in poset.covers:
            continue
        given = system.morphisms.get((i, j))
        if given is not None and given != system.transition(i, j):
            report.add("compatibility", f"{i!r} <= {j!r}",
                       "given transition disagrees with the composite along covers")
        ways = [k for k, top in poset.covers if top == j and poset.leq(i, k)]
        if len(ways) > 1 and any(system.transition(k, j).compose(system.transition(i, k))
                                 != system.transition(i, j) for k in ways):
            report.add("compatibility", f"{i!r} <= {j!r}",
                       f"cover paths from {i!r} disagree where they join at {j!r}")
    return report


def chain_system(algebras: Sequence[LieSuperalgebra],
                 maps: Sequence[GradedLinearMap]) -> DirectedSystem:
    """Totally ordered system 0 < 1 < ... from consecutive maps L_k -> L_{k+1}."""
    if len(maps) != len(algebras) - 1:
        raise ValueError("need one map fewer than algebras")
    n = len(algebras)
    poset = DirectedPoset(range(n), [(a, b) for a in range(n) for b in range(a + 1, n)])
    covers = {(k, k + 1): f for k, f in enumerate(maps)}
    return DirectedSystem(poset, dict(enumerate(algebras)), covers)


class Colimit:
    """Colimit of a finite directed system: the top member t, the
    algebra L_t and the injections f_it."""

    __slots__ = ("system", "top", "algebra", "injections")

    def __init__(self, system: DirectedSystem, top: Hashable, algebra: LieSuperalgebra,
                 injections: Dict[Hashable, GradedLinearMap]):
        self.system = system
        self.top = top
        self.algebra = algebra
        self.injections = injections


def colimit(system: DirectedSystem) -> Colimit:
    """The colimit of a finite directed system: its top member L_t.

    The injections are the transitions f_it; f_tt is the identity, so
    the top injection is an isomorphism and every other one is a map
    the system has already validated.
    """
    t = system.poset.top()
    injections = {i: system.transition(i, t) for i in system.poset.elements}
    return Colimit(system, t, system.algebras[t], injections)


def factor_through(colim: Colimit,
                   cones: Dict[Hashable, GradedLinearMap]) -> GradedLinearMap:
    """The unique map out of the colimit agreeing with a compatible cone.

    cones[i] maps system member i into a common codomain; compatibility
    cones[j] . f_ji == cones[i] is verified on the covers, which carries
    it along every cover path to every related pair.  The colimit is the
    top member t, so the mediating map is cones[t]; that it extends the
    cone at every member is verified too.
    """
    system = colim.system
    poset = system.poset
    codomain = None
    for i in poset.elements:
        g = cones.get(i)
        if g is None:
            raise ValueError(f"cone is missing a component at {i!r}")
        if codomain is None:
            codomain = g.codomain
        elif g.codomain != codomain:
            raise ValueError("cone components have different codomains")
    for i, j in poset.covers:
        if cones[j].compose(system.transition(i, j)) != cones[i]:
            raise ValueError(f"cone is not compatible over {i!r} <= {j!r}")
    mediating = cones[colim.top]
    for i in poset.elements:
        if mediating.compose(colim.injections[i]) != cones[i]:
            raise CertificateError(f"mediating map does not extend the cone at {i!r}")
    return mediating


# ------------------------------------------------------- central extensions of systems

def uce_system(system: DirectedSystem) -> Tuple[DirectedSystem, Dict[Hashable, UceAlgebra]]:
    """Apply the central-extension construction to every member and cover.

    Builds one extension per member and lifts each cover's map once; the
    other transitions of the system of extensions are their composites.
    Returns the system of extensions and the member extensions.
    """
    exts = {i: build_uce(system.algebras[i]) for i in system.poset.elements}
    algebras = {i: exts[i].lie for i in system.poset.elements}
    morphisms = {(i, j): uce_of_morphism(system.transition(i, j), source=exts[i], target=exts[j])
                 for i, j in system.poset.covers}
    return DirectedSystem(system.poset, algebras, morphisms), exts


class LimitUReport:
    """The canonical projection v: colim uce(L_i) -> colim L_i, with both
    colimits and the member extensions it was built from.

    factor_through certified that v equals the top member's extension
    u_t column for column (see limit_u), so the rest is read off
    ext_top = exts[colim.top]: kernel is ext_top.kernel itself, central
    because build_uce certifies it so (site uce.py:build_uce#1), and v
    is surjective exactly when L_t is perfect.  The dimensions of the
    theorem are read off the same fields: colim.algebra is L_t,
    ext_top and colim_uce.algebra are uce(L_t).
    """

    __slots__ = ("map", "colim_uce", "colim", "exts")

    def __init__(self, map: GradedLinearMap, colim_uce: Colimit, colim: Colimit,
                 exts: Dict[Hashable, UceAlgebra]):
        self.map = map
        self.colim_uce = colim_uce
        self.colim = colim
        self.exts = exts

    @property
    def kernel(self) -> tuple:
        return self.exts[self.colim.top].kernel

    @property
    def surjective(self) -> bool:
        return self.exts[self.colim.top].perfect


def limit_u(system: DirectedSystem) -> LimitUReport:
    """Canonical map from the colimit of extensions onto the colimit.

    Builds both colimits and the member extensions once and keeps them
    in the report.  factor_through certifies that the map equals u_t
    column for column, so the report reads its kernel, centrality and
    surjectivity off the top member's extension (see LimitUReport).
    """
    colim = colimit(system)
    usys, exts = uce_system(system)
    uce_colim = colimit(usys)
    cones = {i: colim.injections[i].compose(exts[i].u) for i in system.poset.elements}
    v = factor_through(uce_colim, cones)
    return LimitUReport(v, uce_colim, colim, exts)


def theorem_verify(system: DirectedSystem) -> LimitUReport:
    """Certify colim uce(L_i) ~ uce(colim L_i) for a system of perfect algebras.

    Returns the report of its one limit_u call: the colimits, member
    extensions, lifted transitions and canonical projection v.  The
    colimit is the top member L_t, and colim uce(L_i) is the top
    member's extension uce(L_t), whose kernel is ker v.  phi is the
    mediating map of the cone of the injections uce(f_it) of
    colim uce(L_i); it is the lifted transition uce(f_tt), and it is
    certified, once, to be the identity of uce(L_t) (CertificateError,
    naming t, otherwise).  So a returned report means phi is a bijective
    morphism that restricts to the identity between ker v and the
    kernel of uce(L_t).  psi sends the class e_q of the pair (a, b)
    (see UceAlgebra.free_pairs) to a bracket of u-preimages of b_a and
    b_b, and the extension bracket is [x, y] = class_of(u x, u y) by
    the construction of its table, so that bracket is
    class_of(b_a, b_b) = e_q: psi = id = phi^-1.

    Raises ValueError, naming the first member in element order that is
    not perfect (see UceAlgebra.perfect), before phi is built.
    """
    proj = limit_u(system)
    for i in system.poset.elements:
        if not proj.exts[i].perfect:
            raise ValueError(f"member {i!r} is not perfect")
    uce_colim, top = proj.colim_uce, proj.colim.top
    phi = factor_through(uce_colim, uce_colim.injections)
    if phi != GradedLinearMap.identity(proj.exts[top].lie.basis):
        raise CertificateError(
            f"comparison map colim uce(L_i) -> uce(L_{top!r}) is not the identity"
        )
    return proj


def induced_colimit_map(src: Colimit, dst: Colimit,
                        components: Dict[Hashable, GradedLinearMap]) -> GradedLinearMap:
    """Colimit of a morphism of systems over the same poset.

    components[i] : src member i -> dst member i must commute with the
    transition maps of both systems; it is checked on the covers, which
    carries it along every cover path.
    """
    sp, dp = src.system.poset, dst.system.poset
    if sp.elements != dp.elements or sp.covers != dp.covers:
        raise ValueError("systems live over different posets")
    for i, j in sp.covers:
        lhs = components[j].compose(src.system.transition(i, j))
        rhs = dst.system.transition(i, j).compose(components[i])
        if lhs != rhs:
            raise ValueError(f"components do not commute over {i!r} <= {j!r}")
    cones = {i: dst.injections[i].compose(components[i]) for i in sp.elements}
    out = factor_through(src, cones)
    if not check_morphism(out, src.algebra, dst.algebra):
        raise CertificateError(
            f"induced map {src.algebra!r} -> {dst.algebra!r} fails to be a morphism"
        )
    return out

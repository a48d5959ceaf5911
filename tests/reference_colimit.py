"""Reference colimit: the direct-sum construction.

The colimit of a finite directed system presented as the direct sum of
all members modulo the identifications iota_i(x) - iota_j(f_ji x), with
the bracket routed through a common upper bound, and the mediating map
of a cone built component by component.  superuce.limits returns the
top member instead; tests require the two to be isomorphic through the
mediating map, compatibly with every injection.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List, Tuple

import superuce
from superuce import (
    CertificateError,
    DirectedPoset,
    DirectedSystem,
    GradedBasis,
    GradedLinearMap,
    check_morphism,
)
from superuce.linalg import Vector, quotient_space, vec_add_scaled
import unvalidated

ONE = Fraction(1)


def upper_bound(poset: DirectedPoset, i, j):
    """First element in declaration order above both i and j."""
    for k in poset.elements:
        if poset.leq(i, k) and poset.leq(j, k):
            return k
    raise CertificateError(f"no upper bound for {i!r}, {j!r} in a validated directed poset")


class ReferenceColimit:
    """Colimit algebra with its presentation and structure injections."""

    __slots__ = ("system", "algebra", "presentation", "offsets", "injections", "components")

    def __init__(self, system, algebra, presentation, offsets, injections, components):
        self.system = system
        self.algebra = algebra
        self.presentation = presentation
        self.offsets = offsets
        self.injections = injections
        # (member, index in the member) of each colimit basis element
        self.components = components

    def injection(self, i) -> GradedLinearMap:
        return self.injections[i]


def colimit(system: DirectedSystem) -> ReferenceColimit:
    """Present the colimit on the direct sum modulo the identifications.

    The bracket is inherited from the members, so the algebra is built
    without re-validation; when the poset has a top element, its
    injection is certified to be an isomorphism.
    """
    poset = system.poset
    offsets: Dict[Hashable, int] = {}
    amb_labels: List[str] = []
    amb_parities: List[int] = []
    total = 0
    for i in poset.elements:
        L = system.algebras[i]
        offsets[i] = total
        total += L.dim
        amb_labels.extend(f"{i}:{lab}" for lab in L.basis.labels)
        amb_parities.extend(L.basis.parities)

    rows: List[Vector] = []
    for i, j in poset.pairs():
        if i == j:
            continue
        f = system.transition(i, j)
        oi, oj = offsets[i], offsets[j]
        for b in range(system.algebras[i].dim):
            row: Vector = {oi + b: ONE}
            vec_add_scaled(row, {oj + c: x for c, x in f.columns[b].items()}, -ONE)
            if row:
                rows.append(row)
    pres = quotient_space(total, rows)

    components: List[Tuple[Hashable, int]] = []
    bounds = list(offsets.items())
    for col in pres.free_columns:
        for i, off in reversed(bounds):
            if col >= off:
                components.append((i, col - off))
                break
    labels = [amb_labels[c] for c in pres.free_columns]
    parities = [amb_parities[c] for c in pres.free_columns]
    basis = GradedBasis(labels, parities)

    transitions = {(i, j): system.transition(i, j) for i, j in poset.pairs()}
    table = []
    for i, a in components:
        row = []
        for j, b in components:
            k = upper_bound(poset, i, j)
            x = transitions[(i, k)].columns[a]
            y = transitions[(j, k)].columns[b]
            z = system.algebras[k].bracket(x, y)
            ok = offsets[k]
            row.append(pres.project({ok + c: v for c, v in z.items()}))
        table.append(row)
    alg = unvalidated.lie(basis, table)

    injections = {}
    for i in poset.elements:
        L = system.algebras[i]
        oi = offsets[i]
        cols = [pres.project({oi + b: ONE}) for b in range(L.dim)]
        injections[i] = GradedLinearMap(L.basis, basis, cols)
    t = poset.top()
    if t is not None and not injections[t].is_bijective():
        raise CertificateError(f"injection from the top element {t!r} is not an isomorphism")
    return ReferenceColimit(system, alg, pres, offsets, injections, components)


def factor_through(colim: ReferenceColimit,
                   cones: Dict[Hashable, GradedLinearMap]) -> GradedLinearMap:
    """The unique map out of the colimit agreeing with a compatible cone.

    cones[i] maps system member i into a common codomain; compatibility
    cones[j] . f_ji == cones[i] is verified, as is the factorization.
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
    for i, j in poset.pairs():
        if i == j:
            continue
        if cones[j].compose(system.transition(i, j)) != cones[i]:
            raise ValueError(f"cone is not compatible over {i!r} <= {j!r}")
    cols = [dict(cones[i].columns[b]) for i, b in colim.components]
    mediating = GradedLinearMap(colim.algebra.basis, codomain, cols)
    for i in poset.elements:
        if mediating.compose(colim.injections[i]) != cones[i]:
            raise CertificateError(f"mediating map does not extend the cone at {i!r}")
    return mediating


def check_against_reference(colim) -> ReferenceColimit:
    """Assert that colim, a top-member colimit, matches the reference.

    The mediating map from colim to the reference colimit, of the cone
    of reference injections, must be a bijective morphism that commutes
    with every injection.  Returns the reference colimit.
    """
    ref = colimit(colim.system)
    if colim.algebra.dim != ref.algebra.dim:
        raise AssertionError(f"dimensions differ: {colim.algebra.dim} != {ref.algebra.dim}")
    m = superuce.factor_through(colim, dict(ref.injections))
    if not (m.is_bijective() and check_morphism(m, colim.algebra, ref.algebra)):
        raise AssertionError("mediating map to the reference is not an isomorphism")
    for i in colim.system.poset.elements:
        if m.compose(colim.injections[i]) != ref.injection(i):
            raise AssertionError(f"mediating map does not commute with the injection at {i!r}")
    return ref

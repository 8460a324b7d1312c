"""Chamber and corner decomposition of the positive cone.

A positive-cone class is sorted by the signs of its pairings with the model's
curves: interior (all positive), a corner (zero on a set G), a chamber
(negative on G), or mixed.  The constructive operations move classes between
these strata with exact rational witnesses.  Every corner and chamber
shift, and the planner's sweep, moves a class by sum (N v)_i e_i
for N = -M^{-1} on G: one routine (_neg_apply) computes N v in integers,
component by component of G, and G's Support keeps the far class
sum (N 1)_i e_i (_far).  A corner pairs alpha with G's curves in integers
and writes alpha + sum (N v)_i e_i as one integer combination, building no
Fraction.  This module computes classes and points only:
certificates, including the one for a reflection across a curve wall, come
from the planner.

"Kähler" below always means the model predicate: positive square, positive
pairing with the reference class, and strictly positive pairing with every
declared curve.  Asserting it requires the model's completeness flag.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Sequence

from . import linalg
from .errors import (
    DefinitenessError,
    DomainError,
    PreconditionError,
    PropertyViolationError,
    SearchFailureError,
    SingularityError,
)
from .lattice import ClassVector, CurveModel, Frozen, IntersectionLattice, Support


class Membership(enum.Enum):
    INTERIOR_KAHLER = "interior-kahler"
    CORNER = "corner"
    CHAMBER = "chamber"
    MIXED_BOUNDARY = "mixed-boundary"


class Classification(Frozen):
    """A class's stratum, its vanishing or negative set, and its pairings
    with the declared curves: scaled, d times each pairing for d the class's
    denominator, and as Fractions (pairings), made on their first read."""

    membership: Membership
    descriptor: Support
    scaled: tuple[int, ...]
    denominator: int

    @cached_property
    def pairings(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.denominator) for x in self.scaled)


def descriptor_for(model: CurveModel, indices: Sequence[int]) -> Support:
    """The model's Support of a set of curve indices."""
    return model.support(indices)


def _admissible_descriptor(model: CurveModel, G) -> Support:
    """G, a Support or curve indices, as the model's nonempty admissible
    Support of it.  A Support is looked up again by its indices, so one from
    another model never lends its Gram or inverse."""
    support = model.support(G.indices) if isinstance(G, Support) else descriptor_for(model, G)
    if not support.indices:
        raise PreconditionError("empty curve set")
    if not support.admissible:
        raise DefinitenessError(
            "curve set is not admissible (restricted Gram is not negative definite)"
        )
    return support


def classify(model: CurveModel, alpha: ClassVector) -> Classification:
    """Sort a positive-cone class by its pairings with the declared curves.

    Total on the positive cone: an inadmissible vanishing set is reported via
    the descriptor's admissible flag, not raised, so degenerate models can
    still be inspected.  Constructive operations reject such descriptors.
    """
    if not model.lattice.is_positive_cone(alpha):
        raise DomainError("class is not in the positive cone")
    # the curves are integral: these are d_alpha times the pairings
    scaled = model._row(alpha)[1:]
    boundary = tuple(i for i, x in enumerate(scaled) if x <= 0)
    descriptor = descriptor_for(model, boundary)
    if not boundary:
        tag = Membership.INTERIOR_KAHLER
    elif all(scaled[i] == 0 for i in boundary):
        tag = Membership.CORNER
    elif all(scaled[i] < 0 for i in boundary):
        tag = Membership.CHAMBER
    else:
        tag = Membership.MIXED_BOUNDARY
    # unchecked: every field has the type it is annotated with
    return Classification._unchecked(tag, descriptor, scaled, alpha.integer_form[0])


def reflect(lattice: IntersectionLattice, alpha: ClassVector, e: ClassVector) -> ClassVector:
    """R_e(alpha) = alpha - 2(alpha.e / e.e) e; involutive isometry."""
    ee = lattice.square(e)
    if ee == 0:
        raise SingularityError("cannot reflect along a class of square zero")
    factor = 2 * lattice.pair(alpha, e) / ee
    return alpha.add_multiple(e, -factor)


def _neg_apply(model: CurveModel, support: Support, values: Sequence) -> tuple[dict[int, int], int]:
    """({i: n_i}, m q) with N values = n / (m q), for N = -M^{-1} on each
    component of the admissible support: values are rationals, one per index
    in order, scaled to integers by q, the lcm of their denominators; m is
    the lcm of the components' determinants.  Each component's -M^{-1} is
    the model's, kept with its Support, and applied in integers."""
    q = lcm(*(x.denominator for x in values))
    scaled = dict(zip(support.indices, (x.numerator * (q // x.denominator) for x in values), strict=True))
    inverses = [(comp, model._support(comp).inverse) for comp in support.components()]
    m = lcm(*(inverse.det for _, inverse in inverses))
    out = {}
    for comp, inverse in inverses:
        for i, row in zip(comp, inverse.adjugate):
            out[i] = m // inverse.det * sum(a * scaled[j] for a, j in zip(row, comp))
    return out, m * q


def _far(model: CurveModel, locus: Support) -> tuple[ClassVector, int, dict[int, int]]:
    """(far, m, ones) for an admissible locus, kept with its Support: N 1 is
    ones / m by index (_neg_apply), and far = sum (N 1)_i e_i pairs exactly
    -1 with each curve of the locus."""
    if locus.sweep is None:
        ones, m = _neg_apply(model, locus, [1] * len(locus.indices))
        far = model._shifted(ClassVector.zero(model.lattice.rank), ones.items(), m)
        locus.sweep = far, m, ones
    return locus.sweep


def corner_point(model: CurveModel, alpha: ClassVector, G) -> ClassVector:
    """Push alpha onto the corner of G: alpha' = alpha + sum t_i e_i with
    t = -M^{-1} v, where v_i = pair(alpha, e_i) must all be positive.  With
    M t = -v, alpha'^2 = alpha^2 + t.v > alpha^2.  In integers: alpha = X / d
    pairs G's curves in d v, -M^{-1} (d v) = n / m (_neg_apply), and
    alpha' = (m X + sum n_i e_i) / (m d)."""
    lat = model.lattice
    if not lat.is_positive_cone(alpha):
        raise DomainError("class is not in the positive cone")
    descriptor = _admissible_descriptor(model, G)
    # the curves are integral: these are d_alpha times the pairings
    v = lat.scaled_pairings(alpha, [model.curves[i].vector for i in descriptor.indices])
    if any(x <= 0 for x in v):
        raise PreconditionError("alpha must pair strictly positively with every curve in G")
    n, m = _neg_apply(model, descriptor, v)
    result = model._shifted(alpha, n.items(), m * alpha.integer_form[0])
    if not lat.is_positive_cone(result):
        raise PropertyViolationError("corner point left the positive cone")
    return result


def chamber_point(model: CurveModel, alpha_corner: ClassVector, G, epsilon) -> ClassVector:
    """From a G-corner class, step into the G-chamber: the result
    alpha_corner + epsilon far pairs exactly -epsilon with every curve of G.
    epsilon is halved (at most 64 times) until the result stays in the
    positive cone."""
    descriptor = _admissible_descriptor(model, G)
    eps = linalg.as_fraction(epsilon)
    if eps <= 0:
        raise PreconditionError("epsilon must be positive")
    lat = model.lattice
    for i in descriptor.indices:
        c = model.curves[i]
        if lat.pair(alpha_corner, c.vector) != 0:
            raise PreconditionError(f"class does not lie on the corner of {c.label!r}")
    far = _far(model, descriptor)[0]
    for _ in range(64):
        result = alpha_corner.add_multiple(far, eps)
        if lat.is_positive_cone(result):
            return result
        eps = eps / 2
    raise SearchFailureError("no epsilon kept the chamber point in the positive cone")

"""Chamber and corner decomposition of the positive cone.

A positive-cone class is sorted by the signs of its pairings with the model's
curves: interior (all positive), a corner (zero on a set G), a chamber
(negative on G), or mixed.  The constructive operations move classes between
these strata with exact rational witnesses; every corner, chamber and
interior shift is the one product s = -M^{-1} values over G.  This module
computes classes and points only: certificates, including the one for a
reflection across a curve wall, come from the planner.

"Kähler" below always means the model predicate: positive square, positive
pairing with the reference class, and strictly positive pairing with every
declared curve.  Asserting it requires the model's completeness flag.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
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
from .lattice import (
    ClassVector,
    CurveData,
    CurveModel,
    IntersectionLattice,
    is_negative_definite,
    neg_inverse,
)


class Membership(enum.Enum):
    INTERIOR_KAHLER = "interior-kahler"
    CORNER = "corner"
    CHAMBER = "chamber"
    MIXED_BOUNDARY = "mixed-boundary"


@dataclass(frozen=True)
class ChamberDescriptor:
    """A set G of curve indices with its integer Gram and its definiteness."""

    curve_indices: tuple[int, ...]
    gram_restriction: tuple[tuple[int, ...], ...]
    admissible: bool


@dataclass(frozen=True)
class Classification:
    membership: Membership
    descriptor: ChamberDescriptor
    pairings: tuple[Fraction, ...]


def descriptor_for(model: CurveModel, indices: Sequence[int]) -> ChamberDescriptor:
    idx = tuple(sorted(set(int(i) for i in indices)))
    gram = model.curve_gram(idx)
    return ChamberDescriptor(
        curve_indices=idx,
        gram_restriction=gram,
        admissible=is_negative_definite(gram),
    )


def _admissible_descriptor(model: CurveModel, G) -> ChamberDescriptor:
    """G, a descriptor or curve indices, as a nonempty admissible descriptor."""
    descriptor = G if isinstance(G, ChamberDescriptor) else descriptor_for(model, G)
    if not descriptor.curve_indices:
        raise PreconditionError("empty curve set")
    if not descriptor.admissible:
        raise DefinitenessError(
            "curve set is not admissible (restricted Gram is not negative definite)"
        )
    return descriptor


def classify(model: CurveModel, alpha: ClassVector) -> Classification:
    """Sort a positive-cone class by its pairings with the declared curves.

    Total on the positive cone: an inadmissible vanishing set is reported via
    the descriptor's admissible flag, not raised, so degenerate models can
    still be inspected.  Constructive operations reject such descriptors.
    """
    if not model.lattice.is_positive_cone(alpha):
        raise DomainError("class is not in the positive cone")
    pairings = model.pairings_with(alpha)
    boundary = tuple(i for i, v in enumerate(pairings) if v <= 0)
    descriptor = descriptor_for(model, boundary)
    if not boundary:
        tag = Membership.INTERIOR_KAHLER
    elif all(pairings[i] == 0 for i in boundary):
        tag = Membership.CORNER
    elif all(pairings[i] < 0 for i in boundary):
        tag = Membership.CHAMBER
    else:
        tag = Membership.MIXED_BOUNDARY
    return Classification(membership=tag, descriptor=descriptor, pairings=pairings)


def reflect(lattice: IntersectionLattice, alpha: ClassVector, e: ClassVector) -> ClassVector:
    """R_e(alpha) = alpha - 2(alpha.e / e.e) e; involutive isometry."""
    ee = lattice.square(e)
    if ee == 0:
        raise SingularityError("cannot reflect along a class of square zero")
    factor = 2 * lattice.pair(alpha, e) / ee
    return alpha - e.scale(factor)


def _shift(
    model: CurveModel, descriptor: ChamberDescriptor, values: Sequence
) -> tuple[tuple[Fraction, ...], ClassVector]:
    """s = -M^{-1} values over the admissible G, with the class sum s_i e_i:
    it pairs exactly -values_j with each e_j in G."""
    s = linalg.mat_vec(neg_inverse(descriptor.gram_restriction), values)
    return s, model.combination(descriptor.curve_indices, s)


def corner_point(model: CurveModel, alpha: ClassVector, G) -> ClassVector:
    """Push alpha onto the corner of G: alpha' = alpha + sum t_i e_i with
    t = -M^{-1} v, where v_i = pair(alpha, e_i) must all be positive."""
    lat = model.lattice
    if not lat.is_positive_cone(alpha):
        raise DomainError("class is not in the positive cone")
    descriptor = _admissible_descriptor(model, G)
    curves = [model.curves[i] for i in descriptor.curve_indices]
    v = [lat.pair(alpha, c.vector) for c in curves]
    if any(value <= 0 for value in v):
        raise PreconditionError("alpha must pair strictly positively with every curve in G")
    t, shift = _shift(model, descriptor, v)
    if any(coeff <= 0 for coeff in t):
        raise PropertyViolationError("corner shift coefficient is not positive")
    result = alpha + shift
    for curve in curves:
        if lat.pair(result, curve.vector) != 0:
            raise PropertyViolationError("corner point does not vanish on G")
    if lat.square(result) < lat.square(alpha):
        raise PropertyViolationError("corner point decreased the square")
    if not lat.is_positive_cone(result):
        raise PropertyViolationError("corner point left the positive cone")
    return result


def chamber_point(model: CurveModel, alpha_corner: ClassVector, G, epsilon) -> ClassVector:
    """From a G-corner class, step into the G-chamber: the result pairs
    exactly -epsilon with every curve of G.  epsilon is halved (at most 64
    times) until the result stays in the positive cone."""
    descriptor = _admissible_descriptor(model, G)
    eps = linalg.as_fraction(epsilon)
    if eps <= 0:
        raise PreconditionError("epsilon must be positive")
    lat = model.lattice
    curves = [model.curves[i] for i in descriptor.curve_indices]
    for c in curves:
        if lat.pair(alpha_corner, c.vector) != 0:
            raise PreconditionError(f"class does not lie on the corner of {c.label!r}")
    _, shift = _shift(model, descriptor, [1] * len(curves))
    for _ in range(64):
        result = alpha_corner + shift.scale(eps)
        if lat.is_positive_cone(result):
            for curve in curves:
                if lat.pair(result, curve.vector) != -eps:
                    raise PropertyViolationError("chamber point pairing is not -epsilon")
            return result
        eps = eps / 2
    raise SearchFailureError("no epsilon kept the chamber point in the positive cone")


def boundary_to_interior(
    model: CurveModel, alpha_corner: ClassVector, G, v: Sequence
) -> tuple[tuple[Fraction, ...], Fraction]:
    """Exact data for walking a corner class back into the interior.

    Returns (s, r_max_hint) with s = -M^{-1} v, so that sum_i s_i e_i pairs
    exactly -v_j with each e_j in G; r_max_hint is the largest dyadic r <= 1
    for which alpha - r sum s_i e_i is interior-Kähler.
    """
    descriptor = _admissible_descriptor(model, G)
    lat = model.lattice
    curves = [model.curves[i] for i in descriptor.curve_indices]
    vv = [linalg.as_fraction(x) for x in v]
    if len(vv) != len(curves):
        raise PreconditionError("v must give one value per curve of G")
    if any(value <= 0 for value in vv):
        raise PreconditionError("v must be entrywise positive")
    s, shift = _shift(model, descriptor, vv)
    if any(value <= 0 for value in s):
        # contradicts the sign structure of -M^{-1}; Gram data must be bad
        raise PropertyViolationError("boundary shift has a non-positive coefficient")
    for value, curve in zip(vv, curves):
        if lat.pair(shift, curve.vector) != -value:
            raise PropertyViolationError("shift identity sum s_i e_i . e_j = -v_j failed")
    r, _ = model.first_interior_scale(alpha_corner, shift, (Fraction(1, 2**j) for j in range(64)))
    if r is None:
        raise SearchFailureError("no dyadic r <= 1 made the shifted class interior-Kähler")
    return s, r


def single_curve_shift(model: CurveModel, alpha: ClassVector, e: CurveData) -> Fraction:
    """Rational s with alpha^2 + 2s|alpha.e| > s^2 k > 2s|alpha.e|, for a class
    pairing negatively with the single curve e of square -k.  The shifted
    class beta = alpha - s e then pairs positively with e, has positive
    square, and pairs positively with alpha (all verified exactly)."""
    lat = model.lattice
    if not lat.is_positive_cone(alpha):
        raise PreconditionError("alpha must lie in the positive cone")
    w = lat.pair(alpha, e.vector)
    if w >= 0:
        raise PreconditionError("alpha must pair negatively with the curve")
    k = -lat.square(e.vector)
    a2 = lat.square(alpha)
    lower = 2 * (-w) / k
    delta = Fraction(1)
    for _ in range(64):
        s = lower + delta
        if a2 + 2 * s * (-w) > s * s * k:
            beta = alpha - e.vector.scale(s)
            if lat.pair(beta, e.vector) <= -w:
                raise PropertyViolationError("shifted class does not clear |alpha(e)|")
            if lat.square(beta) <= 0:
                raise PropertyViolationError("shifted class has non-positive square")
            if lat.pair(beta, alpha) <= 0:
                raise PropertyViolationError("shifted class does not pair positively with alpha")
            return s
        delta = delta / 2
    raise SearchFailureError("no rational shift satisfied the two inequalities")

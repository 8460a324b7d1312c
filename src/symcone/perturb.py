"""Floating-point study of tangency splitting.

A branch difference g(z) = a z^k + c z^(k+1) with a k-fold tangency at the
origin, pushed off by a constant eps^2, must meet zero in exactly k transverse
points near the scaled k-th roots of unity.  This module checks that
numerically: damped Newton from the predicted seeds, transversality, and a
log-log fit of the seed-to-root distance against eps (theoretical slope 4/k).
A root is transverse when g'(z) != 0, which for a holomorphic g is exactly
when the Wirtinger sign |g_z|^2 - |g_zbar|^2 = |g'|^2 is positive; each record
keeps that sign as a double, which reads 0 once |g'| is below about 2e-162
(z^6 at eps = 1e-100, z^3 at eps = 1e-150), though the root is transverse.

Everything else in the package is exact rational arithmetic; this module alone
works in doubles.
"""

from __future__ import annotations

import cmath
import math
import statistics
import sys
from typing import Sequence

from .errors import (
    MalformedInputError,
    NumericalFailureError,
    PropertyViolationError,
    RangeError,
)
from .lattice import Frozen

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
DISTINCT_TOL = 1e-10
EXCLUDE_DISTANCE = 1e-14


class LocalCurveModel(Frozen):
    """One local branch difference g(z) = a z^k + c z^(k+1), c the remainder
    coefficient (default 0, a pure monomial); |c| bounds the remainder."""

    leading: complex
    order: int
    remainder: complex = 0

    def __post_init__(self):
        for name, x in (("leading", self.leading), ("remainder", self.remainder)):
            if not (isinstance(x, (int, float, complex)) and cmath.isfinite(x)):
                raise MalformedInputError(f"{name} coefficient must be finite, not {x!r}")
        if self.leading == 0:
            raise MalformedInputError("leading coefficient must be nonzero")
        if not isinstance(self.order, int) or self.order < 1:
            raise MalformedInputError("order must be a positive integer")

    def value(self, z: complex) -> complex:
        out = self.leading * z**self.order
        # a zero c adds no 0 z^(k+1) term, which could flip the sign of a
        # zero imaginary part
        if self.remainder:
            out += self.remainder * z ** (self.order + 1)
        return out

    def derivative(self, z: complex) -> complex:
        out = self.order * self.leading * z ** (self.order - 1)
        if self.remainder:
            out += (self.order + 1) * self.remainder * z**self.order
        return out


def r_epsilon(models: Sequence[LocalCurveModel], eps: float) -> float:
    """Localization radius R = max_i (2 eps / |a_i|)^(1/k_i).

    Admits eps only when eps^2 is a normal double, sqrt(R) < min_i |a_i| /
    (2 |c_i|) and every predicted root lies inside the disk of radius R;
    otherwise raises a range error naming the violated bound."""
    models = tuple(models)
    if not models:
        raise MalformedInputError("need at least one local model")
    eps = float(eps)
    if not math.isfinite(eps):
        raise MalformedInputError(f"eps must be finite, not {eps!r}")
    if eps <= 0:
        raise MalformedInputError("eps must be positive")
    if eps * eps < sys.float_info.min:
        raise RangeError(f"eps = {eps!r} is too small: eps^2 is not a normal double")
    radius = max((2 * eps / abs(m.leading)) ** (1.0 / m.order) for m in models)
    # halved last: 2|c| overflows to inf, and the cap to 0, once |c| > 9e307
    caps = [abs(m.leading) / abs(m.remainder) / 2 for m in models if m.remainder]
    if caps and not math.sqrt(radius) < min(caps):
        raise RangeError(
            f"smallness bound violated: sqrt(R) = {math.sqrt(radius):.6g} "
            f"is not below min |a|/(2c) = {min(caps):.6g}"
        )
    for index, m in enumerate(models):
        seed_scale = (eps * eps / abs(m.leading)) ** (1.0 / m.order)
        if not seed_scale < radius:
            raise RangeError(
                f"containment bound violated: model {index} predicts roots at "
                f"|z| = {seed_scale:.6g}, not inside R = {radius:.6g}"
            )
    return radius


class IntersectionRecord(Frozen):
    model_index: int
    root_index: int
    point: complex
    sign: float
    distance: float
    seed: complex


def _newton(model: LocalCurveModel, target: complex, seed: complex) -> complex:
    z = seed
    tol = NEWTON_TOL * abs(target)  # relative, so the test scales with eps^2
    for _ in range(NEWTON_MAX_ITER):
        residual = model.value(z) - target
        if abs(residual) <= tol:
            return z
        slope = model.derivative(z)
        if slope == 0:
            raise NumericalFailureError("zero derivative during Newton iteration")
        step = residual / slope
        damping = 1.0
        for _ in range(30):
            z_next = z - damping * step
            if abs(model.value(z_next) - target) < abs(residual):
                break
            damping /= 2
        else:
            raise NumericalFailureError("Newton damping failed to reduce the residual")
        z = z_next
    if abs(model.value(z) - target) <= tol:
        return z
    raise NumericalFailureError(
        f"Newton did not converge within {NEWTON_MAX_ITER} iterations"
    )


def perturbed_intersections(
    models: Sequence[LocalCurveModel], eps: float
) -> tuple[IntersectionRecord, ...]:
    """Solve g_i(z) = eps^2 near each predicted root for every model.

    Exactly k_i distinct solutions per model, all inside the localization
    disk, all transverse (g'(z) != 0); any miss raises.  One coincidence
    test: each root must lie more than DISTINCT_TOL r from every root before
    it, r the smaller of their seed moduli |eps^2/a|^(1/k) (one value within
    a model, up to rounding), so the test scales with the roots."""
    models = tuple(models)
    radius = r_epsilon(models, eps)
    target = complex(float(eps) ** 2)
    records: list[IntersectionRecord] = []
    for index, model in enumerate(models):
        k = model.order
        base = (target / model.leading) ** (1.0 / k)
        for j in range(k):
            seed = base * cmath.exp(2j * cmath.pi * j / k)
            z = _newton(model, target, seed)
            for rec in records:
                if abs(rec.point - z) <= DISTINCT_TOL * min(abs(rec.seed), abs(seed)):
                    if rec.model_index == index:
                        raise PropertyViolationError(
                            f"model {index}: solutions {rec.root_index} and {j} coincide; "
                            f"expected {k} distinct intersections"
                        )
                    raise PropertyViolationError(f"solutions of models {rec.model_index} and {index} coincide")
            if not abs(z) < radius:
                raise PropertyViolationError(
                    f"model {index}: solution at |z| = {abs(z):.6g} escapes the "
                    f"localization disk R = {radius:.6g}"
                )
            slope = model.derivative(z)
            if slope == 0:
                raise PropertyViolationError(f"model {index}: g'(z) = 0 at solution {j}, not transverse")
            # g' can overflow to a non-finite number without raising, as
            # 2 * 1e308 does, and then so does the sign
            try:
                sign = abs(slope) ** 2
            except OverflowError:
                sign = math.inf
            if not math.isfinite(sign):
                raise RangeError(f"model {index}: |g'|^2 at solution {j} overflows a double")
            records.append(
                IntersectionRecord(
                    model_index=index,
                    root_index=j,
                    point=z,
                    sign=sign,
                    distance=abs(z - seed),
                    seed=seed,
                )
            )
    return tuple(records)


class SlopeReport(Frozen):
    """Least-squares slope of log(distance) against log(eps) for one model.

    Distances below the rounding floor are excluded; with fewer than two
    usable points no slope is reported."""

    model_index: int
    slope: float | None
    residual: float | None
    used: int
    excluded: int


def order_of_contact_study(
    models: Sequence[LocalCurveModel],
    eps_list: Sequence[float],
    solved: Sequence[Sequence[IntersectionRecord]] | None = None,
) -> tuple[SlopeReport, ...]:
    """One SlopeReport per model, over the eps of eps_list.  solved, from a
    caller that has already solved them, holds perturbed_intersections(models,
    eps) for each eps in order; else every eps is checked by r_epsilon, then
    solved."""
    eps_values = [float(e) for e in eps_list]
    if len(eps_values) < 4:
        raise RangeError("need at least 4 epsilon values for a slope study")
    if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
        raise RangeError("epsilon values must be strictly decreasing")
    models = tuple(models)
    if solved is None:
        for e in eps_values:
            r_epsilon(models, e)
        solved = [perturbed_intersections(models, e) for e in eps_values]
    points: dict[int, list[tuple[float, float]]] = {i: [] for i in range(len(models))}
    dropped: dict[int, int] = {i: 0 for i in range(len(models))}
    for e, records in zip(eps_values, solved, strict=True):
        worst: dict[int, float] = {}
        for rec in records:
            worst[rec.model_index] = max(worst.get(rec.model_index, 0.0), rec.distance)
        for i, d in worst.items():
            if d < EXCLUDE_DISTANCE:
                dropped[i] += 1
            else:
                points[i].append((math.log(e), math.log(d)))
    reports = []
    for i in range(len(models)):
        pts = points[i]
        slope = residual = None
        if len(pts) >= 2:
            fit = statistics.linear_regression([p[0] for p in pts], [p[1] for p in pts])
            slope = fit.slope
            residual = math.sqrt(
                sum((y - (fit.slope * x + fit.intercept)) ** 2 for x, y in pts) / len(pts)
            )
        reports.append(
            SlopeReport(model_index=i, slope=slope, residual=residual, used=len(pts), excluded=dropped[i])
        )
    return tuple(reports)


def intersection_table(eps: float, records: Sequence[IntersectionRecord]) -> list[str]:
    """Fixed-width text rows for a set of intersection records."""
    lines = [f"{'model':>5} {'eps':>10} {'root':>4} {'z*':>28} {'distance':>12} {'sign':>12}"]
    for rec in records:
        z = f"{rec.point.real:.6e}{rec.point.imag:+.6e}i"
        lines.append(
            f"{rec.model_index:>5} {eps:>10.3e} {rec.root_index:>4} {z:>28} "
            f"{rec.distance:>12.3e} {rec.sign:>12.3e}"
        )
    return lines

"""Floating-point localization toolkit: radius bounds, Newton solves,
transversality signs, and order-of-contact slopes."""

import math

import mpmath
import pytest

from symcone import perturb
from symcone.errors import (
    MalformedInputError,
    NumericalFailureError,
    PropertyViolationError,
    RangeError,
)
from symcone.perturb import (
    EXCLUDE_DISTANCE,
    LocalCurveModel,
    intersection_table,
    order_of_contact_study,
    perturbed_intersections,
    r_epsilon,
)


def test_model_validation():
    with pytest.raises(MalformedInputError):
        LocalCurveModel(0, 1)
    with pytest.raises(MalformedInputError):
        LocalCurveModel(1, 0)
    with pytest.raises(MalformedInputError, match="leading"):
        LocalCurveModel("1", 2)
    with pytest.raises(MalformedInputError, match="remainder"):
        LocalCurveModel(1, 2, remainder=lambda z: z**3)


@pytest.mark.parametrize("leading", [math.nan, math.inf, -math.inf, complex(1, math.nan)])
def test_model_rejects_a_non_finite_leading_coefficient(leading):
    with pytest.raises(MalformedInputError, match="leading"):
        LocalCurveModel(leading, 2)


@pytest.mark.parametrize("c", [math.nan, math.inf])
def test_model_rejects_a_non_finite_remainder_bound(c):
    with pytest.raises(MalformedInputError, match="remainder"):
        LocalCurveModel(1, 2, remainder=c)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_radius_rejects_a_non_finite_eps(eps):
    with pytest.raises(MalformedInputError, match="eps"):
        r_epsilon([LocalCurveModel(1, 1)], eps)


def test_numeric_derivative_matches_exact():
    model = LocalCurveModel(1, 2, remainder=0.3)
    for z in (0.05, 0.1 + 0.02j, -0.07j):
        h = abs(z) * 1e-5
        numeric = (model.value(z + h) - model.value(z - h)) / (2 * h)
        assert abs(model.derivative(z) - numeric) < 1e-8


def test_radius_values():
    assert r_epsilon([LocalCurveModel(1, 1)], 0.1) == pytest.approx(0.2)
    two = [LocalCurveModel(1, 1), LocalCurveModel(4, 2)]
    # max of 0.2 and sqrt(0.05)
    assert r_epsilon(two, 0.1) == pytest.approx(math.sqrt(0.05))
    with pytest.raises(MalformedInputError):
        r_epsilon([], 0.1)
    with pytest.raises(MalformedInputError):
        r_epsilon([LocalCurveModel(1, 1)], 0.0)


def test_radius_smallness_bound():
    model = LocalCurveModel(1, 3, remainder=1.0)
    with pytest.raises(RangeError, match="smallness"):
        r_epsilon([model], 1e-2)
    # shrinking eps restores admissibility
    assert r_epsilon([model], 1e-3) == pytest.approx((2e-3) ** (1 / 3))


def test_radius_smallness_cap_of_a_huge_remainder_is_not_zero():
    # 2|c| overflows to inf once |c| > 9e307, which made the cap |a|/(2|c|) 0
    r_epsilon([LocalCurveModel(9e307, 2, remainder=9e307)], 1e-3)  # cap 0.5
    with pytest.raises(RangeError, match=r"min \|a\|/\(2c\) = 5\.55556e-309$"):
        r_epsilon([LocalCurveModel(1, 2, remainder=9e307)], 1e-3)


def test_radius_containment_bound():
    model = LocalCurveModel(1, 1, remainder=0.01)
    with pytest.raises(RangeError, match="not inside"):
        r_epsilon([model], 10.0)


def test_pure_monomial_intersections():
    records = perturbed_intersections([LocalCurveModel(1, 2)], 0.1)
    assert len(records) == 2
    points = sorted(rec.point.real for rec in records)
    assert points == pytest.approx([-0.1, 0.1])
    for rec in records:
        assert rec.distance < EXCLUDE_DISTANCE
        assert rec.sign == pytest.approx(0.04)


def test_newton_matches_closed_form():
    c = 0.01
    model = LocalCurveModel(1, 1, remainder=c)
    eps = 0.05
    (rec,) = perturbed_intersections([model], eps)
    root = (-1 + math.sqrt(1 + 4 * c * eps**2)) / (2 * c)
    assert abs(rec.point - root) < 1e-12
    assert rec.sign > 0


def test_roots_match_mpmath_polyroots():
    c = 0.1
    model = LocalCurveModel(1, 2, remainder=c)
    eps = 0.01
    radius = r_epsilon([model], eps)
    records = perturbed_intersections([model], eps)
    # c z^3 + z^2 - eps^2 has three roots; the two inside the disk are ours
    roots = mpmath.polyroots([c, 1, 0, -(eps**2)])
    inside = sorted(
        (complex(r) for r in roots if abs(r) < radius), key=lambda z: z.real
    )
    ours = sorted((rec.point for rec in records), key=lambda z: z.real)
    assert len(inside) == 2
    for a, b in zip(inside, ours):
        assert abs(a - b) < 1e-10


def test_newton_refines_seeds_whose_residual_is_below_an_absolute_tolerance():
    # g(seed) - eps^2 = c seed^3 = 5e-13: small in absolute terms, yet 5e-5
    # of eps^2, so Newton must still refine the seed
    c, eps = 0.5, 1e-4
    records = perturbed_intersections([LocalCurveModel(1, 2, remainder=c)], eps)
    roots = mpmath.polyroots([c, 1, 0, -(eps**2)])
    for rec in records:
        assert rec.distance > EXCLUDE_DISTANCE
        assert min(abs(rec.point - complex(r)) for r in roots) < 1e-12 * abs(rec.point)


def test_cross_model_collision_detected():
    pair = [LocalCurveModel(1, 1), LocalCurveModel(1, 1)]
    with pytest.raises(PropertyViolationError, match="^solutions of models 0 and 1 coincide$"):
        perturbed_intersections(pair, 0.01)


def test_two_seeds_of_one_model_reaching_one_root_are_refused(monkeypatch):
    # Newton sends every seed to the first predicted root, eps^2/a to the 1/k
    def to_first_root(model, target, seed):
        return (target / model.leading) ** (1.0 / model.order)

    monkeypatch.setattr(perturb, "_newton", to_first_root)
    with pytest.raises(
        PropertyViolationError, match="^model 0: solutions 0 and 1 coincide; expected 2 distinct intersections$"
    ):
        perturbed_intersections([LocalCurveModel(1, 2)], 0.1)


def test_zero_derivative_reported():
    # an admitted model never seeds Newton on a zero of g', so seed it there
    with pytest.raises(NumericalFailureError):
        perturb._newton(LocalCurveModel(1, 2), 0.01, 0j)


def test_study_preconditions():
    model = LocalCurveModel(1, 1)
    with pytest.raises(RangeError):
        order_of_contact_study([model], (0.1, 0.01, 0.001))
    with pytest.raises(RangeError):
        order_of_contact_study([model], (0.1, 0.01, 0.01, 0.001))


def test_study_excludes_exact_roots():
    # without a remainder the seed is already the root, so nothing regresses
    (report,) = order_of_contact_study([LocalCurveModel(1, 2)], (0.1, 0.05, 0.02, 0.01))
    assert report.slope is None
    assert report.used == 0
    assert report.excluded == 4


def test_study_slope_linear_model():
    c = 0.01
    model = LocalCurveModel(1, 1, remainder=c)
    (report,) = order_of_contact_study([model], (0.1, 0.05, 0.02, 0.01))
    assert report.used == 4
    assert report.excluded == 0
    assert abs(report.slope - 4.0) < 0.3
    assert report.residual < 0.1


def test_intersection_table_layout():
    records = perturbed_intersections([LocalCurveModel(1, 2)], 0.1)
    lines = intersection_table(0.1, records)
    assert len(lines) == 3
    header = lines[0].split()
    assert header == ["model", "eps", "root", "z*", "distance", "sign"]
    assert all(len(line.split()) == 6 for line in lines[1:])

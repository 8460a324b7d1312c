import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symcone import chambers, planner
from symcone.chambers import Membership
from symcone.errors import (
    DefinitenessError,
    DomainError,
    PreconditionError,
    PropertyViolationError,
    SingularityError,
)
from symcone.lattice import ClassVector, IntersectionLattice
from symcone.models import build_kk_model, builtin_model, kk_gamma0_model
from symcone.moves import VerificationReport, verify_certificate

from oracles import interior_class, random_curve_model


def _kk_extended():
    return build_kk_model(extended=True).model


def _omega0(model):
    return ClassVector.basis(model.lattice.rank, 0)


def test_classify_interior():
    model = _kk_extended()
    alpha = _omega0(model) + model.lattice.canonical_class
    result = chambers.classify(model, alpha)
    assert result.membership is Membership.INTERIOR_KAHLER
    assert result.descriptor.curve_indices == ()
    assert all(v > 0 for v in result.pairings)


def test_classify_corner_on_reference():
    model = _kk_extended()
    result = chambers.classify(model, _omega0(model))
    assert result.membership is Membership.CORNER
    assert result.descriptor.curve_indices == tuple(range(21))
    assert not result.descriptor.admissible
    assert all(v == 0 for v in result.pairings)


def test_classify_chamber_and_mixed():
    model = kk_gamma0_model()
    corner = chambers.corner_point(
        model, _omega0(model) + model.lattice.canonical_class, range(4)
    )
    inside = chambers.chamber_point(model, corner, range(4), Fraction(1, 5))
    result = chambers.classify(model, inside)
    assert result.membership is Membership.CHAMBER
    assert all(v == Fraction(-1, 5) for v in result.pairings)
    # push only two of the four curves negative: mixed boundary
    mixed = chambers.chamber_point(model, corner, (0, 1), Fraction(1, 5))
    got = chambers.classify(model, mixed)
    assert got.membership is Membership.MIXED_BOUNDARY


def test_classify_rejects_outside_positive_cone():
    model = _kk_extended()
    with pytest.raises(DomainError):
        chambers.classify(model, ClassVector.basis(model.lattice.rank, 1))


def test_descriptor_for_validates_indices():
    model = _kk_extended()
    with pytest.raises(DomainError):
        chambers.descriptor_for(model, (99,))
    d = chambers.descriptor_for(model, (0, 9))
    assert d.admissible
    assert d.curve_indices == (0, 9)


def test_reflect_is_involutive_isometry():
    rng = random.Random(41)
    model = kk_gamma0_model()
    lat = model.lattice
    axes = [c.vector for c in model.curves]
    for _ in range(200):
        a = ClassVector(
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(lat.rank))
        )
        b = ClassVector(
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(lat.rank))
        )
        e = rng.choice(axes)
        ra, rb = chambers.reflect(lat, a, e), chambers.reflect(lat, b, e)
        assert chambers.reflect(lat, ra, e) == a
        assert lat.pair(ra, rb) == lat.pair(a, b)
        assert lat.square(ra) == lat.square(a)


def test_reflect_fixes_orthogonal_and_negates_axis():
    lat = IntersectionLattice(gram=((Fraction(-2), Fraction(0)), (Fraction(0), Fraction(1))))
    e = ClassVector.basis(2, 0)
    assert chambers.reflect(lat, e, e) == -e
    other = ClassVector.basis(2, 1)
    assert chambers.reflect(lat, other, e) == other


def test_reflect_rejects_square_zero_axis():
    lat = IntersectionLattice(gram=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1))))
    null = ClassVector((Fraction(1), Fraction(1)))
    with pytest.raises(SingularityError):
        chambers.reflect(lat, ClassVector.basis(2, 0), null)


def test_corner_point_exactness_on_gamma0():
    model = kk_gamma0_model()
    alpha = _omega0(model) + model.lattice.canonical_class
    corner = chambers.corner_point(model, alpha, range(4))
    pairings = model.pairings_with(corner)
    assert all(pairings[i] == 0 for i in range(4))
    assert model.lattice.square(corner) >= model.lattice.square(alpha)
    assert model.lattice.is_positive_cone(corner)


def test_corner_point_requires_positive_pairings():
    model = kk_gamma0_model()
    with pytest.raises(PreconditionError):
        chambers.corner_point(model, _omega0(model), range(4))


def test_corner_point_refuses_a_class_outside_the_positive_cone():
    """The class is refused as out of domain before any shift is built, as
    classify refuses it, not as a broken invariant of the result."""
    model = builtin_model("hesse")
    alpha = interior_class(model, random.Random(2))
    assert model.lattice.square(alpha) == -21
    for subset in itertools.chain.from_iterable(
        itertools.combinations(range(9), k) for k in range(1, 10)
    ):
        with pytest.raises(DomainError, match="^class is not in the positive cone$"):
            chambers.corner_point(model, alpha, subset)


def test_corner_point_requires_admissible_set():
    model = _kk_extended()
    alpha = _omega0(model) + model.lattice.canonical_class
    with pytest.raises(DefinitenessError):
        chambers.corner_point(model, alpha, range(21))


def test_chamber_point_hits_exact_depth():
    model = kk_gamma0_model()
    alpha = _omega0(model) + model.lattice.canonical_class
    corner = chambers.corner_point(model, alpha, range(4))
    for eps in (Fraction(1), Fraction(1, 3), Fraction(2, 7)):
        inside = chambers.chamber_point(model, corner, range(4), eps)
        got = model.pairings_with(inside)
        assert all(got[i] == -eps for i in range(4))
        assert model.lattice.is_positive_cone(inside)


def test_chamber_point_validates_inputs():
    model = kk_gamma0_model()
    alpha = _omega0(model) + model.lattice.canonical_class
    corner = chambers.corner_point(model, alpha, range(4))
    with pytest.raises(PreconditionError):
        chambers.chamber_point(model, corner, range(4), Fraction(0))
    with pytest.raises(PreconditionError):
        # alpha is not on the corner of G
        chambers.chamber_point(model, alpha, range(4), Fraction(1, 3))


def test_boundary_to_interior_identity():
    model = kk_gamma0_model()
    alpha = _omega0(model) + model.lattice.canonical_class
    corner = chambers.corner_point(model, alpha, range(4))
    v = tuple(Fraction(x) for x in (3, 1, 1, 2))
    s, hint = chambers.boundary_to_interior(model, corner, range(4), v)
    assert all(x > 0 for x in s)
    shifted = corner
    for coeff, i in zip(s, range(4)):
        shifted = shifted - model.curves[i].vector.scale(coeff)
    got = model.pairings_with(shifted)
    assert tuple(got[:4]) == v
    assert hint > 0


def test_random_models_corner_chamber_roundtrip():
    rng = random.Random(43)
    for _ in range(25):
        model = random_curve_model(rng)
        alpha = interior_class(model, rng)
        n = len(model.curves)
        corner = chambers.corner_point(model, alpha, range(n))
        assert all(v == 0 for v in model.pairings_with(corner))
        assert model.lattice.square(corner) >= model.lattice.square(alpha)
        inside = chambers.chamber_point(model, corner, range(n), Fraction(1, 2))
        assert all(v == Fraction(-1, 2) for v in model.pairings_with(inside))


def _oracle_pair(lattice, a, b):
    """The pairing as a plain Fraction sum over the Gram entries."""
    return sum(
        (Fraction(x) * Fraction(lattice.gram[i][j]) * Fraction(y)
         for i, x in enumerate(a.coords) for j, y in enumerate(b.coords)),
        Fraction(0),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_corner_and_chamber_points_pair_exactly_on_random_configurations(data):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = random.Random(seed)
    model = random_curve_model(rng)
    n = len(model.curves)
    G = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True), label="G")
    eps = data.draw(st.fractions(Fraction(1, 64), 4, max_denominator=64), label="eps")
    alpha = interior_class(model, rng)
    corner = chambers.corner_point(model, alpha, G)
    inside = chambers.chamber_point(model, corner, G, eps)
    # chamber_point halves eps until the result stays in the positive cone
    depth = -_oracle_pair(model.lattice, inside, model.curves[G[0]].vector)
    assert depth in {eps / 2**j for j in range(64)}
    for i in G:
        e = model.curves[i].vector
        assert _oracle_pair(model.lattice, corner, e) == 0
        assert _oracle_pair(model.lattice, inside, e) == -depth


def _interior_on(model):
    from symcone.lattice import neg_inverse
    from symcone import linalg

    n = len(model.curves)
    u = linalg.mat_vec(neg_inverse(model.curve_gram()), [Fraction(1)] * n)
    vec = ClassVector.basis(model.lattice.rank, 0)
    for coeff, curve in zip(u, model.curves):
        vec = vec - curve.vector.scale(coeff)
    return vec


def test_reflected_chamber_certificate_even_square():
    model = builtin_model("e6")
    alpha = _interior_on(model)
    assert model.is_interior_kahler(alpha)
    reflected, cert = planner.reflected_chamber_certificate(model, alpha, 0)
    assert reflected == chambers.reflect(model.lattice, alpha, model.curves[0].vector)
    assert cert.target_class == reflected
    assert verify_certificate(cert).passed


def test_reflected_chamber_certificate_replays_once(monkeypatch):
    calls = []

    def failing(cert):
        calls.append(cert)
        return VerificationReport(
            passed=False, entries=(), first_failure="forced failure at move 1", final_class=None
        )

    monkeypatch.setattr(planner, "verify_certificate", failing)
    model = builtin_model("e6")
    with pytest.raises(PropertyViolationError, match="failed replay; first failure: forced failure at move 1$"):
        planner.reflected_chamber_certificate(model, _interior_on(model), 0)
    assert len(calls) == 1


def test_curve_index_entry_points_share_one_range_check():
    model = builtin_model("e6")
    n = len(model.curves)
    alpha = _interior_on(model)
    calls = (
        lambda bad: chambers.descriptor_for(model, (0, bad)),
        lambda bad: planner.reflected_chamber_certificate(model, alpha, bad),
        lambda bad: planner.dual_graph(model, (bad, 1)),
        lambda bad: planner.component_obstruction(model, (bad,)),
    )
    for call in calls:
        for bad in (-1, n):
            with pytest.raises(DomainError, match=f"^curve index {bad} out of range$"):
                call(bad)


def test_reflected_chamber_certificate_refuses_odd_square_sphere():
    from symcone.models import ruled_model

    rm = ruled_model(0, 1, "nontrivial")
    model = rm.model
    alpha = ClassVector((Fraction(3), Fraction(-1)))  # pairs +1 with s-
    assert model.is_interior_kahler(alpha)
    with pytest.raises(PreconditionError):
        planner.reflected_chamber_certificate(model, alpha, 0)


def test_single_curve_shift():
    model = kk_gamma0_model()
    lat = model.lattice
    curve = model.curves[1]  # the first -1 sphere in the chain
    alpha = _omega0(model) + curve.vector.scale(Fraction(1, 2))
    w = lat.pair(alpha, curve.vector)
    assert w < 0
    s = chambers.single_curve_shift(model, alpha, curve)
    shifted = alpha - curve.vector.scale(s)
    assert lat.pair(shifted, curve.vector) > -w
    assert lat.square(shifted) > 0
    assert lat.pair(shifted, alpha) > 0

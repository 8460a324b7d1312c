import enum
import fractions
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
    MalformedInputError,
    PreconditionError,
    PropertyViolationError,
    SearchFailureError,
    SingularityError,
)
from symcone.lattice import ClassVector, CurveData, CurveModel, IntersectionLattice
from symcone.models import build_kk_model, builtin_model, kk_gamma0_model, ruled_model
from symcone.moves import Replay, verify_certificate

from oracles import (
    boundary_to_interior,
    brute_inverse,
    folded_combination,
    interior_class,
    mat_vec,
    random_curve_model,
    single_curve_shift,
    twisted_curve_model,
)


def _kk_extended():
    return build_kk_model(extended=True)


def _omega0(model):
    return ClassVector.basis(model.lattice.rank, 0)


def test_classify_interior():
    model = _kk_extended()
    alpha = _omega0(model) + model.lattice.canonical_class
    result = chambers.classify(model, alpha)
    assert result.membership is Membership.INTERIOR_KAHLER
    assert result.descriptor.indices == ()
    assert all(v > 0 for v in result.pairings)


def test_classify_corner_on_reference():
    model = _kk_extended()
    result = chambers.classify(model, _omega0(model))
    assert result.membership is Membership.CORNER
    assert result.descriptor.indices == tuple(range(21))
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
    assert d.indices == (0, 9)


def test_every_view_of_a_curve_set_is_the_models_support():
    model = _kk_extended()
    s = (0, 9)  # C1 meets D123: connected and admissible
    support = model.support(s)
    alpha = _omega0(model) + model.lattice.canonical_class
    corner = chambers.corner_point(model, alpha, s)
    result = chambers.classify(model, corner)
    assert result.membership is Membership.CORNER
    assert chambers.descriptor_for(model, s) is support
    assert planner.dual_graph(model, s[::-1]) is support
    assert result.descriptor is support
    assert planner.component_obstruction(model, s) is support
    assert support.obstruction is None  # an admissible support keeps no witness


def test_another_models_support_stands_for_its_indices_only():
    model = _kk_extended()
    alpha = _omega0(model) + model.lattice.canonical_class
    s = (0, 1)
    foreign = builtin_model("e6").support(s)
    assert foreign.gram != model.support(s).gram
    corner = chambers.corner_point(model, alpha, s)
    assert chambers.corner_point(model, alpha, foreign) == corner
    eps = Fraction(1, 4)
    assert chambers.chamber_point(model, corner, foreign, eps) == chambers.chamber_point(
        model, corner, s, eps
    )
    assert chambers._admissible_descriptor(model, foreign) is model.support(s)


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


def test_chamber_point_halves_epsilon_64_times_at_most():
    # ruled(0, 3): Gram diag(3, -3), the section s = e1; far = s / 3, so on
    # the corner e0 the point (1, eps / 3) has square 3 - eps^2 / 3, positive
    # only for eps < 3 (eps = 3 gives square 0, which is not in the cone)
    model = ruled_model(0, 3, "nontrivial").model
    corner = ClassVector((1, 0))
    for eps, depth in ((2, 2), (3, Fraction(3, 2)), (8, 2), (2**64, 2)):
        assert chambers.chamber_point(model, corner, (0,), eps) == ClassVector((1, Fraction(depth, 3)))
    # 2^65 is still 4 after 63 halvings: the 64th try fails too
    with pytest.raises(SearchFailureError, match="^no epsilon kept the chamber point in the positive cone$"):
        chambers.chamber_point(model, corner, (0,), 2**65)


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
    s, hint = boundary_to_interior(model, corner, range(4), v)
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
    """The corner algebra the chamber operations rely on without checking it
    at run time: for N = -M^{-1} on G and v > 0, _neg_apply's N v is
    positive, equals the brute inverse's product, sum (N v)_i e_i pairs
    exactly -v_j with each e_j, and the first dyadic r at which
    first_interior_scale finds the corner minus r times that sum
    interior-Kähler takes the corner inside; a
    corner does not lower the square, and a chamber point pairs the same
    -epsilon with every curve of G."""
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = random.Random(seed)
    model = data.draw(st.sampled_from((random_curve_model, twisted_curve_model)), label="model")(rng)
    n = len(model.curves)
    G = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True), label="G")
    eps = data.draw(st.fractions(Fraction(1, 64), 4, max_denominator=64), label="eps")
    positive = st.builds(Fraction, st.integers(1, 9), st.integers(1, 12))
    v = data.draw(st.lists(positive, min_size=len(G), max_size=len(G)), label="v")
    support = model.support(G)
    alpha = interior_class(model, rng)
    corner = chambers.corner_point(model, alpha, G)
    n_v, q = chambers._neg_apply(model, support, v)
    s = tuple(Fraction(n_v[i], q) for i in support.indices)
    shift = folded_combination(model, support.indices, s)
    r, _ = model.first_interior_scale(corner, shift, (Fraction(1, 2**j) for j in range(64)))
    assert all(x > 0 for x in s)
    assert s == tuple(-x for x in mat_vec(brute_inverse(support.gram), v))
    for i, value in zip(support.indices, v):
        assert _oracle_pair(model.lattice, shift, model.curves[i].vector) == -value
    assert model.is_interior_kahler(corner - shift.scale(r))
    assert _oracle_pair(model.lattice, corner, corner) >= _oracle_pair(model.lattice, alpha, alpha)
    inside = chambers.chamber_point(model, corner, G, eps)
    # chamber_point halves eps until the result stays in the positive cone
    depth = -_oracle_pair(model.lattice, inside, model.curves[G[0]].vector)
    assert depth in {eps / 2**j for j in range(64)}
    for i in G:
        e = model.curves[i].vector
        assert _oracle_pair(model.lattice, corner, e) == 0
        assert _oracle_pair(model.lattice, inside, e) == -depth


def _interior_on(model):
    n = len(model.curves)
    u, q = chambers._neg_apply(model, model.support(range(n)), [1] * n)
    vec = ClassVector.basis(model.lattice.rank, 0)
    for i, curve in enumerate(model.curves):
        vec = vec - curve.vector.scale(Fraction(u[i], q))
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
        return Replay(None, (), None, None, "forced failure at move 1")

    # every replay, the peel's and verify_certificate's, begins at Replay.start
    monkeypatch.setattr(Replay, "start", failing)
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


_NOT_INTEGERS = {
    # each of these once answered for the indices it truncated or coerced to
    "descriptor_for": (lambda m, a: chambers.descriptor_for(m, [0.9, 9.5]), "0.9"),
    "dual_graph": (lambda m, a: planner.dual_graph(m, ["3", True]), "'3'"),
    "corner_point": (lambda m, a: chambers.corner_point(m, a, (0.6,)), "0.6"),
    "curve_gram": (lambda m, a: m.curve_gram((True, 1.0)), "True"),
}


@pytest.mark.parametrize("name", sorted(_NOT_INTEGERS))
def test_curve_index_entry_points_refuse_non_integers(name):
    model = builtin_model("kk-extended")
    alpha = model.lattice.reference_class + model.lattice.canonical_class
    call, shown = _NOT_INTEGERS[name]
    with pytest.raises(MalformedInputError, match=f"^curve index {shown} is not an integer$"):
        call(model, alpha)


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
    s = single_curve_shift(lat, alpha, curve.vector)
    shifted = alpha - curve.vector.scale(s)
    assert lat.pair(shifted, curve.vector) > -w
    assert lat.square(shifted) > 0
    assert lat.pair(shifted, alpha) > 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), twisted=st.booleans(), data=st.data())
def test_single_curve_shift_meets_its_three_inequalities_on_random_classes(seed, twisted, data):
    """On chamber points behind one curve e of random models, beta = alpha -
    s e clears |alpha.e|, has positive square and pairs positively with
    alpha, each as a plain Fraction sum, for the s of the oracle
    single_curve_shift: the window s > 2|alpha.e|/k with alpha^2 + 2s|w| >
    s^2 k proves all three."""
    rng = random.Random(seed)
    model = (twisted_curve_model if twisted else random_curve_model)(rng, 6)
    lat = model.lattice
    i = data.draw(st.integers(0, len(model.curves) - 1), label="curve")
    e = model.curves[i]
    corner = chambers.corner_point(model, interior_class(model, rng), [i])
    eps = data.draw(st.fractions(Fraction(1, 64), 8, max_denominator=64), label="eps")
    alpha = chambers.chamber_point(model, corner, [i], eps)
    w = _oracle_pair(lat, alpha, e.vector)
    assert w < 0
    s = single_curve_shift(lat, alpha, e.vector)
    beta = alpha - e.vector.scale(s)
    assert _oracle_pair(lat, beta, e.vector) > -w
    assert _oracle_pair(lat, beta, beta) > 0
    assert _oracle_pair(lat, beta, alpha) > 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), twisted=st.booleans(), data=st.data())
def test_corner_point_is_the_fraction_corner_and_builds_no_fraction(seed, twisted, data):
    """corner_point is alpha + sum s_i e_i for s = -M^{-1} v, v alpha's
    pairings with G, as Fractions through the cofactor inverse, on a drawn
    G and on every curve (a locus of one or several components); on a
    Support it has met before it builds that class, from a fresh copy of
    alpha, without making a Fraction."""
    rng = random.Random(seed)
    model = (twisted_curve_model if twisted else random_curve_model)(rng, 6)
    lat = model.lattice
    n = len(model.curves)
    alpha = interior_class(model, rng)
    drawn = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True), label="G")
    for G in (drawn, range(n)):
        support = model.support(G)
        v = [_oracle_pair(lat, alpha, model.curves[i].vector) for i in support.indices]
        s = [-x for x in mat_vec(brute_inverse(support.gram), v)]
        want = alpha + folded_combination(model, support.indices, s)
        assert chambers.corner_point(model, alpha, G).integer_form == want.integer_form
        fresh = ClassVector.from_integer_form(lat.rank, *alpha.integer_form)
        made, new = [], Fraction.__new__
        with pytest.MonkeyPatch.context() as patch:
            counted = staticmethod(lambda *a, **k: made.append(a) or new(*a, **k))
            patch.setattr(fractions.Fraction, "__new__", counted)
            got = chambers.corner_point(model, fresh, G)
        assert made == []
        assert got.integer_form == want.integer_form


def test_corner_point_keeps_its_refusals_in_order():
    """Outside the positive cone, then an empty or inadmissible G, then a
    non-positive pairing, then a corner that leaves the cone: each refusal
    is the first that applies."""
    model = build_kk_model(extended=True)
    lat = model.lattice
    w = lat.reference_class  # pairs 0 with every KK curve
    inside = w + lat.canonical_class
    cases = (
        (-inside, (), DomainError, "class is not in the positive cone"),
        (inside, (), PreconditionError, "empty curve set"),
        (w, range(21), DefinitenessError, "curve set is not admissible"),
        (w, (0, 9), PreconditionError, "alpha must pair strictly positively"),
    )
    for alpha, G, error, message in cases:
        with pytest.raises(error, match=f"^{message}"):
            chambers.corner_point(model, alpha, G)
    # off a hyperbolic lattice the corner step can cross the reference
    # class's wall: w = e0, e = -e0 + 2 e2 of square -7, alpha.w = 1 and
    # alpha.e = 11, so the corner alpha + (11/7) e pairs -4/7 with w
    plane = IntersectionLattice(((1, 0, 0), (0, 1, 0), (0, 0, -2)), reference_class=ClassVector.basis(3, 0))
    model = CurveModel(plane, (CurveData("e", ClassVector((-1, 0, 2)), 0),), True)
    with pytest.raises(PropertyViolationError, match="^corner point left the positive cone$"):
        chambers.corner_point(model, ClassVector((1, 5, -3)), (0,))


class _Curve(enum.IntEnum):
    FIRST = 0
    SECOND = 1


def test_checked_indices_name_the_first_failure_and_take_int_subclasses():
    model = builtin_model("e6")
    n = len(model.curves)
    refusals = (
        ((0, True, n), MalformedInputError, "curve index True is not an integer"),
        ((1, "2", -1), MalformedInputError, "curve index '2' is not an integer"),
        ((0, -1, "x"), DomainError, "curve index -1 out of range"),
        ((n, False), DomainError, f"curve index {n} out of range"),
        ((2, 1.0), MalformedInputError, "curve index 1.0 is not an integer"),
    )
    for indices, error, message in refusals:
        for call in (model.support, model.curve_gram, lambda idx: chambers.descriptor_for(model, idx)):
            with pytest.raises(error) as info:
                call(indices)
            assert str(info.value) == message
    assert model.support((_Curve.SECOND, _Curve.FIRST)) is model.support((0, 1))
    assert model.curve_gram((_Curve.SECOND, 0)) == model.curve_gram((1, 0))

import collections
import hashlib
import math
import random
import sys
from symcone import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symcone.errors import (
    BoundViolationError,
    ConnectivityError,
    LivenessError,
    MalformedInputError,
    PositivityError,
    PreconditionError,
    RangeError,
    SymconeError,
    WrongMoveError,
)
from symcone import chambers, moves
from symcone.lattice import ClassVector, CurveData, CurveModel, IntersectionLattice
from symcone.linalg import format_rational
from symcone.models import (
    BUILTIN_MODEL_NAMES,
    build_kk_model,
    builtin_model,
    kk_gamma0_certificate,
    kk_gamma0_model,
    ruled_model,
)
from symcone.documents import certificate_from_doc, certificate_to_doc, report_to_doc
from symcone.moves import (
    Certificate,
    ConfigurationState,
    Inflate,
    InflateNonneg,
    MoveRecord,
    Replay,
    SmoothAndReinstate,
    SurfaceObject,
    apply_move,
    describe_move,
    h_param,
    initial_state,
    verify_certificate,
)
from symcone.planner import plan

from oracles import (
    alive_objects,
    area_line,
    class_line,
    class_texts,
    dense_gram_product,
    dense_smoothing,
    interior_class,
    plain_pair,
    random_curve_model,
    twisted_curve_model,
)


def test_h_param_table():
    # spheres of odd square use k+1, everything else uses k
    assert h_param(1, 0) == 2
    assert h_param(3, 0) == 4
    assert h_param(2, 0) == 2
    assert h_param(4, 0) == 4
    assert h_param(1, 1) == 1
    assert h_param(3, 2) == 3


def test_h_param_validation():
    with pytest.raises(PreconditionError):
        h_param(0, 0)
    with pytest.raises(MalformedInputError):
        h_param(2, -1)


def _gamma0_state(t_scale=1):
    cert = kk_gamma0_certificate(t_scale)
    return cert, initial_state(cert)


def test_initial_state_areas_are_base_pairings():
    cert, state = _gamma0_state()
    model = cert.model
    for curve in model.curves:
        assert state.area(curve.label) == model.lattice.pair(
            cert.base_class, curve.vector
        )


def test_inflate_updates_class_square_and_areas():
    cert, state = _gamma0_state()
    lat = state.lattice
    target = "D123"
    e = state.object(target).vector
    area = state.area(target)
    k = -lat.square(e)
    t = Fraction(1, 2)
    assert t < 2 * area / h_param(int(k), state.object(target).genus)
    new = apply_move(state, Inflate(object_id=target, t=t))
    assert new.current_class == state.current_class + e.scale(t)
    assert lat.square(new.current_class) == lat.square(
        state.current_class
    ) + 2 * t * area - t * t * k
    for other in alive_objects(state):
        if other.id != target:
            assert new.area(other.id) == state.area(other.id) + t * lat.pair(
                e, other.vector
            )


def test_inflate_bound_is_open():
    cert, state = _gamma0_state()
    target = "D249"
    area = state.area(target)
    obj = state.object(target)
    k = -state.lattice.square(obj.vector)
    bound = 2 * area / h_param(int(k), obj.genus)
    with pytest.raises(BoundViolationError):
        apply_move(state, Inflate(object_id=target, t=bound))
    apply_move(state, Inflate(object_id=target, t=bound - Fraction(1, 100)))


def test_inflate_rejects_nonpositive_t_and_unknown_ids():
    cert, state = _gamma0_state()
    # the amplitude interval (0, 2A/h) is open at both ends
    with pytest.raises(BoundViolationError):
        apply_move(state, Inflate(object_id="C1", t=Fraction(0)))
    with pytest.raises(MalformedInputError):
        apply_move(state, Inflate(object_id="nope", t=Fraction(1)))


def test_inflate_requires_negative_square():
    rng = random.Random(47)
    model = random_curve_model(rng)
    base = interior_class(model, rng)
    cert = Certificate(model=model, base_class=base, moves=(), target_class=base)
    state = initial_state(cert)
    label = model.curves[0].label
    with pytest.raises(WrongMoveError):
        apply_move(state, InflateNonneg(object_id=label, t=Fraction(1)))


_KK_SQUARE_ONE = ("C1", "D123", "D147", "D159", "D168")


def _kk_square_one_state():
    """kk-extended from w0 + K after smoothing C1 with the four D-curves
    through it into S, a surface of square 1 and area 21."""
    model = builtin_model("kk-extended")
    lat = model.lattice
    base = lat.reference_class + lat.canonical_class
    replay = Replay.start(Certificate(model, base, (), base))
    replay = replay.step(SmoothAndReinstate(_KK_SQUARE_ONE, (), "S"))
    assert replay.failure is None
    surface = replay.state.object("S")
    assert lat.square(surface.vector) == 1 and replay.state.area("S") == 21
    return model, base, replay


def test_inflate_nonneg_along_a_smoothed_surface_keeps_it_alive():
    model, base, replay = _kk_square_one_state()
    surface = replay.state.object("S")
    t = Fraction(1, 2)
    after = replay.step(InflateNonneg("S", t))
    assert after.failure is None
    assert after.state.object("S").alive
    assert after.state.current_class == base + surface.vector.scale(t)
    moves = (SmoothAndReinstate(_KK_SQUARE_ONE, (), "S"), InflateNonneg("S", t))
    report = verify_certificate(Certificate(model, base, moves, base + surface.vector.scale(t)))
    assert report.passed and report.first_failure is None


@pytest.mark.parametrize("t", [Fraction(0), Fraction(-1, 2)])
def test_inflate_nonneg_rejects_nonpositive_t(t):
    _, _, replay = _kk_square_one_state()
    with pytest.raises(PreconditionError, match="t must be positive"):
        apply_move(replay.state, InflateNonneg("S", t))


def test_inflate_nonneg_rejects_nonpositive_area():
    _, base, replay = _kk_square_one_state()
    state = replace(replay.state, current_class=-base)
    assert state.area("S") == -21
    with pytest.raises(PreconditionError, match="non-positive area"):
        apply_move(state, InflateNonneg("S", Fraction(1)))


# --- boundary refusals of the move engine, each on a rank-3 lattice
# diag(1, -1, -1) with the (-1)-classes A = e1 and B = e2 ---

_DIAG = IntersectionLattice(gram=((1, 0, 0), (0, -1, 0), (0, 0, -1)))


def _diag_state(*coords, objects=("A", "B")):
    """A checked state of class coords on _DIAG with the named objects."""
    vectors = {"A": (0, 1, 0), "B": (0, 0, 1), "F": (1, 1, 0)}
    return ConfigurationState(
        lattice=_DIAG,
        current_class=ClassVector(coords),
        objects=tuple(SurfaceObject(name, ClassVector(vectors[name]), 0) for name in objects),
    )


def test_inflate_refuses_an_object_of_area_zero_and_below():
    # area exactly 0 makes the bound 2A/h = 0, so only the area check names it
    with pytest.raises(PreconditionError, match="^object 'A' has area 0 <= 0$"):
        apply_move(_diag_state(1, 0, 0), Inflate("A", Fraction(1, 2)))
    with pytest.raises(PreconditionError, match="^object 'A' has area -1/2 <= 0$"):
        apply_move(_diag_state(2, Fraction(1, 2), 0), Inflate("A", Fraction(1, 2)))
    after = apply_move(_diag_state(2, -1, 0), Inflate("A", Fraction(1, 2)))  # area 1, bound 1
    assert after.current_class == ClassVector((2, Fraction(-1, 2), 0))


def test_inflate_nonneg_refuses_a_null_object_of_area_zero():
    # F = e0 + e1 has square 0 and pairs 0 with 2 e0 + 2 e1 - e2
    state = _diag_state(2, 2, -1, objects=("F",))
    assert _DIAG.square(state.object("F").vector) == 0 and state.area("F") == 0
    with pytest.raises(PreconditionError, match="^object 'F' has non-positive area$"):
        apply_move(state, InflateNonneg("F", Fraction(1)))


def test_a_smoothing_refuses_a_constituent_of_area_zero():
    # the class pairs 0 with A and 1 with B; the area check comes before the
    # connectivity check, which A and B (orthogonal) would fail
    state = _diag_state(1, 0, -1)
    assert state.area("A") == 0 and state.area("B") == 1
    with pytest.raises(PreconditionError, match="^constituent 'A' has non-positive area$"):
        moves.smooth_and_reinstate(state, ["A", "B"], (), "S")


def test_a_checked_state_refuses_a_repeated_id():
    # the two objects are orthogonal, so only the id check refuses them
    objects = (SurfaceObject("A", ClassVector((0, 1, 0)), 0), SurfaceObject("A", ClassVector((0, 0, 1)), 0))
    with pytest.raises(MalformedInputError, match="^object ids must be distinct$"):
        ConfigurationState(lattice=_DIAG, current_class=ClassVector((3, -1, -1)), objects=objects)


def test_a_smoothing_refuses_a_repeated_constituent():
    state = _diag_state(3, -1, -1)
    assert state.area("A") == state.area("B") == 1
    with pytest.raises(MalformedInputError, match="^constituent ids must be distinct$"):
        moves.smooth_and_reinstate(state, ["A", "A"], (), "S")


def test_a_surface_object_refuses_a_class_that_is_not_integral():
    with pytest.raises(MalformedInputError, match="^object 'A' must have an integral class$"):
        SurfaceObject("A", ClassVector((0, Fraction(1, 2), 0)), 0)


def test_apply_move_refuses_what_is_not_a_move():
    with pytest.raises(MalformedInputError, match="^unknown move of type str$"):
        apply_move(_diag_state(3, -1, -1), "inflate A")


def test_replay_refuses_a_base_of_square_zero():
    # the fibre of a ruled surface pairs 1 with the reference class s+ and 1
    # with the section, and its square is exactly 0
    rm = ruled_model(0, 1, "nontrivial")
    fibre = rm.fiber_class
    report = verify_certificate(Certificate(rm.model, fibre, (), fibre))
    assert not report.passed
    assert report.first_failure == "base class is not in the positive cone"


def _tilted_model():
    """Reference class r, x, and a (-2)-sphere e that pairs -1 with r: the
    lattice has signature (2, 1), so, unlike one of signature (1, n), it
    has classes of positive square that pair 0 with r."""
    gram = ((1, 0, -1), (0, 1, 0), (-1, 0, -2))
    lattice = IntersectionLattice(gram=gram, basis_labels=("r", "x", "e"), reference_class=ClassVector.basis(3, 0))
    curve = CurveData(label="e", vector=ClassVector.basis(3, 2), genus=0)
    return CurveModel(lattice=lattice, curves=(curve,), completeness_assumed=True)


def test_replay_refuses_a_base_whose_reference_pairing_is_zero():
    model = _tilted_model()
    lat, e = model.lattice, model.curves[0].vector
    base = ClassVector((-1, 2, -1))
    assert (lat.square(base), lat.pair(base, lat.reference_class), lat.pair(base, e)) == (1, 0, 3)
    report = verify_certificate(Certificate(model, base, (), base))
    assert not report.passed
    assert report.first_failure == "base class is not in the positive cone"


def test_an_inflation_to_reference_pairing_zero_fails_at_that_move():
    # the base pairs 4 with r and has area 5 on e, so t = 4 is inside the
    # bound 2A/h = 5 and takes the pairing with r to exactly 0
    model = _tilted_model()
    lat = model.lattice
    base, target = ClassVector((1, 4, -3)), ClassVector((1, 4, 1))
    assert lat.square(base) == 5 and lat.pair(base, lat.reference_class) == 4
    assert lat.square(target) == 13 and lat.pair(target, lat.reference_class) == 0
    report = verify_certificate(Certificate(model, base, (Inflate("e", Fraction(4)),), target))
    assert not report.passed
    assert report.first_failure == "class left the positive cone at move 1"


def test_inflate_nonneg_along_a_fibre_of_square_zero():
    # CP2 blown up twice, ruled by the lines through the first point: E1 and
    # L = H - E1 - E2 are (-1)-spheres meeting once, and they smooth into the
    # fibre H - E2, of square 0 and area 2 at 3H - E1 - E2
    lattice = IntersectionLattice(
        gram=((1, 0, 0), (0, -1, 0), (0, 0, -1)),
        basis_labels=("H", "E1", "E2"),
        canonical_class=ClassVector((-3, 1, 1)),
        reference_class=ClassVector.basis(3, 0),
    )
    curves = (CurveData("E1", ClassVector((0, 1, 0)), 0), CurveData("L", ClassVector((1, -1, -1)), 0))
    model = CurveModel(lattice=lattice, curves=curves, completeness_assumed=True)
    base = ClassVector((3, -1, -1))
    t = Fraction(1, 2)
    fibre = ClassVector((1, 0, -1))
    moves = (SmoothAndReinstate(("E1", "L"), (), "F"), InflateNonneg("F", t))
    replay = Replay.start(Certificate(model, base, (), base)).step(moves[0])
    assert replay.state.object("F").vector == fibre and lattice.square(fibre) == 0
    assert replay.state.area("F") == 2
    report = verify_certificate(Certificate(model, base, moves, base + fibre.scale(t)))
    assert report.passed and report.first_failure is None


def test_a_certificate_on_a_model_without_reference_class_fails():
    model = build_kk_model()
    assert model.completeness_assumed and model.lattice.reference_class is None
    w0 = ClassVector.basis(model.lattice.rank, 0)
    report = verify_certificate(Certificate(model, w0, (), w0))
    assert not report.passed
    assert report.first_failure == "model has no reference class; positive cone is undefined"


def test_smooth_and_reinstate_gamma0_first_step():
    cert, state = _gamma0_state()
    move = SmoothAndReinstate(
        constituent_ids=("C1", "D123"), reinstate_ids=("D123",), new_id="X"
    )
    new = apply_move(state, move)
    merged = new.object("X")
    lat = new.lattice
    # class adds, genus is sum + double points - (n-1)
    c1 = state.object("C1")
    d = state.object("D123")
    assert merged.vector == c1.vector + d.vector
    assert merged.genus == c1.genus + d.genus + int(lat.pair(c1.vector, d.vector)) - 1
    assert not new.object("C1").alive
    assert new.object("D123").alive
    assert new.current_class == state.current_class


def test_smooth_rejects_disconnected_constituents():
    cert, state = _gamma0_state()
    with pytest.raises(ConnectivityError, match="^constituents do not form a connected configuration$"):
        apply_move(
            state,
            SmoothAndReinstate(
                constituent_ids=("C1", "D249"), reinstate_ids=(), new_id="X"
            ),
        )


def test_smooth_reinstate_count_is_bounded_by_square():
    cert, state = _gamma0_state()
    # C1.D123 = 1, merged square -4: can reinstate at most ... both constituents
    # pair nonnegatively, but reinstating both copies is capped by -square
    move = SmoothAndReinstate(
        constituent_ids=("C1", "D123"),
        reinstate_ids=("C1", "D123"),
        new_id="X",
    )
    with pytest.raises(PreconditionError, match="^cannot reinstate 'C1'"):
        apply_move(state, move)


def test_reinstatement_with_a_negative_row_sum_fails_the_meet_count():
    # C1 (square -3) meets D123 once, so its row sums to 1 - 3, its pairing
    # with the smoothing: the meet count refuses it before that could matter
    cert, state = _gamma0_state()
    c1, d = state.object("C1").vector, state.object("D123").vector
    assert state.lattice.pair(c1, c1 + d) == -2
    move = SmoothAndReinstate(
        constituent_ids=("C1", "D123"), reinstate_ids=("C1",), new_id="X"
    )
    with pytest.raises(
        PreconditionError, match=r"^cannot reinstate 'C1': meets the rest 1 times, needs 3$"
    ):
        apply_move(state, move)


def test_smooth_validates_ids():
    cert, state = _gamma0_state()
    with pytest.raises(MalformedInputError):
        apply_move(
            state,
            SmoothAndReinstate(constituent_ids=(), reinstate_ids=(), new_id="X"),
        )
    with pytest.raises(MalformedInputError):
        apply_move(
            state,
            SmoothAndReinstate(
                constituent_ids=("C1", "D123"), reinstate_ids=("C2",), new_id="X"
            ),
        )
    with pytest.raises(MalformedInputError):
        apply_move(
            state,
            SmoothAndReinstate(
                constituent_ids=("C1", "D123"), reinstate_ids=(), new_id="C2"
            ),
        )


def test_dead_objects_cannot_move_again():
    cert, state = _gamma0_state()
    state = apply_move(
        state,
        SmoothAndReinstate(constituent_ids=("C1", "D123"), reinstate_ids=(), new_id="X"),
    )
    with pytest.raises(LivenessError):
        apply_move(state, Inflate(object_id="C1", t=Fraction(1, 2)))


def test_describe_move_formats():
    assert describe_move(Inflate(object_id="e", t=Fraction(3, 2))) == "inflate(e, t=3/2)"
    assert (
        describe_move(
            SmoothAndReinstate(("a", "b"), ("b",), "c")
        )
        == "smooth(a, b; reinstate b) -> c"
    )


def test_describe_move_names_an_overlong_amplitude():
    with pytest.raises(RangeError, match=r"^t: output exceeds the \d+-digit integer limit$"):
        describe_move(Inflate(object_id="e", t=Fraction(10**5000)))


@pytest.mark.parametrize("where, failure", [
    # the base square has about 5000 digits, past the interpreter's limit
    ("base", "base square: output exceeds the {limit}-digit integer limit"),
    # the amplitude is written out in the move's entry before it is applied
    ("move", "t: output exceeds the {limit}-digit integer limit at move 3"),
])
def test_replay_reports_overlong_numbers_as_failures(where, failure):
    cert = kk_gamma0_certificate()
    if where == "base":
        big = Fraction(10**2500)
        cert = replace(
            cert,
            base_class=ClassVector((big,) + cert.base_class.coords[1:]),
            target_class=ClassVector((big,) + cert.target_class.coords[1:]),
            moves=(),
        )
    else:
        moves = list(cert.moves)
        moves[2] = Inflate(moves[2].object_id, Fraction(10**5000))
        cert = replace(cert, moves=tuple(moves))
    report = verify_certificate(cert)
    assert not report.passed
    assert report.first_failure == failure.format(limit=sys.get_int_max_str_digits())


def test_certificate_replay_passes():
    cert = kk_gamma0_certificate()
    report = verify_certificate(cert)
    assert report.passed
    assert report.first_failure is None
    assert report.final_class == cert.target_class
    assert any("iterated-disjoin" in line for line in report.entries)
    assert str(report).endswith("verdict: PASS")


def test_certificate_replay_catches_bound_violation():
    cert = kk_gamma0_certificate()
    tampered_moves = []
    for move in cert.moves:
        if isinstance(move, Inflate) and move.object_id == "D123":
            tampered_moves.append(Inflate(object_id="D123", t=move.t * 100))
        else:
            tampered_moves.append(move)
    tampered = Certificate(
        model=cert.model,
        base_class=cert.base_class,
        moves=tuple(tampered_moves),
        target_class=cert.target_class,
    )
    report = verify_certificate(tampered)
    assert not report.passed
    assert "bound 2A/h violated" in report.first_failure
    assert "at move 6" in report.first_failure
    assert "FAIL" in str(report)


def test_certificate_replay_catches_wrong_target():
    cert = kk_gamma0_certificate()
    wrong = Certificate(
        model=cert.model,
        base_class=cert.base_class,
        moves=cert.moves,
        target_class=cert.base_class,
    )
    report = verify_certificate(wrong)
    assert not report.passed
    assert report.first_failure == "final class does not equal the target class"


def test_certificate_requires_completeness_and_interior_base():
    cert = kk_gamma0_certificate()
    incomplete_model = type(cert.model)(
        lattice=cert.model.lattice,
        curves=cert.model.curves,
        completeness_assumed=False,
    )
    report = verify_certificate(
        Certificate(
            model=incomplete_model,
            base_class=cert.base_class,
            moves=cert.moves,
            target_class=cert.target_class,
        )
    )
    assert not report.passed
    assert "completeness" in report.first_failure
    # base on the wall: pairs zero with the curves
    on_wall = Certificate(
        model=cert.model,
        base_class=cert.target_class,
        moves=cert.moves,
        target_class=cert.target_class,
    )
    report = verify_certificate(on_wall)
    assert not report.passed
    assert "not interior-Kähler" in report.first_failure


def test_restricted_initial_objects():
    cert = kk_gamma0_certificate()
    restricted = Certificate(
        model=cert.model,
        base_class=cert.base_class,
        moves=(),
        target_class=cert.base_class,
        initial_object_ids=("C1", "D123"),
    )
    state = initial_state(restricted)
    assert sorted(o.id for o in alive_objects(state)) == ["C1", "D123"]
    assert verify_certificate(restricted).passed


def test_random_inflates_track_exact_formulas():
    rng = random.Random(53)
    performed = 0
    while performed < 120:
        model = random_curve_model(rng)
        base = interior_class(model, rng)
        cert = Certificate(model=model, base_class=base, moves=(), target_class=base)
        state = initial_state(cert)
        lat = state.lattice
        for _ in range(4):
            alive = [o for o in alive_objects(state) if state.area(o.id) > 0]
            if not alive:
                break
            obj = rng.choice(alive)
            k = -lat.square(obj.vector)
            bound = 2 * state.area(obj.id) / h_param(int(k), obj.genus)
            t = bound * Fraction(rng.randint(1, 9), 10)
            before_sq = lat.square(state.current_class)
            area = state.area(obj.id)
            new = apply_move(state, Inflate(object_id=obj.id, t=t))
            assert lat.square(new.current_class) == before_sq + 2 * t * area - t * t * k
            assert new.current_class == state.current_class + obj.vector.scale(t)
            state = new
            performed += 1


def test_move_successors_pass_the_full_check():
    # successors skip the full pairwise check; rebuilding each one directly
    # runs it and must agree
    cert, state = _gamma0_state()
    for move in cert.moves:
        state = apply_move(state, move)
        rebuilt = ConfigurationState(
            lattice=state.lattice, current_class=state.current_class, objects=state.objects
        )
        assert rebuilt == state


def test_direct_state_rejects_an_object_of_the_wrong_rank():
    # a lone object is never paired by the pairwise check, but its area
    # would be read off the class's Gram product by index
    lat = IntersectionLattice(gram=((1, 0), (0, -2)), basis_labels=("w", "e"))
    for vector in (ClassVector((0, 1, 0)), ClassVector((1,))):
        lone = SurfaceObject(id="e", vector=vector, genus=0)
        with pytest.raises(MalformedInputError, match="^class vector rank does not match lattice$"):
            ConfigurationState(lattice=lat, current_class=ClassVector.basis(2, 0), objects=(lone,))


def test_smoothing_checks_the_new_object_against_live_objects():
    # The full check refuses a state whose live objects pair negatively.  A
    # smoothing from a checked state cannot make such a pair: the new class
    # is the sum of the constituents, each pairing nonnegatively with every
    # live object, and a reinstated one meets the sum count - need >= 0
    # times (test_a_smoothing_keeps_the_state_invariant).
    lat = IntersectionLattice(
        gram=((100, 0, 0, 0), (0, -2, 1, -1), (0, 1, -2, 0), (0, -1, 0, -2)),
        basis_labels=("w", "a", "b", "c"),
    )
    basis = [ClassVector.basis(4, i) for i in range(4)]
    cls = -(basis[1] + basis[2])
    objects = tuple(
        SurfaceObject(id=label, vector=basis[i], genus=0)
        for i, label in enumerate("abc", start=1)
    )
    with pytest.raises(PositivityError, match="alive objects 'a' and 'c' pair negatively"):
        ConfigurationState(lattice=lat, current_class=cls, objects=objects)


def _checked_state(model, rng):
    """A state over the model's curves and up to three surfaces of small
    integral classes, each kept only if it pairs nonnegatively with every
    object kept before it: a state that passes the full check."""
    lat = model.lattice
    base = interior_class(model, rng)
    objects = list(ConfigurationState.seeded(model, base).objects)
    for k in range(rng.randint(0, 3)):
        extra = SurfaceObject(f"s{k}", ClassVector([rng.randint(-1, 2) for _ in range(lat.rank)]), rng.randint(0, 2))
        if all(plain_pair(lat, extra.vector, o.vector) >= 0 for o in objects):
            objects.append(extra)
    return ConfigurationState(lattice=lat, current_class=base, objects=tuple(objects))


def _smoothing_outcome(smooth):
    """(class, genus) of the smoothing's new surface, or its refusal's type
    and message."""
    try:
        return smooth()
    except SymconeError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), twisted=st.booleans(), data=st.data())
def test_smoothing_agrees_with_the_dense_oracle(seed, twisted, data):
    # the curves of a random model, connected or not, and surfaces of small
    # integral classes, in a state that passes the full check: every refusal
    # a smoothing of a checked state can make
    rng = random.Random(seed)
    model = (twisted_curve_model if twisted else random_curve_model)(rng, 6)
    state = _checked_state(model, rng)
    ids = [o.id for o in state.objects]
    constituents = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4, unique=True), label="constituents")
    reinstates = data.draw(st.lists(st.sampled_from(constituents), unique=True), label="reinstates")

    def sparse():
        new = moves.smooth_and_reinstate(state, constituents, reinstates, "new").object("new")
        return new.vector, new.genus

    expected = _smoothing_outcome(lambda: dense_smoothing(state, constituents, reinstates, "new"))
    got = _smoothing_outcome(sparse)
    assert got == expected


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), twisted=st.booleans(), data=st.data())
def test_a_smoothing_keeps_the_state_invariant(seed, twisted, data):
    # a smoothing checks no pairing of its new object with the live ones:
    # from a state that passes the full check, every smoothing that succeeds
    # leaves objects that pass it too
    rng = random.Random(seed)
    model = (twisted_curve_model if twisted else random_curve_model)(rng, 6)
    state = _checked_state(model, rng)
    ids = [o.id for o in state.objects]
    constituents = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4, unique=True), label="constituents")
    reinstates = data.draw(st.lists(st.sampled_from(constituents), unique=True), label="reinstates")
    try:
        after = moves.smooth_and_reinstate(state, constituents, reinstates, "new")
    except SymconeError:
        return
    rebuilt = ConfigurationState(lattice=after.lattice, current_class=after.current_class, objects=after.objects)
    assert rebuilt == after


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_seeded_state_objects_pass_the_full_check(data):
    # a seeded state checks only its ids; the model's own check already
    # covers every pair of declared curves, so the full check must agree
    if data.draw(st.booleans(), label="random model"):
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        model = random_curve_model(random.Random(seed))
    else:
        model = builtin_model(data.draw(st.sampled_from(BUILTIN_MODEL_NAMES), label="name"))
    labels = data.draw(st.lists(st.sampled_from(model.labels), unique=True), label="labels")
    base = model.lattice.canonical_class or ClassVector.zero(model.lattice.rank)
    seeded = ConfigurationState.seeded(model, base, labels)
    assert [o.id for o in seeded.objects] == labels
    direct = ConfigurationState(lattice=model.lattice, current_class=base, objects=seeded.objects)
    assert direct == seeded
    every = ConfigurationState.seeded(model, base)
    assert every.objects == tuple(
        SurfaceObject(id=c.label, vector=c.vector, genus=c.genus) for c in model.curves
    )


def test_seeded_state_rejects_duplicate_and_unknown_ids():
    model = kk_gamma0_model()
    base = model.lattice.reference_class
    with pytest.raises(MalformedInputError, match="^object ids must be distinct$"):
        ConfigurationState.seeded(model, base, ("C1", "D123", "C1"))
    with pytest.raises(MalformedInputError, match="no curve labelled 'C9'"):
        ConfigurationState.seeded(model, base, ("C1", "C9", "C1"))


def test_duplicate_initial_objects_fail_verification():
    cert = kk_gamma0_certificate()
    duplicated = Certificate(
        model=cert.model,
        base_class=cert.base_class,
        moves=cert.moves,
        target_class=cert.target_class,
        initial_object_ids=("C1", "D123", "C2", "D249", "C2"),
    )
    report = verify_certificate(duplicated)
    assert not report.passed
    assert report.first_failure == "object ids must be distinct"


_KK = build_kk_model(extended=True)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=5, unique=True))
def test_report_areas_match_an_independent_pairing(subset):
    """Every areas: entry of a replayed kk-extended plan certificate is
    lat.pair(class, object) of the state it describes."""
    subset = tuple(sorted(subset))
    if not chambers.descriptor_for(_KK, subset).admissible:
        return
    alpha = ClassVector.basis(_KK.lattice.rank, 0) + _KK.lattice.canonical_class
    cert = plan(_KK, chambers.corner_point(_KK, alpha, subset))
    if not isinstance(cert, Certificate):
        return
    report = verify_certificate(cert)
    assert report.passed
    lat = _KK.lattice
    state = initial_state(cert)
    states = [state]
    for move in cert.moves:
        state = apply_move(state, move)
        states.append(state)
    lines = [e for e in report.entries if e.startswith("areas: ")]
    assert len(lines) == len(states)
    for line, state in zip(lines, states):
        expected = [
            f"{o.id}={format_rational(lat.pair(state.current_class, o.vector))}"
            for o in alive_objects(state)
        ]
        assert line == "areas: " + (", ".join(expected) or "(none)")


def test_seeded_objects_equal_checked_objects():
    """seeded skips SurfaceObject's checks; its objects are the ones the
    checks would have built, and a copy of one is checked again."""
    for name in BUILTIN_MODEL_NAMES:
        model = builtin_model(name)
        state = ConfigurationState.seeded(model, ClassVector.zero(model.lattice.rank))
        assert state.objects == tuple(
            SurfaceObject(id=c.label, vector=c.vector, genus=c.genus) for c in model.curves
        )
    with pytest.raises(MalformedInputError, match="nonnegative integer genus"):
        replace(state.objects[0], genus=-1)


def test_initial_state_reuses_a_given_product():
    """The base class keeps the product its first use made, and the
    initial state reads that one; an equal class built anew makes its own."""
    cert = kk_gamma0_certificate()
    lat = cert.model.lattice
    product = lat.gram_product(cert.base_class)
    assert product == dense_gram_product(lat, cert.base_class)
    assert initial_state(cert)._product is product
    fresh = replace(cert, base_class=ClassVector(cert.base_class.coords))
    assert "_gram_product" not in vars(fresh.base_class)
    assert initial_state(fresh)._product == product


def _base_lines_by_fraction(model, base, labels):
    """The verifier's base checks in order, from plain Fraction pairings."""
    lat = model.lattice
    square = plain_pair(lat, base, base)
    if not (square > 0 and plain_pair(lat, base, lat.reference_class) > 0):
        return "base class is not in the positive cone", None
    for c in model.curves:
        value = plain_pair(lat, base, c.vector)
        if value <= 0:
            return f"base class is not interior-Kähler: pairs {format_rational(value)} with {c.label!r}", None
    line = f"base class Kähler by model predicate; square {format_rational(square)}"
    if labels is not None and "nowhere" in labels:
        return "no curve labelled 'nowhere'", line
    if labels is not None and len(set(labels)) != len(labels):
        return "object ids must be distinct", line
    return None, line


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=21),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.sampled_from((None, ("C1", "D123"), ("C1", "nowhere"), ("C2", "C2"))),
)
def test_base_checks_keep_their_order_and_texts(index, shift, labels):
    """A moved base fails the positive cone, then the curves in model order,
    then writes its square, then the initial objects, with the texts a
    Fraction pairing gives, although all of them read one Gram product."""
    cert = kk_gamma0_certificate()
    base = cert.base_class + ClassVector.basis(cert.model.lattice.rank, index).scale(shift)
    moved = replace(cert, base_class=base, moves=(), target_class=base, initial_object_ids=labels)
    failure, line = _base_lines_by_fraction(cert.model, base, labels)
    report = verify_certificate(moved)
    assert report.first_failure == failure
    assert report.entries[:1] == ((line,) if line else ())


def test_ill_typed_moves_are_malformed_at_construction():
    assert Inflate("D123", "1/2").t == Fraction(1, 2)  # coerced as inflate coerces t
    assert SmoothAndReinstate(["a", "b"], ["b"], "c").constituent_ids == ("a", "b")
    for build, message in (
        (lambda: Inflate("D123", 0.5), "not an exact rational: 0.5"),
        (lambda: InflateNonneg(7, 1), "object_id: expected a string"),
        (lambda: SmoothAndReinstate((1, 2), (), "X"), "constituent_ids: expected a collection of strings"),
        (lambda: SmoothAndReinstate(("a",), "a", "X"), "reinstate_ids: expected a collection of strings"),
        (lambda: SmoothAndReinstate(("a",), (), None), "new_id: expected a string"),
    ):
        with pytest.raises(MalformedInputError, match=f"^{message}$"):
            build()
    with pytest.raises(MalformedInputError, match="^unknown move of type NoneType$"):
        describe_move(None)
    report = verify_certificate(replace(kk_gamma0_certificate(), moves=(None,)))
    assert report.first_failure == "unknown move of type NoneType at move 1"


# no move field accepts these; ids also refuse integers, and id collections
# refuse a lone string
_ILL_TYPED = st.one_of(
    st.none(),
    st.floats(),
    st.binary(min_size=1),
    st.lists(st.one_of(st.none(), st.integers()), min_size=1),
    st.dictionaries(st.integers(), st.text(), min_size=1),
)
_NOT_AN_ID = st.one_of(_ILL_TYPED, st.integers())
_NOT_IDS = st.one_of(_NOT_AN_ID, st.text())
_GAMMA0_IDS = {"C1", "D123", "C2", "D249", "Ctilde", "S", "Sprime"}


def _mutated_move(data, move):
    """move with one field ill-typed or wrong, of another kind, or replaced
    by something that is not a move; each must fail where it stands."""
    fields = dict(vars(move))
    kind = data.draw(st.sampled_from(("not a move", "ill-typed", "unknown id", "t <= 0", "kind")))
    if kind == "not a move":
        return data.draw(st.one_of(_NOT_AN_ID, st.text(), st.just(fields)))
    if isinstance(move, SmoothAndReinstate):
        field = data.draw(st.sampled_from(sorted(fields)))
        if kind == "ill-typed":
            fields[field] = data.draw(_NOT_AN_ID if field == "new_id" else _NOT_IDS)
        else:  # an unknown constituent, or a reinstated id that is not one
            ids = list(move.constituent_ids)
            ids[data.draw(st.integers(0, len(ids) - 1))] = data.draw(
                st.text().filter(lambda s: s not in _GAMMA0_IDS)
            )
            fields["constituent_ids"] = ids
        return SmoothAndReinstate(**fields)
    if kind == "ill-typed":
        field = data.draw(st.sampled_from(sorted(fields)))
        fields[field] = data.draw(_ILL_TYPED if field == "t" else _NOT_AN_ID)
    elif kind == "unknown id":
        fields["object_id"] = data.draw(st.text().filter(lambda s: s not in _GAMMA0_IDS))
    elif kind == "t <= 0":
        fields["t"] = data.draw(st.fractions(max_value=0))
    else:  # every inflated object here has negative square
        return InflateNonneg(**fields)
    return Inflate(**fields)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_replay_is_total_under_mutated_move_lists(data):
    """Building a mutated move raises MalformedInputError, or the replay
    reports a failure at that move; nothing else escapes."""
    cert = kk_gamma0_certificate()
    moves = list(cert.moves)
    n = data.draw(st.integers(0, len(moves) - 1), label="move index")
    try:
        moves[n] = _mutated_move(data, moves[n])
    except MalformedInputError:
        return
    report = verify_certificate(replace(cert, moves=tuple(moves)))
    assert not report.passed
    assert report.first_failure.endswith(f" at move {n + 1}")


def test_ill_typed_certificate_fields_are_malformed_at_construction():
    cert = kk_gamma0_certificate()
    for field, value, message in (
        ("base_class", None, "base_class: expected a ClassVector"),
        ("base_class", cert.base_class.coords, "base_class: expected a ClassVector"),
        ("target_class", "w0", "target_class: expected a ClassVector"),
        ("model", None, "model: expected a CurveModel"),
        ("moves", None, "moves: expected a collection of moves"),
        ("moves", "inflate", "moves: expected a collection of moves"),
        ("initial_object_ids", 5, "initial_object_ids: expected a collection of strings"),
        ("initial_object_ids", "C1", "initial_object_ids: expected a collection of strings"),
        ("annotations", None, "annotations: expected a collection of strings"),
        ("annotations", [1], "annotations: expected a collection of strings"),
    ):
        with pytest.raises(MalformedInputError, match=f"^{message}$"):
            replace(cert, **{field: value})
    # collections become tuples, so a certificate stays hashable and immutable
    listed = replace(cert, moves=list(cert.moves), initial_object_ids=["C1", "D123"], annotations=["a"])
    assert (listed.moves, listed.initial_object_ids, listed.annotations) == (cert.moves, ("C1", "D123"), ("a",))


_KK_GAMMA0 = kk_gamma0_model()
_FIELD_VALUES = {
    "model": st.one_of(_ILL_TYPED, st.integers(), st.text(), st.sampled_from((_KK, _KK_GAMMA0))),
    "base_class": st.one_of(
        _ILL_TYPED,
        st.lists(st.fractions(max_denominator=9), min_size=1, max_size=22).map(tuple),
        st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=9), min_size=1, max_size=23).map(ClassVector),
    ),
    "moves": st.one_of(
        _ILL_TYPED, st.integers(), st.text(),
        st.lists(st.sampled_from(kk_gamma0_certificate().moves + (None, 3, "inflate")), max_size=8),
    ),
    "initial_object_ids": st.one_of(_NOT_IDS, st.lists(st.sampled_from(sorted(_GAMMA0_IDS) + ["zz"]), max_size=5)),
    "annotations": st.one_of(_NOT_IDS, st.lists(st.text(max_size=5), max_size=3)),
}
_FIELD_VALUES["target_class"] = _FIELD_VALUES["base_class"]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_certificate_fields_are_malformed_or_replayed(data):
    """A certificate with one or two fields replaced either refuses to be
    built with MalformedInputError or replays to a report whose lines can be
    read; nothing else escapes."""
    cert = kk_gamma0_certificate()
    fields = data.draw(st.lists(st.sampled_from(sorted(_FIELD_VALUES)), min_size=1, max_size=2, unique=True))
    changes = {field: data.draw(_FIELD_VALUES[field], label=field) for field in fields}
    try:
        mutated = replace(cert, **changes)
    except MalformedInputError:
        return
    report = verify_certificate(mutated)
    assert report.passed == (report.first_failure is None)
    assert str(report).endswith("verdict: PASS" if report.passed else f"verdict: FAIL ({report.first_failure})")


def _assert_products_carried(report):
    """The class of every state the replay records keeps a Gram product for
    the state's lattice, and that product is the dense G @ (d c)."""
    assert report.records
    for record in report.records:
        for state in (record.before, record.after):
            if state is None:
                continue
            lattice, product = vars(state.current_class)["_gram_product"]
            assert lattice is state.lattice
            assert product == dense_gram_product(lattice, state.current_class)


def test_replay_carries_gram_products_on_hesse_plans_and_gamma0():
    """Hesse's nine curves are not basis vectors, so its inflations carry
    products through G v for a v of several terms."""
    model = builtin_model("hesse")
    alpha = ClassVector((10,) + (-1,) * 12)  # 10 H minus every exceptional class
    checked = 0
    for subset in [(i,) for i in range(9)] + [(0, 1), (2, 5), (3, 4, 8), tuple(range(9))]:
        cert = plan(model, chambers.corner_point(model, alpha, subset))
        assert isinstance(cert, Certificate)
        report = verify_certificate(cert)
        assert report.passed
        _assert_products_carried(report)
        checked += len(report.records)
    assert checked == 9 + 2 + 2 + 3 + 9  # one inflation per curve: they are orthogonal
    report = verify_certificate(kk_gamma0_certificate())
    assert [r.number for r in report.records] == list(range(1, 8))
    _assert_products_carried(report)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_replay_carries_gram_products_under_mutated_move_lists(data):
    cert = kk_gamma0_certificate()
    moves = list(cert.moves)
    n = data.draw(st.integers(0, len(moves) - 1), label="move index")
    try:
        moves[n] = _mutated_move(data, moves[n])
    except MalformedInputError:
        return
    report = verify_certificate(replace(cert, moves=tuple(moves)))
    assert len(report.records) == n + 1
    assert report.records[-1].after is None
    _assert_products_carried(report)


def test_replay_defers_its_area_and_class_lines(monkeypatch):
    """plan and a verdict never render the move, areas: or class after
    lines; the first read of a report's entries does."""
    def refuse(*args):
        raise AssertionError("rendered")

    monkeypatch.setattr(moves, "_area_line", refuse)
    monkeypatch.setattr(moves, "_class_line", refuse)
    monkeypatch.setattr(moves, "_move_line", refuse)
    alpha = ClassVector.basis(_KK.lattice.rank, 0) + _KK.lattice.canonical_class
    for subset in ((0,), (0, 1), (3, 12), (9, 20)):
        cert = plan(_KK, chambers.corner_point(_KK, alpha, subset))
        assert isinstance(cert, Certificate)
        report = verify_certificate(cert)
        assert report.passed
        with pytest.raises(AssertionError, match="rendered"):
            report.entries


def _digits_in_deferred_lines(cert) -> int:
    """The most digits of a numerator or denominator in the certificate's
    class after and areas: lines, from Fraction pairings."""
    lat = cert.model.lattice
    state = initial_state(cert)
    states = [state]
    for move in cert.moves:
        state = apply_move(state, move)
        states.append(state)
    numbers = [x for s in states for x in s.current_class.coords]
    numbers += [lat.pair(s.current_class, o.vector) for s in states for o in alive_objects(s)]
    return max(len(str(abs(n))) for x in numbers for n in (x.numerator, x.denominator))


def _with_reached_target(cert):
    state = initial_state(cert)
    for move in cert.moves:
        state = apply_move(state, move)
    return replace(cert, target_class=state.current_class)


def _long_gamma0(j):
    """kk_gamma0_certificate with move 3's t = 8 - 7^-380 and move 5's
    t = 4 - 3^-j: each t fits 640 digits, the later classes' denominators
    are about 7^380 3^j."""
    cert = kk_gamma0_certificate()
    moves = list(cert.moves)
    moves[2] = Inflate("S", 8 - Fraction(1, 7**380))
    moves[4] = Inflate("Sprime", 4 - Fraction(1, 3**j))
    return _with_reached_target(replace(cert, moves=tuple(moves)))


def _long_kk(j):
    """plan's certificate for the C1, C2 corner of w0 + K on kk-extended,
    its C1 inflation by 8/3 - 1/(3 10^j): its areas outgrow its classes."""
    alpha = ClassVector.basis(_KK.lattice.rank, 0) + _KK.lattice.canonical_class
    cert = plan(_KK, chambers.corner_point(_KK, alpha, (0, 1)))
    assert cert.moves == (Inflate("C1", Fraction(8, 3)), Inflate("C2", Fraction(8, 3)))
    first = Inflate("C1", Fraction(8, 3) - Fraction(1, 3 * 10**j))
    return _with_reached_target(replace(cert, moves=(first,) + cert.moves[1:]))


# (certificate, digits of its longest deferred number, and the report the
# eagerly rendering replay gave under a 640-digit limit: first failure,
# entry count and sha256 of the entries joined by newlines)
_DIGIT_LIMIT_CASES = (
    (_long_gamma0, 664, 639, None, 27, "7fe1bce31bc0188976197b18cbe39d49549a8f5b8ee514c4a91443e6ca001942"),
    (_long_gamma0, 666, 640, None, 27, "812b9bb02f96a2b631eb026115600ce392d63678c153bdd840aa31c60503cd6a"),
    (_long_gamma0, 668, 641, "class: output exceeds the 640-digit integer limit", 17,
     "2ab6475b27d3c85afc3e748b42e6ff329c5fc58f74a7272f98f3b827854a38ba"),
    (_long_kk, 637, 639, None, 9, "1391fbd9ade17c85de0c0e2c2fd9877edf75fe40b92da6877db839102406337a"),
    (_long_kk, 638, 640, None, 9, "e328c6fddb1489c21706207c995ea9a32afebd4d20dc5f54329505ad79177696"),
    (_long_kk, 639, 641, "area: output exceeds the 640-digit integer limit", 4,
     "07508a516badd29819926846f8df775bcc21a12173ebc6513157456451d2885d"),
)


def _outcome(render):
    """render(), or the class and message of the error it raised."""
    try:
        return render()
    except SymconeError as exc:
        return type(exc), str(exc)


_LONG = st.integers(10**650, 10**700)
_NUMERATORS = st.integers(-(10**6), 10**6) | st.just(0) | _LONG | _LONG.map(lambda x: -x)


@settings(max_examples=150, deadline=None)
@given(
    rank=st.integers(1, 6),
    d=st.sampled_from((1, 2, 6, 35)) | st.integers(1, 10**6) | _LONG,
    data=st.data(),
)
def test_class_and_area_lines_are_written_as_the_fraction_oracle_writes_them(rank, d, data):
    """texts, _class_line and _area_line reduce and write their numbers
    inline: they give what format_rational gives each Fraction coordinate
    and pairing, and the repr of the texts, with integral and fractional
    classes, zero and negative entries and rank 1 (a one-entry tuple).
    Under a 640-digit limit they refuse a long number with the oracle's
    RangeError text."""
    numerators = data.draw(st.lists(_NUMERATORS, min_size=rank, max_size=rank), label="numerators")
    vec = ClassVector.from_integer_form(rank, d, enumerate(numerators))
    entries = st.integers(-3, 3)
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            gram[i][j] = gram[j][i] = data.draw(entries, label="gram")
    lattice = IntersectionLattice(gram=gram)
    objects = tuple(
        SurfaceObject(f"o{k}", ClassVector(data.draw(st.lists(entries, min_size=rank, max_size=rank))), 0, alive)
        for k, alive in enumerate(data.draw(st.lists(st.booleans(), max_size=4), label="alive"))
    )
    state = ConfigurationState._proven(lattice, vec, objects, {o.id: k for k, o in enumerate(objects)})
    record = MoveRecord(7, Inflate("o0", Fraction(1)), state, None, state)
    pairs = (
        (vec.texts, lambda: class_texts(vec)),
        (lambda: moves._class_line(record), lambda: class_line(7, vec)),
        (lambda: moves._area_line(state), lambda: area_line(state)),
    )
    limit = sys.get_int_max_str_digits()
    try:
        for limited in (0, 640):
            sys.set_int_max_str_digits(limited)
            for render, oracle in pairs:
                assert _outcome(render) == _outcome(oracle), limited
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("build, j, digits, failure, count, digest", _DIGIT_LIMIT_CASES)
def test_deferred_lines_meet_the_digit_limit_where_they_stand(build, j, digits, failure, count, digest):
    """Numbers of 639, 640 and 641 digits in the deferred lines, under a
    640-digit limit: the first two replay and render, the third fails at
    the line that holds it, with the report an eager replay gave."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        cert = build(j)
        assert _digits_in_deferred_lines(cert) == digits
        sys.set_int_max_str_digits(640)
        report = verify_certificate(cert)
        assert (report.passed, report.first_failure) == (failure is None, failure)
        entries = report.entries
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(entries) == count
    assert hashlib.sha256("\n".join(entries).encode()).hexdigest() == digest


@settings(max_examples=60, deadline=None)
@given(
    indices=st.lists(st.sampled_from((2, 4, 5, 6)), min_size=2, max_size=2, unique=True),
    bases=st.lists(st.sampled_from((2, 3, 7, 10)), min_size=2, max_size=2),
    digits=st.lists(st.integers(150, 450), min_size=2, max_size=2),
    reach=st.booleans(),
)
def test_a_deferred_line_is_never_past_the_digit_limit(indices, bases, digits, reach):
    """Under a 640-digit limit, two inflations of the kk-gamma0 certificate
    given amplitudes with long denominators, whose product the later classes
    carry: the replay's bounds either prove a line fits or render it at
    once, so reading the entries never raises."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        cert = kk_gamma0_certificate()
        moves = list(cert.moves)
        for index, base, n in zip(indices, bases, digits):
            q = base ** math.ceil(n / math.log10(base))  # about n digits
            moves[index] = Inflate(moves[index].object_id, moves[index].t - Fraction(1, q))
        cert = replace(cert, moves=tuple(moves))
        if reach:
            cert = _with_reached_target(cert)
        longest = _digits_in_deferred_lines(cert)
        sys.set_int_max_str_digits(640)
        report = verify_certificate(cert)
        entries = report.entries
    finally:
        sys.set_int_max_str_digits(limit)
    if longest <= 640 and reach:
        assert report.passed
    assert len(entries) >= 2


def _unshared(model):
    """An equal CurveModel built from new objects, so that it shares no Gram,
    support, seed or object cache with model."""
    lat = model.lattice

    def fresh(v):
        return None if v is None else ClassVector(v.coords)

    lattice = IntersectionLattice(
        gram=lat.gram, basis_labels=lat.basis_labels,
        canonical_class=fresh(lat.canonical_class), reference_class=fresh(lat.reference_class),
    )
    curves = tuple(CurveData(c.label, fresh(c.vector), c.genus) for c in model.curves)
    return CurveModel(lattice, curves, model.completeness_assumed)


def _report_facts(report):
    return (
        report.passed, report.first_failure, report.entries, report.final_class,
        [(r.number, r.move, r.bound, r.after is None) for r in report.records],
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), twisted=st.booleans(), data=st.data())
def test_cached_gram_data_and_seeds_change_no_report(seed, twisted, data):
    """A replay over a model whose classes already keep Gram products
    (plan's peel and a first replay made them) reports what a replay over
    an equal model built from scratch does, also with one t nudged to its
    bound 2A/h, where the replay must fail."""
    rng = random.Random(seed)
    model = (twisted_curve_model if twisted else random_curve_model)(rng)
    alpha = interior_class(model, rng)
    subset = data.draw(st.lists(st.integers(0, len(model.curves) - 1), min_size=1, max_size=3, unique=True))
    descriptor = chambers.descriptor_for(model, subset)
    if not descriptor.admissible:
        return
    cert = plan(model, chambers.corner_point(model, alpha, descriptor))
    if not isinstance(cert, Certificate):
        return
    bounded = [r for r in verify_certificate(cert).records if r.bound is not None]
    nudged = bounded and data.draw(st.sampled_from([None, *bounded]))
    if nudged:
        moves = list(cert.moves)
        moves[nudged.number - 1] = Inflate(nudged.move.object_id, nudged.bound)
        cert = replace(cert, moves=tuple(moves))
    warm = verify_certificate(cert)
    cold = verify_certificate(replace(cert, model=_unshared(model)))
    assert _report_facts(warm) == _report_facts(cold)
    if nudged:
        assert warm.first_failure == f"bound 2A/h violated at move {nudged.number}"
    else:
        assert warm.passed


def test_an_object_keeps_gram_data_for_its_own_lattice():
    """One object in states of three rank-2 lattices that differ only in the
    square of e: each state sees its own v^2 and so its own bound 2A/h,
    whichever lattice the object met before."""
    reference = ClassVector.basis(2, 0)
    lattices = {
        square: IntersectionLattice(gram=((10, 0), (0, square)), reference_class=reference)
        for square in (-2, -3, 1)
    }
    obj = SurfaceObject(id="e", vector=ClassVector.basis(2, 1), genus=0)
    current = ClassVector((Fraction(1), Fraction(-1, 2)))
    # area -square/2; h is 2 for -2 and 4 for the odd sphere -3
    expected = {-2: Fraction(1), -3: Fraction(3, 4)}
    for square in (-2, -3, -2, 1, -3, 1, -2):
        state = ConfigurationState(lattice=lattices[square], current_class=current, objects=(obj,))
        if square >= 0:
            with pytest.raises(WrongMoveError, match="use inflate_nonneg"):
                moves.inflate(state, "e", Fraction(1, 10))
            continue
        with pytest.raises(BoundViolationError) as raised:
            moves.inflate(state, "e", 10)
        assert raised.value.args[1]["bound"] == expected[square]
        after = moves.inflate(state, "e", expected[square] / 2)
        assert after._product == dense_gram_product(after.lattice, after.current_class)


def test_a_certificate_keeps_its_report_and_a_copy_is_replayed(monkeypatch):
    model = builtin_model("kk-extended")
    alpha = model.lattice.reference_class + model.lattice.canonical_class
    cert = plan(model, chambers.corner_point(model, alpha, (model.index_of("C1"), model.index_of("D123"))))
    assert isinstance(cert, Certificate) and len(cert.moves) > 1
    starts, start = [], Replay.start
    monkeypatch.setattr(Replay, "start", lambda c: starts.append(c) or start(c))
    kept = verify_certificate(cert)
    assert kept.passed and verify_certificate(cert) is kept
    assert starts == []
    # a copy by replace is an equal certificate with no report: it replays
    copy = replace(cert)
    assert copy == cert and hash(copy) == hash(cert)
    again = verify_certificate(copy)
    assert starts == [copy] and again is not kept
    assert str(again) == str(kept) and report_to_doc(again) == report_to_doc(kept)
    # and so does a certificate that went through the codec
    parsed = certificate_from_doc(certificate_to_doc(cert, model_name="kk-extended"))
    assert parsed == cert
    assert str(verify_certificate(parsed)) == str(kept)
    assert starts == [copy, parsed]
    # each copy now keeps the report of its own replay
    assert verify_certificate(copy) is again
    assert len(starts) == 2


@pytest.mark.parametrize("value", [None, 3, "certificate", (), kk_gamma0_model(), object()])
def test_verify_certificate_fails_a_non_certificate(value):
    report = verify_certificate(value)
    assert not report.passed
    assert report.first_failure == f"expected a Certificate, not {type(value).__name__}"
    assert report.records == () and report.final_class is None
    assert str(report).endswith(f"verdict: FAIL ({report.first_failure})")
    assert report_to_doc(report)["passed"] is False


def test_an_inflation_measures_its_bound_once(monkeypatch):
    """A replay builds each Inflate's square, area and bound once, for its
    line and its move alike, and still writes the line of a move that
    violates the bound."""
    cert = replace(kk_gamma0_certificate())
    counts = collections.Counter()
    for name in ("_inflation_bound", "_inflated"):
        def counted(*args, _name=name, _fn=getattr(moves, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(moves, name, counted)
    assert verify_certificate(cert).passed
    assert counts["_inflation_bound"] == counts["_inflated"] == 4
    counts.clear()
    overshot = list(cert.moves)
    overshot[5] = Inflate("D123", overshot[5].t * 100)
    report = verify_certificate(replace(cert, moves=tuple(overshot)))
    assert report.first_failure == "bound 2A/h violated at move 6"
    assert report.entries[-1].startswith("move 6: inflate(D123, t=") and "bound 2A/h = " in report.entries[-1]
    assert counts["_inflation_bound"] == counts["_inflated"] + 1 == 3


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), twisted=st.booleans(), data=st.data())
def test_an_inflation_inside_its_bound_raises_the_square(seed, twisted, data):
    """A replay step tests no square after an inflation: on certificates
    that inflate the curves of a random model in a drawn order, each by an
    amplitude drawn inside (0, 2A/h), every inflation record's after square
    is strictly greater than its before square."""
    rng = random.Random(seed)
    model = (twisted_curve_model if twisted else random_curve_model)(rng, 6)
    lat = model.lattice
    base = interior_class(model, rng)
    state, steps = ConfigurationState.seeded(model, base), []
    for label in data.draw(st.permutations(model.labels), label="order"):
        curve = model.curve(label)
        area = state.area(label)
        if area <= 0:
            continue
        bound = 2 * area / h_param(int(-plain_pair(lat, curve.vector, curve.vector)), curve.genus)
        move = Inflate(label, bound * Fraction(data.draw(st.integers(1, 999), label="ratio"), 1000))
        steps.append(move)
        state = apply_move(state, move)
    report = verify_certificate(Certificate(model, base, tuple(steps), state.current_class))
    assert report.passed and len(report.records) == len(steps)
    for record in report.records:
        before, after = (plain_pair(lat, s.current_class, s.current_class) for s in (record.before, record.after))
        assert after > before > 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), twisted=st.booleans(), data=st.data())
def test_inflate_accepts_exactly_the_open_fraction_window(seed, twisted, data):
    """inflate takes t exactly when 0 < t < 2A/h with A and the square as
    plain Fraction pairings: t at the bound, at 0 and below raise
    BoundViolationError; an accepted t gives c + t v, with the Gram product
    the successor carries equal to the dense one."""
    rng = random.Random(seed)
    model = (twisted_curve_model if twisted else random_curve_model)(rng, 6)
    lat = model.lattice
    base = interior_class(model, rng)
    state = initial_state(Certificate(model=model, base_class=base, moves=(), target_class=base))
    obj = data.draw(st.sampled_from(state.objects), label="object")
    area = plain_pair(lat, base, obj.vector)
    bound = 2 * area / h_param(int(-plain_pair(lat, obj.vector, obj.vector)), obj.genus)
    ratios = (Fraction(0), Fraction(1), -Fraction(1, 3), data.draw(st.fractions(-1, 2, max_denominator=50)))
    for t in (bound * r for r in ratios):
        if 0 < t < bound:
            after = moves.inflate(state, obj.id, t)
            assert after.current_class == base + obj.vector.scale(t)
            assert after._product == dense_gram_product(lat, after.current_class)
            assert not after.object(obj.id).alive
        else:
            with pytest.raises(BoundViolationError) as info:
                moves.inflate(state, obj.id, t)
            assert info.value.args == ("bound 2A/h violated", {"object": obj.id, "t": t, "bound": bound})

import random
import sys
from dataclasses import replace
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
    WrongMoveError,
)
from symcone import chambers
from symcone.lattice import ClassVector, IntersectionLattice
from symcone.linalg import format_rational
from symcone.models import (
    BUILTIN_MODEL_NAMES,
    build_kk_model,
    builtin_model,
    kk_gamma0_certificate,
    kk_gamma0_model,
)
from symcone.moves import (
    Certificate,
    ConfigurationState,
    Inflate,
    InflateNonneg,
    SmoothAndReinstate,
    SurfaceObject,
    apply_move,
    describe_move,
    h_param,
    initial_state,
    verify_certificate,
)
from symcone.planner import plan

from oracles import interior_class, random_curve_model


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
    for other in state.alive_objects():
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
    assert sorted(o.id for o in state.alive_objects()) == ["C1", "D123"]
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
            alive = [o for o in state.alive_objects() if state.area(o.id) > 0]
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
    # From a checked state this cannot happen: the new class is the sum of
    # the constituents, each pairing nonnegatively with every live object.
    # So the state is assembled past the full check to reach the guard.
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
    empty = ConfigurationState(lattice=lat, current_class=cls, objects=())
    unchecked = ConfigurationState._proven(lat, cls, objects)
    with pytest.raises(PositivityError) as inductive:
        apply_move(unchecked, SmoothAndReinstate(("a", "b"), (), "x"))
    merged = SurfaceObject(id="x", vector=basis[1] + basis[2], genus=0)
    after = (
        SurfaceObject(id="a", vector=basis[1], genus=0, alive=False),
        SurfaceObject(id="b", vector=basis[2], genus=0, alive=False),
        objects[2],
        merged,
    )
    with pytest.raises(PositivityError) as full:
        ConfigurationState(lattice=lat, current_class=cls, objects=after)
    assert str(inductive.value) == str(full.value) == "alive objects 'c' and 'x' pair negatively"


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


_KK = build_kk_model(extended=True).model


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
            for o in state.alive_objects()
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
    cert = kk_gamma0_certificate()
    product = cert.model.lattice.gram_product(cert.base_class)
    state = initial_state(cert, product)
    assert state._product is product
    assert initial_state(cert)._product == product


def _plain_pair(lat, a, b):
    return sum(
        x * lat.gram[i][j] * y
        for i, x in enumerate(a.coords) if x
        for j, y in enumerate(b.coords) if y
    )


def _base_lines_by_fraction(model, base, labels):
    """The verifier's base checks in order, from plain Fraction pairings."""
    lat = model.lattice
    square = _plain_pair(lat, base, base)
    if not (square > 0 and _plain_pair(lat, base, lat.reference_class) > 0):
        return "base class is not in the positive cone", None
    for c in model.curves:
        value = _plain_pair(lat, base, c.vector)
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

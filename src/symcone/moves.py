"""The inflation move engine.

A ConfigurationState carries a running symplectic class together with the
surface objects currently guaranteed to be symplectic.  Moves transform
states: inflating along a negative-square surface consumes it and shifts the
class by t times its class (0 < t < 2A/h, A its area); inflating along a
nonnegative-square surface is unbounded and keeps the surface; smoothing
replaces a positively-intersecting connected configuration by one embedded
surface in the sum class, optionally re-creating ("reinstating") some
constituents as disjoint parallel copies.

A state's invariant is that no two alive objects pair negatively.  A state
built directly is outside input and gets the full pairwise check.  A state
seeded from a model's declared curves checks only that its ids are distinct:
the model has already proved the invariant for its curves.  The invariant is
inductive under moves: inflations only kill objects and a smoothing adds
exactly one, so a move checks just its new object against the alive set and
builds the successor without re-checking the rest.

A state pairs through one integer Gram product P = G @ (d c) of its class c
of denominator d: its areas and positive-cone test read it.  The verifier's
base checks build it once for the initial state.  A successor takes it from
its parent: a smoothing keeps the class and so shares P, and an inflation by
t = p/q along v carries it as (d'q P + d'dp G v) / (dq), an exact integer
division (d' the new denominator).

A Certificate packages a base class, a move list, and a target class; the
verifier replays it with exact arithmetic and keeps one record per move: the
state before it, its bound 2A/h and the state after it.  The base-square and
move lines are written during the replay; the "class after" and "areas:"
lines are rendered from the records on the first read of the report's
entries.  Bounds on the bit lengths of their numbers are measured on the
initial state and carried through each move by its t; where they cannot
prove that the numbers fit the interpreter's digit limit, the lines are
rendered at once, so that a number past the limit fails the replay where
it stands.  Report numbers are
written from integer numerators and denominators.  Failures are report
entries, never exceptions.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, partial
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence, Union

from . import linalg
from .errors import (
    BoundViolationError,
    ConnectivityError,
    LivenessError,
    MalformedInputError,
    PositivityError,
    PreconditionError,
    SymconeError,
    WrongMoveError,
)
from .lattice import ClassVector, CurveData, CurveModel, IntersectionLattice, pairing_components
from .linalg import format_ratio, format_rational


def h_param(k: int, g: int) -> int:
    """Inflation denominator: k, except k+1 for spheres of odd square."""
    if not isinstance(k, int) or k <= 0:
        raise PreconditionError("k must be a positive integer")
    if not isinstance(g, int) or g < 0:
        raise MalformedInputError("genus must be a nonnegative integer")
    if g == 0 and k % 2 == 1:
        return k + 1
    return k


@dataclass(frozen=True)
class SurfaceObject:
    id: str
    vector: ClassVector
    genus: int
    alive: bool = True

    def __post_init__(self):
        if not self.vector.is_integral:
            raise MalformedInputError(f"object {self.id!r} must have an integral class")
        if not isinstance(self.genus, int) or self.genus < 0:
            raise MalformedInputError(f"object {self.id!r} needs a nonnegative integer genus")

    @classmethod
    def _of_curve(cls, curve: CurveData) -> "SurfaceObject":
        """An alive object for a declared curve, built without the checks:
        CurveData has proved its class integral and its genus valid."""
        obj = object.__new__(cls)
        obj.__dict__.update(id=curve.label, vector=curve.vector, genus=curve.genus, alive=True)
        return obj


@dataclass(frozen=True)
class ConfigurationState:
    """Immutable snapshot: running class plus surface objects.

    Geometric intersection numbers between alive objects are the homological
    pairings (the modeling assumption that all intersections are transverse
    and positive); creation rejects states where that would be negative.
    Moves build successors with _proven and seeded states come from
    seeded; both skip this check.
    """

    lattice: IntersectionLattice
    current_class: ClassVector
    objects: tuple[SurfaceObject, ...]

    def __post_init__(self):
        ids = [o.id for o in self.objects]
        if len(set(ids)) != len(ids):
            raise MalformedInputError("object ids must be distinct")
        # areas are read off the class's Gram product by index
        if any(o.vector.rank != self.lattice.rank for o in self.objects):
            raise MalformedInputError("class vector rank does not match lattice")
        alive = [o for o in self.objects if o.alive]
        for i, a in enumerate(alive):
            b = _negative_partner(self.lattice, a, alive[i + 1 :])
            if b is not None:
                raise PositivityError(f"alive objects {a.id!r} and {b.id!r} pair negatively")

    @classmethod
    def _proven(
        cls,
        lattice: IntersectionLattice,
        current_class: ClassVector,
        objects: tuple[SurfaceObject, ...],
        product: list[int] | None = None,
    ) -> "ConfigurationState":
        """A state built without the full check, for a caller that has
        already proved the invariant.  product, if given, is the class's
        Gram product, already built by the caller."""
        state = object.__new__(cls)
        state.__dict__.update(lattice=lattice, current_class=current_class, objects=objects)
        if product is not None:
            state.__dict__["_product"] = product
        return state

    @classmethod
    def seeded(
        cls,
        model: CurveModel,
        current_class: ClassVector,
        labels: Iterable[str] | None = None,
        product: list[int] | None = None,
    ) -> "ConfigurationState":
        """A state whose alive objects are declared curves of the model: all
        of them, or those named by labels, in that order, with product as
        in _proven.

        Of the state and object checks only the distinct ids run.  CurveModel
        has proved that no two declared curves pair negatively, so the
        pairwise check could not fail."""
        curves = model.curves if labels is None else tuple(map(model.curve, labels))
        objects = tuple(map(SurfaceObject._of_curve, curves))
        if len({o.id for o in objects}) != len(objects):
            raise MalformedInputError("object ids must be distinct")
        return cls._proven(model.lattice, current_class, objects, product)

    def object(self, object_id: str) -> SurfaceObject:
        for o in self.objects:
            if o.id == object_id:
                return o
        raise MalformedInputError(f"no object with id {object_id!r}")

    @cached_property
    def _product(self) -> list[int]:
        """G @ (d c), c the current class and d its denominator."""
        return self.lattice.gram_product(self.current_class)

    @cached_property
    def _inflations(self) -> dict:
        """_inflation_bound's results by object id."""
        return {}

    def _scaled(self, vector: ClassVector) -> int:
        """d d_v pair(c, vector), d_v the vector's denominator (1 for objects)."""
        product = self._product
        return sum(x * product[i] for i, x in vector.integer_form[1])

    def area(self, object_id: str) -> Fraction:
        scaled = self._scaled(self.object(object_id).vector)
        return Fraction(scaled, self.current_class.integer_form[0])

    def _in_positive_cone(self) -> bool:
        """is_positive_cone of the current class; needs a reference class."""
        reference = self.lattice.reference_class
        return self._scaled(self.current_class) > 0 and self._scaled(reference) > 0

    def alive_objects(self) -> tuple[SurfaceObject, ...]:
        return tuple(o for o in self.objects if o.alive)


def _negative_partner(
    lattice: IntersectionLattice, obj: SurfaceObject, others: Sequence[SurfaceObject]
) -> SurfaceObject | None:
    """The first of others that pairs negatively with obj, if any."""
    signs = lattice.scaled_pairings(obj.vector, [o.vector for o in others])
    return next((o for o, x in zip(others, signs) if x < 0), None)


def _require_alive(state: ConfigurationState, object_id: str) -> SurfaceObject:
    obj = state.object(object_id)
    if not obj.alive:
        raise LivenessError(f"object {object_id!r} is not alive")
    return obj


def _inflation_bound(state: ConfigurationState, obj: SurfaceObject) -> tuple:
    """The object's square, d times its area A, for a negative square the
    bound 2A/h, and G @ v for its class v: once per state and object, for
    the report line, the move and the successor's product."""
    found = state._inflations.get(obj.id)
    if found is None:
        gram_v = state.lattice.gram_product(obj.vector)
        square = sum(x * gram_v[i] for i, x in obj.vector.integer_form[1])
        scaled = state._scaled(obj.vector)
        bound = None
        if square < 0:
            h = h_param(-square, obj.genus)
            bound = Fraction(2 * scaled, state.current_class.integer_form[0] * h)
        found = state._inflations[obj.id] = (square, scaled, bound, gram_v)
    return found


def _inflated(
    state: ConfigurationState, t: Fraction, obj: SurfaceObject, gram_v: list[int], objects: tuple
) -> ConfigurationState:
    """The successor of class c' = c + t v, v the object's class, with its
    Gram product carried from the state's P: for t = p/q and denominators d
    of c and d' of c', G @ (d'c') = (d'q P + d'dp G v) / (dq), exactly."""
    current = state.current_class + obj.vector.scale(t)
    d, d_new = state.current_class.integer_form[0], current.integer_form[0]
    a, b, m = d_new * t.denominator, d_new * d * t.numerator, d * t.denominator
    product = [(a * x + b * y) // m for x, y in zip(state._product, gram_v)]
    return state._proven(state.lattice, current, objects, product)


def inflate(state: ConfigurationState, object_id: str, t) -> ConfigurationState:
    """Add t times the object's class for 0 < t < 2A/h; consumes the object."""
    obj = _require_alive(state, object_id)
    t = linalg.as_fraction(t)
    square, scaled, bound, gram_v = _inflation_bound(state, obj)
    if bound is None:
        raise WrongMoveError(
            f"object {object_id!r} has square {format_rational(square, 'square')} >= 0; "
            "use inflate_nonneg"
        )
    if scaled <= 0:
        area = format_ratio(scaled, state.current_class.integer_form[0], "area")
        raise PreconditionError(f"object {object_id!r} has area {area} <= 0")
    if not 0 < t < bound:
        raise BoundViolationError(
            "bound 2A/h violated",
            {"object": object_id, "t": t, "bound": bound},
        )
    new_objects = tuple(
        replace(o, alive=False) if o.id == object_id else o for o in state.objects
    )
    return _inflated(state, t, obj, gram_v, new_objects)


def inflate_nonneg(state: ConfigurationState, object_id: str, t) -> ConfigurationState:
    """Add t > 0 times a nonnegative-square object's class; the object survives."""
    obj = _require_alive(state, object_id)
    t = linalg.as_fraction(t)
    square, scaled, _, gram_v = _inflation_bound(state, obj)
    if square < 0:
        raise WrongMoveError(f"object {object_id!r} has negative square; use inflate")
    if scaled <= 0:
        raise PreconditionError(f"object {object_id!r} has non-positive area")
    if t <= 0:
        raise PreconditionError("t must be positive")
    return _inflated(state, t, obj, gram_v, state.objects)


def smooth_and_reinstate(
    state: ConfigurationState,
    constituent_ids: Sequence[str],
    reinstate_ids: Iterable[str],
    new_id: str,
) -> ConfigurationState:
    """Smooth a connected configuration into one surface in the sum class.

    Each reinstated constituent is re-created as a disjoint parallel copy,
    which requires it to meet the rest of the configuration at least as often
    as minus its square.  The running class is unchanged.
    """
    constituents = list(constituent_ids)
    if not constituents:
        raise MalformedInputError("smoothing needs at least one constituent")
    if len(set(constituents)) != len(constituents):
        raise MalformedInputError("constituent ids must be distinct")
    reinstates = set(reinstate_ids)
    if not reinstates <= set(constituents):
        raise MalformedInputError("reinstated ids must be constituents")
    if any(o.id == new_id for o in state.objects):
        raise MalformedInputError(f"id {new_id!r} is already in use")
    objs = [_require_alive(state, cid) for cid in constituents]
    for o in objs:
        if state._scaled(o.vector) <= 0:
            raise PreconditionError(f"constituent {o.id!r} has non-positive area")
    lat = state.lattice
    vectors = [o.vector for o in objs]

    n = len(objs)
    # the classes are integral, so their scaled pairings are their pairings
    pairings = [lat.scaled_pairings(v, vectors) for v in vectors]

    # connectivity of the dual graph under geometric intersections
    if len(pairing_components(pairings)) != 1:
        raise ConnectivityError("constituents do not form a connected configuration")

    total = sum(vectors[1:], vectors[0])
    for i, o in enumerate(objs):
        if o.id in reinstates:
            # the diagonal is the square and a row sums to the pairing with
            # the smoothing, which is count - need: this check also keeps
            # the copy from pairing negatively with the smoothing
            need = -pairings[i][i]
            count = sum(pairings[i]) + need
            if count < need:
                raise PreconditionError(
                    f"cannot reinstate {o.id!r}: meets the rest "
                    f"{format_rational(count, 'meet count')} times, "
                    f"needs {format_rational(need, 'meet count')}"
                )

    double_points = sum(pairings[i][j] for i in range(n) for j in range(i + 1, n))
    genus = sum(o.genus for o in objs) + double_points - (n - 1)
    new_object = SurfaceObject(id=new_id, vector=total, genus=genus, alive=True)

    consumed = set(constituents) - reinstates
    kept = tuple(replace(o, alive=False) if o.id in consumed else o for o in state.objects)
    # the only pairings the smoothing can make negative are the new object's
    partner = _negative_partner(lat, new_object, [o for o in kept if o.alive])
    if partner is not None:
        raise PositivityError(f"alive objects {partner.id!r} and {new_id!r} pair negatively")
    return state._proven(state.lattice, state.current_class, kept + (new_object,), state._product)


def _require_strings(values, field: str) -> tuple[str, ...]:
    """A field's ids or notes as a tuple of strings; a lone string is not
    such a collection.  Each move and certificate checks its fields, so a
    replay meets no ill-typed one: ids are strings and t is coerced as
    inflate coerces it."""
    if isinstance(values, Iterable) and not isinstance(values, str):
        values = tuple(values)
        if all(isinstance(v, str) for v in values):
            return values
    raise MalformedInputError(f"{field}: expected a collection of strings")


@dataclass(frozen=True)
class _Inflation:
    object_id: str
    t: Fraction

    def __post_init__(self):
        if not isinstance(self.object_id, str):
            raise MalformedInputError("object_id: expected a string")
        object.__setattr__(self, "t", linalg.as_fraction(self.t))


class Inflate(_Inflation):
    op = "inflate"  # along a negative-square object, which it consumes


class InflateNonneg(_Inflation):
    op = "inflate_nonneg"  # along a nonnegative-square object, which survives


@dataclass(frozen=True)
class SmoothAndReinstate:
    constituent_ids: tuple[str, ...]
    reinstate_ids: tuple[str, ...]
    new_id: str

    def __post_init__(self):
        for field in ("constituent_ids", "reinstate_ids"):
            object.__setattr__(self, field, _require_strings(getattr(self, field), field))
        if not isinstance(self.new_id, str):
            raise MalformedInputError("new_id: expected a string")


Move = Union[Inflate, InflateNonneg, SmoothAndReinstate]


def apply_move(state: ConfigurationState, move: Move) -> ConfigurationState:
    if isinstance(move, Inflate):
        return inflate(state, move.object_id, move.t)
    if isinstance(move, InflateNonneg):
        return inflate_nonneg(state, move.object_id, move.t)
    if isinstance(move, SmoothAndReinstate):
        return smooth_and_reinstate(
            state, move.constituent_ids, move.reinstate_ids, move.new_id
        )
    raise MalformedInputError(f"unknown move of type {type(move).__name__}")


def describe_move(move: Move) -> str:
    if isinstance(move, (Inflate, InflateNonneg)):
        return f"{move.op}({move.object_id}, t={format_rational(move.t, 't')})"
    if not isinstance(move, SmoothAndReinstate):
        raise MalformedInputError(f"unknown move of type {type(move).__name__}")
    return (
        f"smooth({', '.join(move.constituent_ids)}; "
        f"reinstate {', '.join(move.reinstate_ids) or '-'}) -> {move.new_id}"
    )


@dataclass(frozen=True)
class Certificate:
    """Replayable proof that the target class admits symplectic forms.
    Ill-typed fields raise MalformedInputError; moves check their own."""

    model: CurveModel
    base_class: ClassVector
    moves: tuple[Move, ...]
    target_class: ClassVector
    initial_object_ids: tuple[str, ...] | None = None
    annotations: tuple[str, ...] = ()

    def __post_init__(self):
        if not isinstance(self.model, CurveModel):
            raise MalformedInputError("model: expected a CurveModel")
        for field in ("base_class", "target_class"):
            if not isinstance(getattr(self, field), ClassVector):
                raise MalformedInputError(f"{field}: expected a ClassVector")
        if not isinstance(self.moves, Iterable) or isinstance(self.moves, str):
            raise MalformedInputError("moves: expected a collection of moves")
        object.__setattr__(self, "moves", tuple(self.moves))
        if self.initial_object_ids is not None:
            ids = _require_strings(self.initial_object_ids, "initial_object_ids")
            object.__setattr__(self, "initial_object_ids", ids)
        object.__setattr__(self, "annotations", _require_strings(self.annotations, "annotations"))


class MoveRecord(NamedTuple):
    """One replayed move: the state it met, its bound 2A/h (for an inflation
    along an alive object of negative square, else None) and the state it
    left (None when the move failed)."""

    number: int
    move: Move
    before: ConfigurationState
    bound: Fraction | None
    after: ConfigurationState | None


@dataclass(frozen=True, init=False)
class VerificationReport:
    """A replay's verdict, first failure, final class and move records.

    The lines given as entries may include callables, which the verifier
    leaves for the lines it defers; each is called once, on the first read
    of entries, under the digit limit then in force."""

    passed: bool
    first_failure: str | None
    final_class: ClassVector | None
    records: tuple[MoveRecord, ...]

    def __init__(self, passed, entries, first_failure, final_class, records=()):
        self.__dict__.update(
            passed=passed, first_failure=first_failure, final_class=final_class,
            records=tuple(records), _lines=tuple(entries),
        )

    @cached_property
    def entries(self) -> tuple[str, ...]:
        return tuple(line if isinstance(line, str) else line() for line in self._lines)

    def __str__(self) -> str:
        lines = list(self.entries)
        lines.append("verdict: PASS" if self.passed else f"verdict: FAIL ({self.first_failure})")
        return "\n".join(lines)


def initial_state(cert: Certificate, product: list[int] | None = None) -> ConfigurationState:
    return ConfigurationState.seeded(cert.model, cert.base_class, cert.initial_object_ids, product)


def _area_line(state: ConfigurationState) -> str:
    d = state.current_class.integer_form[0]
    parts = [
        f"{o.id}={format_ratio(state._scaled(o.vector), d, 'area')}"
        for o in state.alive_objects()
    ]
    return "areas: " + (", ".join(parts) if parts else "(none)")


def _class_line(record: MoveRecord) -> str:
    return f"class after move {record.number}: {record.after.current_class.texts()}"


def _number_bits(state: ConfigurationState) -> tuple[int, int, int]:
    """Bit lengths of the state's class denominator d, of its largest
    absolute numerator and of its largest absolute Gram product entry."""
    d, terms = state.current_class.integer_form
    product = state._product
    return (
        d.bit_length(),
        max(map(abs, map(itemgetter(1), terms)), default=0).bit_length(),
        max(max(product), -min(product)).bit_length(),
    )


def _inflated_bits(bits: tuple[int, int, int], t: Fraction, vector_bits: int) -> tuple:
    """Upper bounds on _number_bits after adding t = p/q times a class v to
    a class whose bounds are bits, where every coefficient of v and entry of
    G v is under 2^vector_bits in absolute value.  The new denominator
    divides dq, so a new numerator is at most q |x| + p d |v_i| and a new
    product entry at most q |P_i| + p d |(G v)_i|."""
    d, numerator, product = bits
    p, q = abs(t.numerator).bit_length(), t.denominator.bit_length()
    carried = p + d + vector_bits
    return d + q, max(numerator + q, carried) + 1, max(product + q, carried) + 1


def verify_certificate(cert: Certificate) -> VerificationReport:
    """Replay a certificate move by move with exact arithmetic.

    Total: malformed or failing certificates produce a failed report with the
    first broken check named, never an exception.
    """
    lines: list = []
    records: list[MoveRecord] = []

    def fail(reason: str) -> VerificationReport:
        return VerificationReport(
            passed=False, entries=lines, first_failure=reason, final_class=None, records=records
        )

    def later(*renders) -> None:
        # a line whose numbers may outgrow the digit limit is written now,
        # so that a number past the limit fails the replay at its line.  A
        # number under 2^b has at most b // 3 + 1 digits (log10 2 < 1/3);
        # an area's numerator is under 2^(product bits + object_bits).
        limit = sys.get_int_max_str_digits()
        fits = not limit or max(bits[0], bits[1], bits[2] + object_bits) // 3 < limit
        for render in renders:
            lines.append(render if fits else render())

    model = cert.model
    if not model.completeness_assumed:
        return fail("model does not assume completeness; base cannot be asserted Kähler")
    if model.lattice.reference_class is None:
        return fail("model has no reference class; positive cone is undefined")
    try:
        # every base check reads the Gram product the initial state keeps
        base = ConfigurationState._proven(model.lattice, cert.base_class, ())
        if not base._in_positive_cone():
            return fail("base class is not in the positive cone")
        d = cert.base_class.integer_form[0]
        for c in model.curves:
            scaled = base._scaled(c.vector)
            if scaled <= 0:
                value = format_ratio(scaled, d, "pairing")
                return fail(f"base class is not interior-Kähler: pairs {value} with {c.label!r}")
        square = format_ratio(base._scaled(cert.base_class), d * d, "base square")
        lines.append(f"base class Kähler by model predicate; square {square}")
        state = initial_state(cert, base._product)
        # bounds on the bit lengths of the state's numbers (_number_bits)
        # and of every object's coefficient sum, kept up move by move
        bits, object_bits = _number_bits(state), model.coefficient_bits
        entry_bits = model.lattice.entry_bits
        later(partial(_area_line, state))
        for number, move in enumerate(cert.moves, start=1):
            if isinstance(move, SmoothAndReinstate) and len(move.reinstate_ids) > 1:
                lines.append(
                    f"move {number} reinstates {len(move.reinstate_ids)} constituents (iterated-disjoin)"
                )
            bound = None
            try:
                if isinstance(move, Inflate):
                    obj = state.object(move.object_id)
                    bound = _inflation_bound(state, obj)[2] if obj.alive else None
                entry = f"move {number}: {describe_move(move)}"
                if bound is not None:
                    entry += f"; bound 2A/h = {format_rational(bound, 'bound 2A/h')}"
                lines.append(entry)
                after = apply_move(state, move)
            except SymconeError as exc:
                records.append(MoveRecord(number, move, state, bound, None))
                headline = exc.args[0] if exc.args else str(exc)
                return fail(f"{headline} at move {number}")
            record = MoveRecord(number, move, state, bound, after)
            records.append(record)
            state = after
            if isinstance(move, SmoothAndReinstate):
                # the new object's class sums those of its constituents
                object_bits += len(move.constituent_ids).bit_length()
            else:  # |(G v)_i| <= max |G_ij| times v's coefficient sum
                bits = _inflated_bits(bits, move.t, object_bits + entry_bits)
            later(partial(_class_line, record), partial(_area_line, state))
            if not state._in_positive_cone():
                return fail(f"class left the positive cone at move {number}")
        if state.current_class != cert.target_class:
            return fail("final class does not equal the target class")
    except SymconeError as exc:
        return fail(str(exc))
    lines.append("final class equals target class")
    for note in cert.annotations:
        lines.append(f"annotation: {note}")
    return VerificationReport(
        passed=True,
        entries=lines,
        first_failure=None,
        final_class=state.current_class,
        records=records,
    )

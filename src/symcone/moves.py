"""The inflation move engine.

A ConfigurationState carries a running symplectic class together with the
surface objects currently guaranteed to be symplectic.  Moves transform
states: inflating along a negative-square surface consumes it and shifts the
class by t times its class (0 < t < 2A/h, A its area); inflating along a
nonnegative-square surface is unbounded and keeps the surface; smoothing
replaces a positively-intersecting connected configuration by one embedded
surface in the sum class, optionally re-creating ("reinstating") some
constituents as disjoint parallel copies.  A smoothing pairs its
constituents only where one's kept Gram product meets another's terms, so
its work follows the sparse adjacency of the configuration, not its square.

A state's invariant is that no two alive objects pair negatively.  A state
built directly is outside input and gets the full pairwise check.  A state
seeded from a model's declared curves checks only that its ids are distinct:
the model has already proved the invariant for its curves.  The invariant is
inductive under moves: inflations only kill objects, and a smoothing adds
the sum of alive constituents, which pairs nonnegatively with every other
alive object as each constituent does, and with a reinstated one by the
reinstatement check.  So a move builds its successor with no check.  Moves
keep every object in its slot, so a state hands its id-to-slot map on to its
successor, and no lookup by id scans the objects.

A state pairs through the integer Gram product P = G @ (d c) its class c
of denominator d keeps (see lattice): its areas and positive-cone test read
it, and the verifier's base checks read the base's square off it and every
other pairing off the model's row of the base.  A smoothing keeps the class
and so P; an inflation by t = p/q along v writes the new class c + t v in
one integer pass, which carries P and the object's G v onto it
(ClassVector._combine); for an integer t the pass touches only v's terms,
normalises nothing, and updates P only where G v is nonzero.  A model's
curve objects are built once and seed every replay over it.

A Certificate packages a base class, a move list, and a target class; the
verifier replays it with exact arithmetic and keeps one record per move: the
state before it, its bound 2A/h and the state after it.  A Replay runs it:
start (the base checks), one step per move, report (the final-class check);
the planner's peel steps the same immutable nodes as it searches, so a
peeled certificate is replayed once.  The base is in the positive cone and
no move leaves it by its square: a smoothing keeps the class, an inflation
by 0 < t < 2A/h <= 2A/k along v (v^2 = -k, A > 0) adds t(2A - tk) > 0 to
it and one along v^2 >= 0 adds 2tA + t^2 v^2 > 0.  So a step tests only an
inflation's reference pairing.  A certificate keeps the report of its
one replay, keyed by the digit limit it was made under, and verify_certificate
returns it under that limit; a copy made by replace or by the codec keeps
none and is replayed in full.  The base-square line is written during the
replay; the move, "class after" and "areas:" lines are rendered on the first
read of the report's entries.  Bounds on the bit lengths of a state's numbers
are measured on the initial state and carried through each move by its t;
where they, or those of t and the bound, cannot prove that a line's numbers
fit the interpreter's digit limit, it is rendered at once, so that a number
past the limit fails the replay where it stands.
Report numbers are written from integer numerators and denominators.
Failures are report entries, never exceptions.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cached_property, partial
from math import gcd
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
from .lattice import ClassVector, CurveModel, Frozen, IntersectionLattice, _dot, pairing_components
from .linalg import format_ratio, format_rational, output_too_long


def h_param(k: int, g: int) -> int:
    """Inflation denominator: k, except k+1 for spheres of odd square."""
    if not isinstance(k, int) or k <= 0:
        raise PreconditionError("k must be a positive integer")
    if not isinstance(g, int) or g < 0:
        raise MalformedInputError("genus must be a nonnegative integer")
    if g == 0 and k % 2 == 1:
        return k + 1
    return k


class SurfaceObject(Frozen):
    id: str
    vector: ClassVector
    genus: int
    alive: bool = True

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise MalformedInputError(f"object id {self.id!r} must be a string", part="id")
        if not self.vector.is_integral:
            raise MalformedInputError(f"object {self.id!r} must have an integral class")
        if isinstance(self.genus, bool) or not isinstance(self.genus, int) or self.genus < 0:
            raise MalformedInputError(f"object {self.id!r} needs a nonnegative integer genus", part="genus")


def _killed(objects: tuple[SurfaceObject, ...], slots: Iterable[int]) -> tuple[SurfaceObject, ...]:
    """objects with each one at slots replaced by a dead copy."""
    objects = list(objects)
    for i in slots:
        o = objects[i]
        # unchecked: the fields of an object of a state, with alive a bool
        objects[i] = SurfaceObject._unchecked(o.id, o.vector, o.genus, False)
    return tuple(objects)


class ConfigurationState(Frozen):
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
        if len(self._slots) != len(self.objects):
            raise MalformedInputError("object ids must be distinct")
        # areas are read off the class's Gram product by index
        if any(o.vector.rank != self.lattice.rank for o in self.objects):
            raise MalformedInputError("class vector rank does not match lattice")
        alive = [o for o in self.objects if o.alive]
        for i, a in enumerate(alive):
            product = self.lattice.gram_product(a.vector)
            b = next((o for o in alive[i + 1 :] if _dot(product, o.vector) < 0), None)
            if b is not None:
                raise PositivityError(f"alive objects {a.id!r} and {b.id!r} pair negatively")

    @classmethod
    def _proven(
        cls, lattice: IntersectionLattice, current_class: ClassVector, objects: tuple, slots: dict[str, int]
    ) -> "ConfigurationState":
        """A state built without the full check, for a caller that has
        already proved the invariant and hands over the objects' slots by
        id; it reads its class's Gram product now, and keeps it and the
        slots beside its fields, which Frozen._unchecked does not."""
        state = object.__new__(cls)
        product = lattice.gram_product(current_class)
        state.__dict__.update(
            lattice=lattice, current_class=current_class, objects=objects, _product=product, _slots=slots
        )
        return state

    @classmethod
    def seeded(
        cls, model: CurveModel, current_class: ClassVector, labels: Iterable[str] | None = None
    ) -> "ConfigurationState":
        """A state whose alive objects are declared curves of the model: all
        of them, or those named by labels, in that order.

        Of the state checks only the distinct ids run, and only for labels:
        CurveModel has proved that its labels are distinct and that no two
        declared curves pair negatively."""
        if labels is None:  # built once per model: the objects and slots are never changed
            seeds = vars(model).get("_seeds")
            if seeds is None:
                objects = tuple(SurfaceObject(c.label, c.vector, c.genus) for c in model.curves)
                seeds = vars(model)["_seeds"] = objects, _slots_of(objects)
            objects, slots = seeds
        else:
            objects = tuple(SurfaceObject(c.label, c.vector, c.genus) for c in map(model.curve, labels))
            slots = _slots_of(objects)
            if len(slots) != len(objects):
                raise MalformedInputError("object ids must be distinct")
        return cls._proven(model.lattice, current_class, objects, slots)

    @cached_property
    def _slots(self) -> dict[str, int]:
        """Each object's slot by id.  A move keeps every object in its slot,
        so a successor is handed its state's slots, with a smoothing's new
        object added."""
        return _slots_of(self.objects)

    def _slot(self, object_id: str) -> int:
        slot = self._slots.get(object_id)
        if slot is None:
            raise MalformedInputError(f"no object with id {object_id!r}")
        return slot

    def object(self, object_id: str) -> SurfaceObject:
        return self.objects[self._slot(object_id)]

    @cached_property
    def _product(self) -> tuple[int, ...]:
        """G @ (d c), c the current class and d its denominator, as c keeps it."""
        return self.lattice.gram_product(self.current_class)

    def _scaled(self, vector: ClassVector) -> int:
        """d d_v pair(c, vector), d_v the vector's denominator (1 for objects)."""
        return _dot(self._product, vector)

    def area(self, object_id: str) -> Fraction:
        scaled = self._scaled(self.object(object_id).vector)
        return Fraction(scaled, self.current_class.integer_form[0])


def _slots_of(objects: Sequence[SurfaceObject]) -> dict[str, int]:
    """The slot of each object by id; a repeated id keeps its last."""
    return {o.id: i for i, o in enumerate(objects)}


def _require_alive(state: ConfigurationState, object_id: str) -> tuple[int, SurfaceObject]:
    """The slot and object of an alive object of the state."""
    slot = state._slot(object_id)
    obj = state.objects[slot]
    if not obj.alive:
        raise LivenessError(f"object {object_id!r} is not alive")
    return slot, obj


def _inflation_bound(state: ConfigurationState, obj: SurfaceObject) -> tuple:
    """The object's square, d times its area A and, for a negative square,
    the bound 2A/h; its class keeps G v for the inflation."""
    gram_v = state.lattice.gram_product(obj.vector)
    square = _dot(gram_v, obj.vector)
    scaled = state._scaled(obj.vector)
    bound = None
    if square < 0:
        h = h_param(-square, obj.genus)
        bound = Fraction(2 * scaled, state.current_class.integer_form[0] * h)
    return square, scaled, bound


def _inflated(state: ConfigurationState, t: Fraction, obj: SurfaceObject, objects: tuple) -> ConfigurationState:
    """The successor of class c' = c + t v, v the object's integral class,
    written in one integer pass (ClassVector._combine): for c = X / d
    and t = p/q, c' is (q X + d p v) / (dq), normalised once (for q = 1
    not at all), and keeps the Gram product carried from the state's P and
    v's G v."""
    current = state.current_class._combine(obj.vector, t.numerator, t.denominator)
    return state._proven(state.lattice, current, objects, state._slots)


def inflate(state: ConfigurationState, object_id: str, t, measured: tuple | None = None) -> ConfigurationState:
    """Add t times the object's class for 0 < t < 2A/h; consumes the object.
    measured is the object's _inflation_bound on this state, if the caller
    has it."""
    slot, obj = _require_alive(state, object_id)
    t = linalg.as_fraction(t)
    square, scaled, bound = measured or _inflation_bound(state, obj)
    if bound is None:
        raise WrongMoveError(
            f"object {object_id!r} has square {format_rational(square, 'square')} >= 0; "
            "use inflate_nonneg"
        )
    if scaled <= 0:
        area = format_ratio(scaled, state.current_class.integer_form[0], "area")
        raise PreconditionError(f"object {object_id!r} has area {area} <= 0")
    # 0 < t < bound, cross-multiplied: both denominators are positive
    if not 0 < t.numerator * bound.denominator < bound.numerator * t.denominator:
        raise BoundViolationError(
            "bound 2A/h violated",
            {"object": object_id, "t": t, "bound": bound},
        )
    return _inflated(state, t, obj, _killed(state.objects, (slot,)))


def inflate_nonneg(state: ConfigurationState, object_id: str, t) -> ConfigurationState:
    """Add t > 0 times a nonnegative-square object's class; the object survives."""
    _, obj = _require_alive(state, object_id)
    t = linalg.as_fraction(t)
    square, scaled, _ = _inflation_bound(state, obj)
    if square < 0:
        raise WrongMoveError(f"object {object_id!r} has negative square; use inflate")
    if scaled <= 0:
        raise PreconditionError(f"object {object_id!r} has non-positive area")
    if t <= 0:
        raise PreconditionError("t must be positive")
    return _inflated(state, t, obj, state.objects)


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
    if not isinstance(new_id, str):
        raise MalformedInputError("new_id: expected a string")
    constituents = list(constituent_ids)
    if not constituents:
        raise MalformedInputError("smoothing needs at least one constituent")
    if len(set(constituents)) != len(constituents):
        raise MalformedInputError("constituent ids must be distinct")
    reinstates = set(reinstate_ids)
    if not reinstates <= set(constituents):
        raise MalformedInputError("reinstated ids must be constituents")
    if new_id in state._slots:
        raise MalformedInputError(f"id {new_id!r} is already in use")
    slots, objs = zip(*(_require_alive(state, cid) for cid in constituents))
    for o in objs:
        if state._scaled(o.vector) <= 0:
            raise PreconditionError(f"constituent {o.id!r} has non-positive area")
    lat = state.lattice
    n = len(objs)
    rows = _meets(lat, [o.vector for o in objs])

    # connectivity of the dual graph under geometric intersections
    if len(pairing_components(rows)) != 1:
        raise ConnectivityError("constituents do not form a connected configuration")

    # the classes are integral, so the sum is one pass over their terms
    total: dict[int, int] = {}
    for o in objs:
        for i, x in o.vector.integer_form[1]:
            total[i] = total.get(i, 0) + x
    sums = [sum(row.values()) for row in rows]
    for i, o in enumerate(objs):
        if o.id in reinstates:
            # the diagonal is the square and a row sums to the pairing with
            # the smoothing, which is count - need: this check also keeps
            # the copy from pairing negatively with the smoothing, the one
            # pairing the state invariant leaves open
            need = -rows[i].get(i, 0)
            count = sums[i] + need
            if count < need:
                raise PreconditionError(
                    f"cannot reinstate {o.id!r}: meets the rest "
                    f"{format_rational(count, 'meet count')} times, "
                    f"needs {format_rational(need, 'meet count')}"
                )

    # each double point is counted in two rows, each square in one
    double_points = (sum(sums) - sum(row.get(i, 0) for i, row in enumerate(rows))) // 2
    genus = sum(o.genus for o in objs) + double_points - (n - 1)
    vector = ClassVector.from_integer_form(lat.rank, 1, sorted(total.items()))
    # unchecked: new_id is a str, the class an integral sum and the genus
    # >= 0, as n connected alive objects have >= n - 1 meets
    new_object = SurfaceObject._unchecked(new_id, vector, genus, True)

    kept = _killed(state.objects, (s for s, o in zip(slots, objs) if o.id not in reinstates))
    return state._proven(lat, state.current_class, kept + (new_object,), {**state._slots, new_id: len(kept)})


def _meets(lat: IntersectionLattice, vectors: Sequence[ClassVector]) -> list[dict[int, int]]:
    """For integral classes, the pairings of each with the others (itself
    included) where they can be nonzero, by position: vector a's kept Gram
    product is read only on the coordinates the lattice's sparse rows join
    to a's terms, against the classes with a term there."""
    at: dict[int, list[tuple[int, int]]] = {}
    for b, v in enumerate(vectors):
        for i, y in v.integer_form[1]:
            at.setdefault(i, []).append((b, y))
    rows = []
    for v in vectors:
        product = lat.gram_product(v)
        row: dict[int, int] = {}
        for i in {i for j, _ in v.integer_form[1] for i, _ in lat._rows[j]}:
            for b, y in at.get(i, ()):
                row[b] = row.get(b, 0) + y * product[i]
        rows.append(row)
    return rows


def _require_strings(values, field: str) -> tuple[str, ...]:
    """A field's ids or notes as a tuple of strings; a lone string is not
    such a collection.  A move or certificate built by its constructor
    checks its fields, and the planner and the codec build theirs unchecked
    (Frozen._unchecked) only from fields they have proven, so a replay meets
    no ill-typed one: ids are strings and t is a Fraction."""
    if isinstance(values, Iterable) and not isinstance(values, str):
        values = tuple(values)
        if all(isinstance(v, str) for v in values):
            return values
    raise MalformedInputError(f"{field}: expected a collection of strings")


class _Inflation(Frozen):
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


class SmoothAndReinstate(Frozen):
    constituent_ids: tuple[str, ...]
    reinstate_ids: tuple[str, ...]
    new_id: str

    def __post_init__(self):
        for field in ("constituent_ids", "reinstate_ids"):
            object.__setattr__(self, field, _require_strings(getattr(self, field), field))
        if not isinstance(self.new_id, str):
            raise MalformedInputError("new_id: expected a string")


Move = Union[Inflate, InflateNonneg, SmoothAndReinstate]


def apply_move(state: ConfigurationState, move: Move, measured: tuple | None = None) -> ConfigurationState:
    """The state after the move; measured is passed to inflate."""
    if isinstance(move, Inflate):
        return inflate(state, move.object_id, move.t, measured)
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


class Certificate(Frozen):
    """Replayable proof that the target class admits symplectic forms.
    Ill-typed fields raise MalformedInputError; moves check their own.  The
    planner and the codec build theirs unchecked (see _require_strings).

    A certificate keeps the report of its one replay, with the digit limit
    it was made under; a copy by replace or the codec has none."""

    _report = None  # (digit limit, VerificationReport), not a field

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


class VerificationReport(Frozen):
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


def initial_state(cert: Certificate) -> ConfigurationState:
    return ConfigurationState.seeded(cert.model, cert.base_class, cert.initial_object_ids)


def _area_line(state: ConfigurationState) -> str:
    """Each alive object's area, read in one pass off the product the
    state's class keeps: d A = sum P_i x over the object's terms (i, x)."""
    d, product = state.current_class.integer_form[0], state._product
    parts = []
    try:
        for o in state.objects:
            if o.alive:
                area = 0
                for i, x in o.vector.integer_form[1]:
                    area += x * product[i]
                g = gcd(area, d)
                parts.append(f"{o.id}={area // g}" if g == d else f"{o.id}={area // g}/{d // g}")
    except ValueError:
        raise output_too_long("area") from None
    return "areas: " + (", ".join(parts) if parts else "(none)")


def _class_line(record: MoveRecord) -> str:
    """The line with the repr of the class's texts, written from them: a
    text holds only digits, "-" and "/", and a replayed class has rank >= 1
    (it pairs positively with the reference class)."""
    texts = record.after.current_class.texts()
    tail = "',)" if len(texts) == 1 else "')"
    return f"class after move {record.number}: ('" + "', '".join(texts) + tail


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


def _fits(bits: int) -> bool:
    """Whether a number under 2^bits fits the digit limit: it has at most
    bits // 3 + 1 digits (log10 2 < 1/3)."""
    limit = sys.get_int_max_str_digits()
    return not limit or bits // 3 < limit


def _defer(lines: list, bits: tuple[int, int, int], object_bits: int, *renders) -> None:
    """Append each render as a deferred line, or its line now where the bit
    bounds cannot prove that its numbers fit the digit limit, so that a
    number past the limit fails the replay at its line.  An area's
    numerator is under 2^(product bits + object_bits)."""
    fits = _fits(max(bits[0], bits[1], bits[2] + object_bits))
    for render in renders:
        lines.append(render if fits else render())


def _move_line(number: int, move: Move, bound: Fraction | None) -> str:
    entry = f"move {number}: {describe_move(move)}"
    return entry if bound is None else f"{entry}; bound 2A/h = {format_rational(bound, 'bound 2A/h')}"


def _move_fits(move: Move, bound: Fraction | None) -> bool:
    """Whether t and the bound, the numbers of the move's line, fit the
    digit limit (each is under their sum); a smoothing's line has none, an
    unknown move's raises."""
    if not isinstance(move, (Inflate, InflateNonneg)):
        return isinstance(move, SmoothAndReinstate)
    t, b = move.t, bound or 0
    return _fits((abs(t.numerator) + t.denominator + abs(b.numerator) + b.denominator).bit_length())


class Replay(NamedTuple):
    """A replay in progress, one node per move: its lines, record, state and
    failure (a failed node is not stepped), and the bounds on the bit lengths
    of the state's numbers (_number_bits) and of every object's coefficient
    sum.  A search backtracks by dropping the nodes it made."""

    parent: "Replay | None"
    lines: tuple
    record: MoveRecord | None
    state: ConfigurationState | None
    failure: str | None = None
    bits: tuple[int, int, int] = (0, 0, 0)
    object_bits: int = 0

    @classmethod
    def start(cls, cert: Certificate) -> "Replay":
        """The base checks of the certificate and its initial state; its
        moves and target are not read."""
        lines: list = []

        def failed(reason: str) -> Replay:
            return cls(None, tuple(lines), None, None, reason)

        model, base, lat = cert.model, cert.base_class, cert.model.lattice
        if not model.completeness_assumed:
            return failed("model does not assume completeness; base cannot be asserted Kähler")
        if lat.reference_class is None:
            return failed("model has no reference class; positive cone is undefined")
        try:
            # the square reads the Gram product the base class keeps, and
            # every other check the model's row of it
            (square,) = lat.scaled_pairings(base, (base,))
            reference, *pairings = model._row(base)
            if square <= 0 or reference <= 0:
                return failed("base class is not in the positive cone")
            d = base.integer_form[0]
            for c, scaled in zip(model.curves, pairings):
                if scaled <= 0:
                    value = format_ratio(scaled, d, "pairing")
                    return failed(f"base class is not interior-Kähler: pairs {value} with {c.label!r}")
            square = format_ratio(square, d * d, "base square")
            lines.append(f"base class Kähler by model predicate; square {square}")
            state = initial_state(cert)
            bits = _number_bits(state)
            _defer(lines, bits, model.coefficient_bits, partial(_area_line, state))
        except SymconeError as exc:
            return failed(str(exc))
        return cls(None, tuple(lines), None, state, None, bits, model.coefficient_bits)

    def step(self, move: Move) -> "Replay":
        """The node after one more move: its bound line, apply_move, its
        record, the carried bit bounds and the positive-cone check."""
        number = self.record.number + 1 if self.record else 1
        state, bits, object_bits = self.state, self.bits, self.object_bits
        lines: list = []
        if isinstance(move, SmoothAndReinstate) and len(move.reinstate_ids) > 1:
            lines.append(f"move {number} reinstates {len(move.reinstate_ids)} constituents (iterated-disjoin)")
        bound = measured = None
        try:
            if isinstance(move, Inflate):
                obj = state.object(move.object_id)
                if obj.alive:  # inflate reads the bound it is handed
                    measured = _inflation_bound(state, obj)
                    bound = measured[2]
            render = partial(_move_line, number, move, bound)
            lines.append(render if _move_fits(move, bound) else render())
            after = apply_move(state, move, measured)
        except SymconeError as exc:
            headline = exc.args[0] if exc.args else str(exc)
            record = MoveRecord(number, move, state, bound, None)
            return Replay(self, tuple(lines), record, None, f"{headline} at move {number}")
        record = MoveRecord(number, move, state, bound, after)
        if isinstance(move, SmoothAndReinstate):
            # the new object's class sums those of its constituents
            object_bits += len(move.constituent_ids).bit_length()
        else:  # |(G v)_i| <= max |G_ij| times v's coefficient sum
            bits = _inflated_bits(bits, move.t, object_bits + state.lattice.entry_bits)
        try:
            _defer(lines, bits, object_bits, partial(_class_line, record), partial(_area_line, after))
        except SymconeError as exc:
            return Replay(self, tuple(lines), record, None, str(exc))
        # a smoothing keeps the class and an inflation raises its square (see
        # the module docstring): only an inflation's reference pairing can fail
        failure = None
        if not isinstance(move, SmoothAndReinstate) and _dot(after._product, after.lattice.reference_class) <= 0:
            failure = f"class left the positive cone at move {number}"
        return Replay(self, tuple(lines), record, after, failure, bits, object_bits)

    def _chain(self) -> list["Replay"]:
        """The nodes from the start to this one."""
        chain, node = [], self
        while node is not None:
            chain.append(node)
            node = node.parent
        return chain[::-1]

    def records(self) -> tuple[MoveRecord, ...]:
        return tuple(node.record for node in self._chain()[1:])

    def report(self, cert: Certificate) -> VerificationReport:
        """The report of the replay so far, with the check of the final
        class against the certificate's target, which keeps it: the replay
        must be of the certificate's base and moves."""
        chain = self._chain()
        lines = [line for node in chain for line in node.lines]
        records = tuple(node.record for node in chain[1:])
        failure = self.failure
        if failure is None and self.state.current_class != cert.target_class:
            failure = "final class does not equal the target class"
        if failure is not None:
            report = VerificationReport(False, lines, failure, None, records)
        else:
            lines += ("final class equals target class", *(f"annotation: {note}" for note in cert.annotations))
            report = VerificationReport(True, lines, None, self.state.current_class, records)
        object.__setattr__(cert, "_report", (sys.get_int_max_str_digits(), report))
        return report


def verify_certificate(cert: Certificate) -> VerificationReport:
    """Replay a certificate move by move with exact arithmetic: the base
    checks, one Replay step per move, the final-class check.

    A certificate keeps the report of its one replay, keyed by the digit
    limit: under the same limit it is returned again, under another the
    certificate is replayed.  A copy made by replace or by the codec keeps
    none and is replayed in full.

    Total: malformed or failing certificates produce a failed report with the
    first broken check named, never an exception.
    """
    if not isinstance(cert, Certificate):
        return VerificationReport(False, (), f"expected a Certificate, not {type(cert).__name__}", None)
    if cert._report is not None and cert._report[0] == sys.get_int_max_str_digits():
        return cert._report[1]
    replay = Replay.start(cert)
    for move in cert.moves:
        if replay.failure is not None:
            break
        replay = replay.step(move)
    return replay.report(cert)

"""Certificate synthesis for corner and chamber targets.

The planner picks a base class pairing uniformly (some r > 0) against the
vanishing locus, then peels the deficit u = -M^{-1}(r 1 - v) into configuration
smoothings and inflations, once, at the first listed r whose base is
Kähler.  Inside the peel every candidate move runs on the actual engine, so a
bound or reinstatement failure simply backtracks.  plan replays the one
certificate once.  Targets the planner cannot or will not handle come back as
an Unsupported value carrying exact witness data, never as an exception.
plan is the one certificate builder: a reflection across a curve wall is
plan's single inflation to the reflected class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .chambers import Membership, classify, reflect
from .errors import (
    PreconditionError,
    PropertyViolationError,
    SearchFailureError,
    SymconeError,
)
from .lattice import (
    ClassVector,
    CurveModel,
    is_negative_definite,
    neg_inverse,
    pairing_components,
)
from .linalg import format_rational
from .moves import (
    Certificate,
    ConfigurationState,
    Inflate,
    Move,
    SmoothAndReinstate,
    apply_move,
    h_param,
    verify_certificate,
)

# base pairing scales, largest first; the planner takes the first one small
# enough to keep the base Kähler
_R_SWEEP = tuple(Fraction(2) ** p for p in range(8, -17, -1))

_PEEL_BUDGET = 4096


@dataclass(frozen=True)
class DualGraph:
    """Intersection pattern of a curve subset; vertices are curve indices and
    pairings is their integer Gram."""

    indices: tuple[int, ...]
    pairings: tuple[tuple[int, ...], ...]

    def degree(self, position: int) -> int:
        row = self.pairings[position]
        return sum(1 for j, v in enumerate(row) if j != position and v > 0)

    def edge_multiplicities(self) -> tuple[int, ...]:
        n = len(self.indices)
        return tuple(
            self.pairings[i][j]
            for i in range(n)
            for j in range(i + 1, n)
            if self.pairings[i][j] > 0
        )

    def components(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(
            tuple(self.indices[i] for i in part) for part in pairing_components(self.pairings)
        ))


def dual_graph(model: CurveModel, indices: Sequence[int] | None = None) -> DualGraph:
    if indices is None:
        idx = tuple(range(len(model.curves)))
    else:
        idx = tuple(sorted(set(int(i) for i in indices)))
    return DualGraph(indices=idx, pairings=model.curve_gram(idx))


@dataclass(frozen=True)
class DynkinType:
    series: str  # "A", "D", "E", or "none"
    rank: int

    @property
    def is_ade(self) -> bool:
        return self.series in ("A", "D", "E")

    @property
    def label(self) -> str:
        return f"{self.series}{self.rank}" if self.is_ade else "not-ADE"


def dynkin_classify(graph: DualGraph) -> DynkinType:
    """Total ADE recognition of a dual graph.

    Anything disconnected, multiply-laced, cyclic, or over-branched comes back
    as the "none" series with the vertex count as rank."""
    n = len(graph.indices)
    if n == 0:
        raise PreconditionError("empty graph")
    none = DynkinType(series="none", rank=n)
    if any(m != 1 for m in graph.edge_multiplicities()):
        return none
    if len(graph.components()) != 1:
        return none
    edges = len(graph.edge_multiplicities())
    if edges != n - 1:
        return none  # connected with an extra edge means a cycle
    degrees = [graph.degree(i) for i in range(n)]
    if any(d >= 4 for d in degrees):
        return none
    branches = [i for i, d in enumerate(degrees) if d == 3]
    if len(branches) > 1:
        return none
    if not branches:
        return DynkinType(series="A", rank=n)
    b = branches[0]
    legs = []
    for start in (j for j in range(n) if j != b and graph.pairings[b][j] > 0):
        length = 1
        prev, here = b, start
        while True:
            nxt = [
                j
                for j in range(n)
                if j not in (prev, here) and graph.pairings[here][j] > 0
            ]
            if not nxt:
                break
            prev, here = here, nxt[0]
            length += 1
        legs.append(length)
    legs.sort()
    if legs[0] == 1 and legs[1] == 1:
        return DynkinType(series="D", rank=legs[2] + 3)
    if legs[:2] == [1, 2] and legs[2] in (2, 3, 4):
        return DynkinType(series="E", rank=legs[2] + 4)
    return none


@dataclass(frozen=True)
class Admissible:
    indices: tuple[int, ...]
    minors: tuple[Fraction, ...]


@dataclass(frozen=True)
class Witness:
    """Nonnegative curve combination of nonnegative square: an exact
    obstruction to negative definiteness."""

    indices: tuple[int, ...]
    coefficients: tuple[int, ...]
    square: Fraction


def _coefficient_tuples(n: int):
    """Every nonzero tuple in {0..4}^n, by coefficient sum and then
    lexicographically: the order of sorted(product(range(5), repeat=n),
    key=lambda c: (sum(c), c)), generated lazily."""
    top = 4

    def parts(total: int, length: int):
        if length == 1:
            yield (total,)
            return
        for first in range(max(0, total - top * (length - 1)), min(top, total) + 1):
            for rest in parts(total - first, length - 1):
                yield (first,) + rest

    for total in range(1, top * n + 1):
        yield from parts(total, n)


def component_obstruction(model: CurveModel, indices: Sequence[int]):
    """Decide definiteness of a connected curve set, constructively.

    Returns Admissible (with the leading minors) or a Witness.  Small sets are
    settled by exhaustive search over coefficients 0..4, smallest coefficient
    sum first; larger ones by a greedy square-increasing walk from the
    all-ones vector."""
    graph = dual_graph(model, indices)
    idx = graph.indices
    if not idx:
        raise PreconditionError("empty curve set")
    if len(graph.components()) != 1:
        raise PreconditionError("curve set is not connected in the dual graph")
    M = graph.pairings
    if is_negative_definite(M):
        return Admissible(indices=idx, minors=linalg.pivot_minors(M))
    n = len(idx)
    # curve classes and the Gram are integral, so the search runs in integers;
    # a square sums over the nonzero upper triangle of the Gram
    form = [(i, j, M[i][j] * (1 if i == j else 2)) for i in range(n) for j in range(i, n) if M[i][j]]

    def square_of(c: Sequence[int]) -> int:
        return sum(w * c[i] * c[j] for i, j, w in form)

    if n <= 6:
        for c in _coefficient_tuples(n):
            sq = square_of(c)
            if sq >= 0:
                return Witness(indices=idx, coefficients=c, square=Fraction(sq))
    w = [1] * n
    for _ in range(200):
        sq = square_of(w)
        if sq >= 0:
            return Witness(indices=idx, coefficients=tuple(w), square=Fraction(sq))
        mw = [sum(g * x for g, x in zip(row, w)) for row in M]
        best, best_gain = 0, None
        for i in range(n):
            gain = 2 * mw[i] + M[i][i]
            if best_gain is None or gain > best_gain:
                best, best_gain = i, gain
        w[best] += 1
    raise SearchFailureError(
        "no witness found although the set is not negative definite; "
        f"minors {linalg.leading_principal_minors(M)}"
    )


@dataclass(frozen=True)
class Unsupported:
    """Planner refusal with a reason and exact supporting data."""

    reason: str
    witness: Witness | None = None
    component: tuple[int, ...] | None = None
    detail: tuple[tuple[str, str], ...] = ()


class _PlanFail(Exception):
    """Internal backtracking signal; never escapes the planner."""


class _Peeler:
    """Depth-first decomposition of the deficit vector into engine moves;
    inverses holds the sweep's -M^{-1} for each component, by support."""

    def __init__(self, model: CurveModel, inverses: dict):
        self.model = model
        self.inverses = inverses
        self.nodes = 0
        self.counter = 0

    def _fresh_id(self, state: ConfigurationState) -> str:
        existing = {o.id for o in state.objects}
        while True:
            self.counter += 1
            candidate = f"~s{self.counter}"
            if candidate not in existing:
                return candidate

    def peel(
        self, state: ConfigurationState, u: dict[int, Fraction]
    ) -> tuple[ConfigurationState, list[Move]]:
        if not u:
            return state, []
        self.nodes += 1
        if self.nodes > _PEEL_BUDGET:
            raise _PlanFail("peel budget exhausted")
        parts = dual_graph(self.model, tuple(u)).components()
        if len(parts) > 1:
            moves: list[Move] = []
            for part in parts:
                state, part_moves = self.peel(state, {i: u[i] for i in part})
                moves.extend(part_moves)
            return state, moves
        for cand in self._candidates(parts[0]):
            try:
                state2, moves2, u2 = self._execute(state, u, cand)
                state3, rest = self.peel(state2, u2)
            except (_PlanFail, SymconeError):
                continue
            return state3, moves2 + rest
        raise _PlanFail("no peel candidate applies")

    def _candidates(self, support: tuple[int, ...]) -> list[dict[int, int]]:
        if len(support) == 1:
            return [{support[0]: 1}]
        out: list[dict[int, int]] = []
        seen: set[tuple] = set()

        def push(c: dict[int, int]) -> None:
            key = tuple(sorted(c.items()))
            if key not in seen:
                seen.add(key)
                out.append(c)

        push({i: 1 for i in support})
        for x in support:
            boosted = {i: 1 for i in support}
            boosted[x] = 2
            push(boosted)
        inverse = self.inverses.get(support) or neg_inverse(self.model.curve_gram(support))
        # the columns of -M^{-1} are those of its integer adjugate, up to scale
        for column in zip(*inverse.adjugate):
            g = math.gcd(*column)
            ints = [x // g for x in column]
            # configurations can carry a constituent at most twice (the
            # doubled copy rides a pre-smoothing), so cap coefficients at 2
            if all(0 < x <= 2 for x in ints):
                push(dict(zip(support, ints)))
        for j in support:
            push({j: 1})
        return out

    def _execute(
        self,
        state: ConfigurationState,
        u: dict[int, Fraction],
        cand: dict[int, int],
    ) -> tuple[ConfigurationState, list[Move], dict[int, Fraction]]:
        amplitude = min(u[i] / c for i, c in cand.items())
        if amplitude <= 0:
            raise _PlanFail("non-positive amplitude")
        exhausted = {i for i, c in cand.items() if u[i] == amplitude * c}
        curves = self.model.curves
        moves: list[Move] = []
        if len(cand) == 1:
            (index,) = cand
            move = Inflate(curves[index].label, amplitude)
            state = apply_move(state, move)
            moves.append(move)
        else:
            doubled = sorted(i for i, c in cand.items() if c == 2)
            used: set[int] = set()
            gather: list[str] = []
            for x in doubled:
                z = self._find_partner(x, cand, exhausted, used)
                used.add(z)
                merged = self._fresh_id(state)
                move = SmoothAndReinstate(
                    (curves[z].label, curves[x].label), (curves[x].label,), merged
                )
                state = apply_move(state, move)
                moves.append(move)
                gather.append(merged)
            for i in sorted(cand):
                if i not in used:
                    gather.append(curves[i].label)
            survivors = tuple(
                curves[i].label for i in sorted(cand) if i not in exhausted
            )
            merged = self._fresh_id(state)
            move = SmoothAndReinstate(tuple(gather), survivors, merged)
            state = apply_move(state, move)
            moves.append(move)
            move = Inflate(merged, amplitude)
            state = apply_move(state, move)
            moves.append(move)
        remaining: dict[int, Fraction] = {}
        for i, value in u.items():
            rest = value - amplitude * cand.get(i, 0)
            if rest < 0:
                raise _PlanFail("peel overshoot")
            if rest > 0:
                remaining[i] = rest
        return state, moves, remaining

    def _find_partner(
        self,
        x: int,
        cand: dict[int, int],
        exhausted: set[int],
        used: set[int],
    ) -> int:
        # a doubled constituent needs an exhausted neighbor meeting it at
        # least -x^2 times: the pre-smoothing merges the pair and reinstates
        # the doubled curve, yielding two homologous copies in the gather
        row = self.model.curve_gram()[x]
        need = -row[x]
        for z in sorted(cand):
            if z == x or cand[z] != 1 or z not in exhausted or z in used:
                continue
            if row[z] >= need:
                return z
        raise _PlanFail("no partner for a doubled constituent")


def _all_minus_two_spheres(model: CurveModel, comp: tuple[int, ...]) -> bool:
    gram = model.curve_gram()
    return all(model.curves[i].genus == 0 and gram[i][i] == -2 for i in comp)


def _plan_single_curve(
    model: CurveModel,
    target: ClassVector,
    index: int,
    pairing: Fraction,
    annotations: Sequence[str],
):
    lat = model.lattice
    curve = model.curves[index]
    k = -model.curve_gram()[index][index]
    h = h_param(k, curve.genus)
    # the single inflation t must satisfy t (2k - h) > 2|v|; (-1)-spheres
    # (2k = h) were already refused by the caller
    low = 2 * (-pairing) / (2 * k - h) if pairing < 0 else Fraction(0)
    if pairing < 0 and h != k:
        depth = 4 * pairing * pairing
        room = (k - 1) * (k - 1) * lat.square(target)
        if depth >= room:
            return Unsupported(
                reason="chamber wall out of reach: 4 v^2 >= (k-1)^2 alpha^2",
                component=(index,),
                detail=(
                    ("4 v^2", format_rational(depth, "4 v^2")),
                    ("(k-1)^2 alpha^2", format_rational(room, "(k-1)^2 alpha^2")),
                    ("pairing", format_rational(pairing, "pairing")),
                ),
            )
    amplitudes = (low + Fraction(1, 2**j) for j in range(64))
    t, failing = model.first_interior_scale(target, curve.vector, amplitudes)
    if t is None:
        return Unsupported(
            reason="no inflation amplitude keeps the base Kähler",
            component=(index,),
            detail=(("window start", format_rational(low, "window start")), ("failing check", failing)),
        )
    base = target - curve.vector.scale(t)
    return Certificate(model, base, (Inflate(curve.label, t),), target, annotations=tuple(annotations))


def _sweep_plan(
    model: CurveModel,
    target: ClassVector,
    pairings: Sequence[Fraction],
    comps: tuple[tuple[int, ...], ...],
    annotations: Sequence[str],
):
    """Peel the base of the first Kähler scale r, once.

    With N = -M^{-1} per component and v the target's pairings with the
    locus (read off classify), the base pairing r with every curve of the
    locus is corner - r far, where
    corner = target + sum (N v)_i e_i and far = sum (N 1)_i e_i.  Its deficit
    r N 1 - N v is positive (N >= 0, v <= 0 on the locus), and everything the
    peel checks scales linearly with r: the first Kähler r peels or none does.
    The scales are tested from the Gram products of corner and far alone
    (CurveModel.first_interior_scale): the base's square is a quadratic in
    r and its pairings are linear forms.  A refusal names the check that
    fails at the smallest scale."""
    inverses, terms = {}, []
    for comp in comps:
        inverse = inverses[comp] = neg_inverse(model.curve_gram(comp))
        v = [pairings[i] for i in comp]
        ones = [Fraction(1)] * len(comp)
        terms += zip(comp, linalg.mat_vec(inverse, v), linalg.mat_vec(inverse, ones))
    indices, ds, ss = zip(*terms)
    corner, far = target + model.combination(indices, ds), model.combination(indices, ss)
    r, failing = model.first_interior_scale(corner, far, _R_SWEEP)
    if r is None:
        return Unsupported(
            reason="no base scale makes the base Kähler",
            detail=(("r", format_rational(_R_SWEEP[-1], "r")), ("failing check", failing)),
        )
    base = corner - far.scale(r)
    u = {i: r * s - d for i, d, s in terms}
    try:
        _, moves = _Peeler(model, inverses).peel(ConfigurationState.seeded(model, base), u)
    except _PlanFail as exc:
        return Unsupported(
            reason="the deficit does not peel into moves",
            detail=(("peel", str(exc)), ("r", format_rational(r, "r"))),
        )
    notes = list(annotations)
    if any(isinstance(m, SmoothAndReinstate) and len(m.reinstate_ids) > 1 for m in moves):
        notes.insert(0, "iterated-disjoin")
    return Certificate(model, base, tuple(moves), target, annotations=tuple(notes))


def plan(model: CurveModel, target: ClassVector):
    """Produce a verified Certificate for the target class, or Unsupported.

    Interior classes get the empty certificate, a single curve the first
    amplitude whose base is Kähler, other corner and chamber targets the
    uniform-base peel at the first Kähler scale.  That one certificate is
    replayed once, with no retry; a failed replay or peel comes back as
    Unsupported with its first failure.  Targets outside the positive cone
    (with their square and reference pairing), mixed boundaries, indefinite
    vanishing loci (with witness), E-type sphere trees, and (-1)-sphere walls
    are refused with their exact obstruction data.  A number in that data
    past the interpreter's digit limit cannot be written out and raises
    RangeError instead."""
    outcome = _construct(model, target)
    if isinstance(outcome, Unsupported):
        return outcome
    report = verify_certificate(outcome)
    if not report.passed:
        return Unsupported(
            reason="planned certificate failed replay",
            detail=(("first failure", report.first_failure),),
        )
    return outcome


def reflected_chamber_certificate(model: CurveModel, alpha: ClassVector, e_index: int):
    """Reflect an interior-Kähler class across a curve wall, with proof:
    (R_e(alpha), plan's certificate for it), which inflates e once from the
    first Kähler base alpha - 2^-j e.  Spheres of odd square are refused
    (their inflation bound cannot reach the reflected class this way)."""
    if not model.is_interior_kahler(alpha):
        raise PreconditionError("alpha must be interior-Kähler")
    k = -model.curve_gram((e_index,))[0][0]
    curve = model.curves[e_index]
    if curve.genus == 0 and k % 2 == 1:
        raise PreconditionError(
            f"curve {curve.label!r} is a sphere of odd square {-k}; reflection certificate unavailable"
        )
    reflected = reflect(model.lattice, alpha, curve.vector)
    outcome = plan(model, reflected)
    if isinstance(outcome, Unsupported):
        detail = "".join(f"; {name}: {value}" for name, value in outcome.detail)
        raise PropertyViolationError(f"reflection certificate: {outcome.reason}{detail}")
    return reflected, outcome


def _construct(model: CurveModel, target: ClassVector):
    """The one certificate plan replays, or its refusal."""
    if not model.completeness_assumed:
        return Unsupported(
            reason="model does not assume completeness; bases cannot be certified Kähler"
        )
    lat = model.lattice
    if lat.reference_class is None:
        return Unsupported(reason="model has no reference class; the positive cone is undefined")
    if not lat.is_positive_cone(target):
        square = format_rational(lat.square(target), "square")
        reference = format_rational(lat.pair(target, lat.reference_class), "reference pairing")
        return Unsupported(
            reason="target is not in the positive cone",
            detail=(("square", square), ("reference pairing", reference)),
        )
    cls = classify(model, target)
    if cls.membership is Membership.INTERIOR_KAHLER:
        return Certificate(model=model, base_class=target, moves=(), target_class=target)
    if cls.membership is Membership.MIXED_BOUNDARY:
        negative = ", ".join(
            model.curves[i].label for i, p in enumerate(cls.pairings) if p < 0
        )
        vanishing = ", ".join(
            model.curves[i].label for i, p in enumerate(cls.pairings) if p == 0
        )
        return Unsupported(
            reason="mixed boundary: target both vanishes and goes negative on curves",
            detail=(("negative on", negative), ("zero on", vanishing)),
        )
    G = cls.descriptor.curve_indices
    comps = dual_graph(model, G).components()
    if not cls.descriptor.admissible:
        for comp in comps:
            found = component_obstruction(model, comp)
            if isinstance(found, Witness):
                return Unsupported(
                    reason="vanishing locus is not negative definite",
                    witness=found,
                    component=comp,
                    detail=(("witness square", format_rational(found.square, "witness square")),),
                )
        raise PropertyViolationError(
            "locus flagged inadmissible but every component is negative definite"
        )
    annotations: list[str] = []
    for comp in comps:
        if _all_minus_two_spheres(model, comp):
            kind = dynkin_classify(dual_graph(model, comp))
            if kind.series == "E":
                return Unsupported(
                    reason=f"{kind.label} configuration of (-2)-spheres is excluded",
                    component=comp,
                )
            if kind.series == "D" and "extrapolated" not in annotations:
                annotations.append("extrapolated")
    for comp in comps:
        if len(comp) == 1:
            (i,) = comp
            if model.curves[i].genus == 0 and model.curve_gram()[i][i] == -1:
                return Unsupported(
                    reason="(-1)-sphere wall: the required amplitude equals the open bound 2A/h",
                    component=comp,
                )
    if len(comps) == 1 and len(comps[0]) == 1:
        only = comps[0][0]
        return _plan_single_curve(model, target, only, cls.pairings[only], annotations)
    return _sweep_plan(model, target, cls.pairings, comps, annotations)

"""Certificate synthesis for every boundary target whose vanishing locus
(the curves it pairs <= 0 with) is admissible.

The planner picks a base class pairing uniformly (some r > 0) against the
vanishing locus, then peels the deficit u = -M^{-1}(r 1 - v) into configuration
smoothings and inflations, once, at the first listed r whose base is
Kähler.  The locus's Support keeps -M^{-1} 1 and the class it spans, so a
second target on the locus recomputes neither.  The deficit is integral over
one denominator, and the peel compares and subtracts amplitudes in integers,
making a Fraction only for each inflation it emits.  The peel replays as it
searches: every candidate move is a step of the verifier's own Replay, so a
bound, reinstatement or positive-cone failure simply backtracks, and the
replay of the moves it keeps is the certificate's one replay.  Targets the
planner cannot or will not handle come back as an Unsupported value carrying
exact witness data, never as an exception.  plan is the one certificate
builder: a reflection across a curve wall is plan's single inflation to the
reflected class.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterator, Sequence

from .chambers import Membership, _far, _neg_apply, classify, reflect
from .errors import PreconditionError, PropertyViolationError, SymconeError
from .lattice import ClassVector, CurveModel, Frozen, Support, pairing_components
from .linalg import format_rational, iter_pivot_minors
from .moves import (
    Certificate,
    ConfigurationState,
    Inflate,
    Move,
    Replay,
    SmoothAndReinstate,
    h_param,
    verify_certificate,
)

# base pairing scales, largest first; the planner takes the first one small
# enough to keep the base Kähler
_R_SWEEP = tuple(Fraction(2) ** p for p in range(8, -17, -1))

_PEEL_BUDGET = 4096


def dual_graph(model: CurveModel, indices: Sequence[int] | None = None) -> Support:
    """The model's Support of the curve indices (of every curve by default):
    its vertices are the indices and its edges the Gram's positive entries."""
    return model.support(range(len(model.curves)) if indices is None else indices)


class DynkinType(Frozen):
    series: str  # "A", "D", "E", or "none"
    rank: int

    @property
    def is_ade(self) -> bool:
        return self.series in ("A", "D", "E")

    @property
    def label(self) -> str:
        return f"{self.series}{self.rank}" if self.is_ade else "not-ADE"


def dynkin_classify(graph: Support) -> DynkinType:
    """Total ADE recognition of a dual graph.

    Anything disconnected, multiply-laced, cyclic, or over-branched comes back
    as the "none" series with the vertex count as rank."""
    M = graph.gram
    n = len(M)
    if n == 0:
        raise PreconditionError("empty graph")
    none = DynkinType(series="none", rank=n)
    edges = [M[i][j] for i in range(n) for j in range(i + 1, n) if M[i][j] > 0]
    if any(m != 1 for m in edges):
        return none
    if len(graph.components()) != 1:
        return none
    if len(edges) != n - 1:
        return none  # connected with an extra edge means a cycle
    degrees = [sum(1 for j, v in enumerate(row) if j != i and v > 0) for i, row in enumerate(M)]
    if any(d >= 4 for d in degrees):
        return none
    branches = [i for i, d in enumerate(degrees) if d == 3]
    if len(branches) > 1:
        return none
    if not branches:
        return DynkinType(series="A", rank=n)
    b = branches[0]
    # a tree with one branch vertex falls into its three legs without it
    legs = sorted(map(len, pairing_components([row[:b] + row[b + 1 :] for row in M[:b] + M[b + 1 :]])))
    if legs[0] == 1 and legs[1] == 1:
        return DynkinType(series="D", rank=legs[2] + 3)
    if legs[:2] == [1, 2] and legs[2] in (2, 3, 4):
        return DynkinType(series="E", rank=legs[2] + 4)
    return none


class Witness(Frozen):
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

    Returns the model's Support of it when it is admissible, else a Witness,
    found once per model and set and kept with that Support.  Small sets are settled by exhaustive search over coefficients
    0..4, smallest coefficient sum first; larger ones by a greedy
    square-increasing walk from the all-ones vector; a set neither settles
    gets the Schur witness."""
    support = model.support(indices)
    if not support.indices:
        raise PreconditionError("empty curve set")
    if len(support.components()) != 1:
        raise PreconditionError("curve set is not connected in the dual graph")
    if support.admissible:
        return support
    if support.obstruction is None:
        support.obstruction = _witness(model, support)
    return support.obstruction


def _witness(model: CurveModel, support: Support) -> Witness:
    idx, M = support.indices, support.gram
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
        # the step of largest gain in the square, the first such (as max is)
        w[max(range(n), key=lambda i: 2 * mw[i] + M[i][i])] += 1
    # Schur witness: before the first leading minor of the wrong sign, M_{k-1}
    # is negative definite, so with m the head of column k the vector
    # (-M_{k-1}^{-1} m, 1, 0, ...) is nonnegative of square det M_k / det M_{k-1} >= 0;
    # for -M_{k-1}^{-1} m = head / d, d / gcd(d, head) scales it to integers
    k = next(k for k, minor in enumerate(iter_pivot_minors(M), start=1) if (-1) ** k * minor <= 0)
    head, d = _neg_apply(model, model.support(idx[: k - 1]), [row[k - 1] for row in M[: k - 1]])
    g = gcd(d, *head.values())
    c = tuple(head[i] // g for i in idx[: k - 1]) + (d // g,) + (0,) * (n - k)
    return Witness(indices=idx, coefficients=c, square=Fraction(square_of(c)))


class Unsupported(Frozen):
    """Planner refusal with a reason and exact supporting data."""

    reason: str
    witness: Witness | None = None
    component: tuple[int, ...] | None = None
    detail: tuple[tuple[str, str], ...] = ()


class _PlanFail(Exception):
    """Internal backtracking signal; never escapes the planner.  args[0] is
    its headline; a refusing peel node adds detail pairs naming its last
    candidate and that candidate's failure."""


class _Peeler:
    """Depth-first decomposition of the deficit vector into engine moves.

    A deficit is a dict of integer numerators over one denominator d, keyed
    by curve indices in increasing order, so each node's Support is looked
    up by its keys as they stand."""

    def __init__(self, model: CurveModel):
        self.model = model
        self.nodes = 0
        self.counter = 0

    def _fresh_id(self, state: ConfigurationState) -> str:
        while True:
            self.counter += 1
            candidate = f"~s{self.counter}"
            if candidate not in state._slots:
                return candidate

    def peel(self, replay: Replay, u: dict[int, int], d: int) -> Replay:
        """The replay after the moves that peel u / d off, appended to replay."""
        if not u:
            return replay
        self.nodes += 1
        if self.nodes > _PEEL_BUDGET:
            raise _PlanFail("peel budget exhausted")
        parts = (tuple(u),) if len(u) == 1 else self.model._support(tuple(u)).components()
        if len(parts) > 1:
            for part in parts:
                replay = self.peel(replay, {i: u[i] for i in part}, d)
            return replay
        for cand in self._candidates(parts[0]):
            try:
                return self.peel(*self._execute(replay, u, d, cand))
            except (_PlanFail, SymconeError) as exc:
                failure = exc.args[0] if exc.args else str(exc)  # a nested refusal's headline alone
        last = " + ".join((f"{c} " if c > 1 else "") + self.model.curves[i].label
                          for i, c in sorted(cand.items()))
        raise _PlanFail("no peel candidate applies", ("last candidate", last), ("last candidate failure", failure))

    def _candidates(self, support: tuple[int, ...]) -> Iterator[dict[int, int]]:
        """All-ones, each constituent boosted to 2, then each curve alone:
        pairwise distinct on two or more curves, made as a backtrack asks."""
        ones = dict.fromkeys(support, 1)
        yield ones
        if len(support) > 1:
            yield from ({**ones, x: 2} for x in support)
            yield from ({j: 1} for j in support)

    def _execute(
        self,
        replay: Replay,
        u: dict[int, int],
        d: int,
        cand: dict[int, int],
    ) -> tuple[Replay, dict[int, int], int]:
        """The replay after the candidate's moves, and the rest of u / d,
        over d or, where a constituent is doubled, over 2d: the amplitude
        min u_i / c_i is then a / (grain d) for an integer a.  Each u_i is a
        positive integer and each c_i 1 or 2, so a >= 1 and no rest is < 0.
        The moves are built unchecked: ids are curve labels (CurveData
        checks them) or fresh ids, in tuples, and the amplitude a Fraction."""
        grain = 2 if 2 in cand.values() else 1
        a = min(grain * u[i] // c for i, c in cand.items())
        exhausted = {i for i, c in cand.items() if grain * u[i] == a * c}
        amplitude = Fraction(a, grain * d)
        curves = self.model.curves
        if len(cand) == 1:
            (index,) = cand
            replay = _step(replay, Inflate._unchecked(curves[index].label, amplitude))
        else:
            doubled = sorted(i for i, c in cand.items() if c == 2)
            used: set[int] = set()
            gather: list[str] = []
            for x in doubled:
                z = self._find_partner(x, cand, exhausted, used)
                used.add(z)
                merged = self._fresh_id(replay.state)
                replay = _step(replay, SmoothAndReinstate._unchecked(
                    (curves[z].label, curves[x].label), (curves[x].label,), merged
                ))
                gather.append(merged)
            for i in sorted(cand):
                if i not in used:
                    gather.append(curves[i].label)
            survivors = tuple(
                curves[i].label for i in sorted(cand) if i not in exhausted
            )
            merged = self._fresh_id(replay.state)
            replay = _step(replay, SmoothAndReinstate._unchecked(tuple(gather), survivors, merged))
            replay = _step(replay, Inflate._unchecked(merged, amplitude))
        remaining: dict[int, int] = {}
        for i, value in u.items():
            rest = grain * value - a * cand.get(i, 0)
            if rest > 0:
                remaining[i] = rest
        return replay, remaining, grain * d

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


def _step(replay: Replay, move: Move) -> Replay:
    """The replay after the move; a failed step backtracks."""
    replay = replay.step(move)
    if replay.failure is not None:
        raise _PlanFail(replay.failure)
    return replay


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
    base = target.add_multiple(curve.vector, -t)
    # unchecked: _construct has used model and target, the label is a
    # curve's, t is low plus a Fraction and the annotations are _construct's
    inflation = Inflate._unchecked(curve.label, t)
    return Certificate._unchecked(model, base, (inflation,), target, None, tuple(annotations))


def _sweep_plan(
    model: CurveModel,
    target: ClassVector,
    scaled: Sequence[int],
    locus: Support,
    annotations: Sequence[str],
):
    """Peel the base of the first Kähler scale r, once, replaying as it
    goes: a certificate comes back keeping the report of that replay.

    With N = -M^{-1} per component and v the target's pairings with the
    locus (scaled by the target's denominator, as classify reads them off
    the target's row), the base pairing r with every curve of the
    locus is corner - r far, where
    corner = target + sum (N v)_i e_i and far = sum (N 1)_i e_i.  Its deficit
    u = r N 1 - N v is positive wherever v is 0 or negative on the locus: N 1
    is positive entrywise on each connected component (there N > 0), and
    -N v >= 0 for v <= 0, so every u_i > 0.  A mixed target, 0 on some
    curves of the locus and negative on others, is planned like a corner or
    a chamber target.  Everything the peel checks scales linearly with r:
    the first Kähler r peels or none does.
    far is the locus's (chambers._far); on a corner v = 0, so corner is the
    target, and otherwise N v comes from the same pass (chambers._neg_apply).
    The scales are tested from the Gram products of corner and far alone
    (CurveModel.first_interior_scale): the base's square is a quadratic in
    r and its pairings are linear forms.  A refusal names the check that
    fails at the smallest scale.  The deficit goes to the peel as integer
    numerators over one denominator."""
    far, m, ones = _far(model, locus)
    indices = locus.indices
    # m q (N v)_i, for q the target's denominator: v_i = scaled_i / q
    q, nv, corner = 1, dict.fromkeys(indices, 0), target
    if any(scaled[i] for i in indices):
        nv, _ = _neg_apply(model, locus, [scaled[i] for i in indices])
        q = target.integer_form[0]
        corner = model._shifted(target, nv.items(), m * q)
    r, failing = model.first_interior_scale(corner, far, _R_SWEEP)
    if r is None:
        return Unsupported(
            reason="no base scale makes the base Kähler",
            detail=(("r", format_rational(_R_SWEEP[-1], "r")), ("failing check", failing)),
        )
    base = corner.add_multiple(far, -r)
    # u = r N 1 - N v = (r_n q ones_i - r_d nv_i) / (r_d q m), for r = r_n / r_d
    u = {i: r.numerator * q * ones[i] - r.denominator * nv[i] for i in indices}
    # both certificates are unchecked: _construct has used model and target,
    # and the moves and notes are the peel's and _construct's
    replay = Replay.start(Certificate._unchecked(model, base, (), target, None, ()))
    if replay.failure is None:
        try:
            replay = _Peeler(model).peel(replay, u, r.denominator * q * m)
        except (_PlanFail, RecursionError) as exc:
            # the peel recurses once per node, so a long chain can outrun the stack
            why = exc.args if isinstance(exc, _PlanFail) else ("recursion depth exceeded",)
            return Unsupported(
                reason="the deficit does not peel into moves",
                detail=(("peel", why[0]), *why[1:], ("r", format_rational(r, "r"))),
            )
    moves = tuple(record.move for record in replay.records())
    notes = list(annotations)
    if any(isinstance(m, SmoothAndReinstate) and len(m.reinstate_ids) > 1 for m in moves):
        notes.insert(0, "iterated-disjoin")
    cert = Certificate._unchecked(model, base, moves, target, None, tuple(notes))
    replay.report(cert)  # the certificate keeps the report of its one replay
    return cert


def plan(model: CurveModel, target: ClassVector):
    """Produce a verified Certificate for the target class, or Unsupported.

    Interior classes get the empty certificate, a single curve the first
    amplitude whose base is Kähler, every other boundary target (corner,
    chamber or mixed) the uniform-base peel at the first Kähler scale.  That
    one certificate is replayed once, with no retry: a peeled one by the
    peel itself, which steps the verifier's Replay as it searches, any other
    by verify_certificate here.  The certificate keeps the report of that
    replay, keyed by the digit limit, so verify_certificate on it under the
    same limit replays nothing; a copy made by replace or by the codec is
    replayed in full.  A failed replay or peel comes back as
    Unsupported with its first failure.  Targets outside the positive cone
    (with their square and reference pairing), indefinite vanishing loci
    (with witness), E-type sphere trees, and (-1)-sphere walls are refused
    with their exact obstruction data.  A number in that data past the
    interpreter's digit limit cannot be written out and raises RangeError
    instead."""
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
    """The one certificate plan replays (a peeled one keeping its replay's
    report), or its refusal."""
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
        # unchecked: classify has read the model and the target
        return Certificate._unchecked(model, target, (), target, None, ())
    locus = cls.descriptor
    comps = locus.components()
    if not locus.admissible:
        # curves pair >= 0, so the Gram is block diagonal over comps: one returns
        for comp in comps:
            found = component_obstruction(model, comp)
            if isinstance(found, Witness):
                return Unsupported(
                    reason="vanishing locus is not negative definite",
                    witness=found,
                    component=comp,
                    detail=(("witness square", format_rational(found.square, "witness square")),),
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
        pairing = Fraction(cls.scaled[only], cls.denominator)
        return _plan_single_curve(model, target, only, pairing, annotations)
    return _sweep_plan(model, target, cls.scaled, locus, annotations)

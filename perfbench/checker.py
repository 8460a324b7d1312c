"""Independent certificate checker for the benchmark.

Replays a certificate document with plain ``Fraction`` arithmetic and checks
every move's preconditions, every 2A/h bound, and that the final class equals
the target.  It shares no code with the package: it reads only JSON-shaped
data (a model document and a certificate document) and imports nothing from
``symcone``, so a defect in the move engine or the planner cannot hide itself
from this check.

A result is ``(passed, stage, reason)`` where stage names where the replay
stopped: ``"ok"``, ``"model"``, ``"base"``, ``"init"``, ``"move N"`` or
``"final"``.  ``verify_certificate`` reports are mapped onto the same stages
by :func:`stage_of_failure`, so the two verdicts can be compared.
"""

from __future__ import annotations

import re
from fractions import Fraction


class CheckFailure(Exception):
    def __init__(self, stage: str, reason: str):
        super().__init__(f"{stage}: {reason}")
        self.stage = stage
        self.reason = reason


def rational(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not a rational: {value!r}")
    return Fraction(value)


class Lattice:
    """Sparse integral pairing read from a model document."""

    def __init__(self, model_doc: dict):
        gram = model_doc["gram"]
        self.rank = len(gram)
        self.rows = [
            [(j, int(v)) for j, v in enumerate(row) if v] for row in gram
        ]
        self.reference = (
            tuple(rational(x) for x in model_doc["reference"])
            if "reference" in model_doc
            else None
        )
        self.complete = model_doc["completeness_assumed"] is True
        self.curves = {
            c["label"]: (tuple(Fraction(int(x)) for x in c["class"]), int(c["genus"]))
            for c in model_doc["curves"]
        }
        self.labels = [c["label"] for c in model_doc["curves"]]

    def pair(self, a, b) -> Fraction:
        total = Fraction(0)
        for i, x in enumerate(a):
            if x:
                total += x * sum((v * b[j] for j, v in self.rows[i] if b[j]), Fraction(0))
        return total

    def in_positive_cone(self, a) -> bool:
        return self.pair(a, a) > 0 and self.pair(a, self.reference) > 0


def _add(a, b, t):
    return tuple(x + t * y for x, y in zip(a, b))


def _h(k: Fraction, genus: int) -> Fraction:
    return k + 1 if genus == 0 and k % 2 == 1 else k


def check_certificate(model_doc: dict, cert_doc: dict) -> tuple[bool, str, str]:
    """Replay ``cert_doc`` against ``model_doc``; never raises on bad data."""
    try:
        _replay(Lattice(model_doc), cert_doc)
    except CheckFailure as exc:
        return False, exc.stage, exc.reason
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return False, "init", f"malformed document: {exc!r}"
    return True, "ok", ""


def _replay(lat: Lattice, doc: dict) -> None:
    if not lat.complete:
        raise CheckFailure("model", "completeness is not assumed")
    if lat.reference is None:
        raise CheckFailure("model", "no reference class")
    current = tuple(rational(x) for x in doc["base_class"])
    target = tuple(rational(x) for x in doc["target_class"])
    if len(current) != lat.rank or len(target) != lat.rank:
        raise CheckFailure("init", "class rank does not match the model")
    if not lat.in_positive_cone(current):
        raise CheckFailure("base", "base class is outside the positive cone")
    for label in lat.labels:
        if lat.pair(current, lat.curves[label][0]) <= 0:
            raise CheckFailure("base", f"base class is not positive on {label}")
    ids = doc.get("initial_objects", lat.labels)
    if len(set(ids)) != len(ids) or any(i not in lat.curves for i in ids):
        raise CheckFailure("init", "initial objects are not distinct declared curves")
    # id -> [vector, genus, alive]
    objects = {i: [lat.curves[i][0], lat.curves[i][1], True] for i in ids}
    _require_nonnegative(lat, objects, "init")

    for number, move in enumerate(doc["moves"], start=1):
        stage = f"move {number}"
        op = move["op"]
        if op in ("inflate", "inflate_nonneg"):
            obj = objects.get(move["object"])
            if obj is None or not obj[2]:
                raise CheckFailure(stage, "object is missing or not alive")
            t = rational(move["t"])
            square = lat.pair(obj[0], obj[0])
            area = lat.pair(current, obj[0])
            if area <= 0:
                raise CheckFailure(stage, "object has non-positive area")
            if op == "inflate":
                if square >= 0:
                    raise CheckFailure(stage, "inflate needs a negative-square object")
                if not 0 < t < 2 * area / _h(-square, obj[1]):
                    raise CheckFailure(stage, "t violates 0 < t < 2A/h")
                obj[2] = False
            else:
                if square < 0:
                    raise CheckFailure(stage, "inflate_nonneg needs a nonnegative square")
                if t <= 0:
                    raise CheckFailure(stage, "t must be positive")
            current = _add(current, obj[0], t)
        elif op == "smooth":
            _smooth(lat, objects, current, move, stage)
        else:
            raise CheckFailure(stage, f"unknown move {op!r}")
        if not lat.in_positive_cone(current):
            raise CheckFailure(stage, "class left the positive cone")
    if current != target:
        raise CheckFailure("final", "final class differs from the target")


def _smooth(lat, objects, current, move, stage) -> None:
    parts = list(move["constituents"])
    keep = set(move["reinstate"])
    new_id = move["new_id"]
    if not parts or len(set(parts)) != len(parts) or not keep <= set(parts):
        raise CheckFailure(stage, "bad constituent or reinstate list")
    if new_id in objects:
        raise CheckFailure(stage, "new id already in use")
    for p in parts:
        if p not in objects or not objects[p][2]:
            raise CheckFailure(stage, f"constituent {p!r} is missing or not alive")
        if lat.pair(current, objects[p][0]) <= 0:
            raise CheckFailure(stage, f"constituent {p!r} has non-positive area")
    vecs = [objects[p][0] for p in parts]
    n = len(parts)
    meet = [[lat.pair(vecs[i], vecs[j]) for j in range(n)] for i in range(n)]
    reached, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if j not in reached and meet[i][j] > 0:
                reached.add(j)
                todo.append(j)
    if len(reached) != n:
        raise CheckFailure(stage, "constituents are not connected")
    total = vecs[0]
    for v in vecs[1:]:
        total = _add(total, v, 1)
    for i, p in enumerate(parts):
        if p in keep:
            if sum(meet[i][j] for j in range(n) if j != i) < -meet[i][i]:
                raise CheckFailure(stage, f"{p!r} meets the rest too few times to reinstate")
            if lat.pair(vecs[i], total) < 0:
                raise CheckFailure(stage, f"reinstated {p!r} pairs negatively with the smoothing")
    doubles = sum(meet[i][j] for i in range(n) for j in range(i + 1, n))
    genus = sum(objects[p][1] for p in parts) + int(doubles) - (n - 1)
    for p in parts:
        if p not in keep:
            objects[p][2] = False
    objects[new_id] = [total, genus, True]
    _require_nonnegative(lat, objects, stage)


def _require_nonnegative(lat, objects, stage) -> None:
    alive = [o[0] for o in objects.values() if o[2]]
    for i, a in enumerate(alive):
        for b in alive[i + 1 :]:
            if lat.pair(a, b) < 0:
                raise CheckFailure(stage, "two alive objects pair negatively")


_AT_MOVE = re.compile(r"at move (\d+)$")


def stage_of_failure(first_failure: str | None) -> str:
    """Map a ``verify_certificate`` first-failure text onto a checker stage."""
    if first_failure is None:
        return "ok"
    found = _AT_MOVE.search(first_failure)
    if found:
        return f"move {found.group(1)}"
    if first_failure.startswith("final class"):
        return "final"
    if first_failure.startswith("base class"):
        return "base"
    if first_failure.startswith("model "):
        return "model"
    return "init"


def restricted_gram(lat: Lattice, labels) -> list[list[Fraction]]:
    vecs = [lat.curves[label][0] for label in labels]
    return [[lat.pair(a, b) for b in vecs] for a in vecs]


def negative_definite(m: list[list[Fraction]]) -> bool:
    """Sylvester's criterion via symmetric Gaussian elimination: -m is
    positive definite exactly when every pivot of -m is positive."""
    a = [[-Fraction(x) for x in row] for row in m]
    n = len(a)
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return True


def check_witness(lat: Lattice, labels, coefficients, square) -> bool:
    """A witness is a nonzero nonnegative curve combination with square >= 0."""
    if len(labels) != len(coefficients) or not any(coefficients):
        return False
    if any(c < 0 for c in coefficients):
        return False
    m = restricted_gram(lat, labels)
    value = sum(
        coefficients[i] * m[i][j] * coefficients[j]
        for i in range(len(labels))
        for j in range(len(labels))
    )
    return value == square and value >= 0

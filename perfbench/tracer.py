"""Per-layer counters and timers, installed around the package from outside.

``Tracer.install`` replaces chosen public functions and methods of the
``symcone`` modules with timing wrappers, rebinding every reference the
package holds (module globals, names imported into other modules, and
default arguments), so calls between layers pass through the wrappers too.
Nothing in the package changes; without ``install`` nothing is wrapped.

Each wrapped call is a span: its self time is its duration minus the time
of the wrapped calls it made.  A layer's self time is the sum over its
spans.  ``linalg.dot`` is the hot kernel, so it is only counted and timed,
never recorded as a span.  Spans of the coarser functions are kept in
memory with the operation they belong to and written out by the caller.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict

perf = time.perf_counter

# (module, attribute path, metric key); the key's first part is the layer
TARGETS = (
    ("linalg", "det", "linalg.det"),
    ("linalg", "solve_columns", "linalg.solve_columns"),
    ("linalg", "leading_principal_minors", "linalg.leading_principal_minors"),
    ("lattice", "IntersectionLattice.pair", "lattice.pair"),
    ("lattice", "IntersectionLattice.gram_vector", "lattice.gram_vector"),
    ("lattice", "CurveModel.pairings_with", "lattice.pairings_with"),
    ("lattice", "CurveModel.curve_gram", "lattice.curve_gram"),
    ("lattice", "CurveModel.is_interior_kahler", "lattice.is_interior_kahler"),
    ("lattice", "neg_inverse", "lattice.neg_inverse"),
    ("lattice", "is_negative_definite", "lattice.is_negative_definite"),
    ("chambers", "classify", "chambers.classify"),
    ("chambers", "corner_point", "chambers.corner_point"),
    ("chambers", "descriptor_for", "chambers.descriptor_for"),
    ("moves", "verify_certificate", "moves.verify_certificate"),
    ("moves", "apply_move", "moves.apply_move"),
    ("moves", "initial_state", "moves.initial_state"),
    ("moves", "ConfigurationState.__post_init__", "moves.state_check"),
    ("planner", "plan", "planner.plan"),
    ("planner", "component_obstruction", "planner.component_obstruction"),
    ("planner", "dual_graph", "planner.dual_graph"),
    ("planner", "dynkin_classify", "planner.dynkin_classify"),
    ("documents", "load_json", "documents.load_json"),
    ("documents", "certificate_from_doc", "documents.certificate_from_doc"),
    ("documents", "model_from_doc", "documents.model_from_doc"),
    ("documents", "certificate_to_doc", "documents.certificate_to_doc"),
    ("documents", "model_to_doc", "documents.model_to_doc"),
    ("documents", "report_to_doc", "documents.report_to_doc"),
    ("documents", "unsupported_to_doc", "documents.unsupported_to_doc"),
    ("documents", "canonical_json", "documents.canonical_json"),
    ("models", "builtin_model", "models.builtin_model"),
    ("models", "kk_gamma0_certificate", "models.kk_gamma0_certificate"),
)

# called often enough that a span record each would dominate memory
UNRECORDED = {
    "lattice.pair", "lattice.gram_vector", "lattice.pairings_with",
    "lattice.curve_gram", "lattice.is_interior_kahler", "moves.state_check",
    "moves.apply_move", "linalg.det", "linalg.solve_columns",
    "linalg.leading_principal_minors", "lattice.neg_inverse",
    "lattice.is_negative_definite", "planner.dual_graph", "documents.canonical_json",
}

PARSE = ("documents.load_json", "documents.certificate_from_doc", "documents.model_from_doc")
EMIT = (
    "documents.certificate_to_doc", "documents.model_to_doc", "documents.report_to_doc",
    "documents.unsupported_to_doc", "documents.canonical_json",
)
# calls counted per plan while a plan() call is active
PER_PLAN = {
    "lattice.is_interior_kahler": "interior_checks",
    "lattice.neg_inverse": "neg_inverse",
    "moves.verify_certificate": "verify",
    "moves.apply_move": "apply_move",
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.failed = defaultdict(int)
        self.in_plan = defaultdict(int)
        self.dot = [0, 0.0]
        self.minor_dets = 0
        self.plan_depth = 0
        self.plan_moves = 0
        self.bytes_in = 0
        self.bytes_out = 0
        # frames are [key, child seconds, span index]; the root frame is the op
        self.stack = [["op", 0.0, None]]
        self.spans: list[tuple] = []
        self.op_id = None
        self.op_start = 0.0

    # -- installation --------------------------------------------------

    def install(self) -> None:
        mods = {name: sys.modules[f"symcone.{name}"] for name in
                ("linalg", "lattice", "chambers", "moves", "planner", "documents", "models")}
        swaps = {}
        for mod_name, path, key in TARGETS:
            owner = mods[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(original, key)
            setattr(owner, attr, wrapped)
            swaps[original] = wrapped
        dot = mods["linalg"].dot
        swaps[dot] = self._wrap_dot(dot)
        _rebind(swaps)

    def _wrap_dot(self, fn):
        counter, stack = self.dot, self.stack

        def dot(u, v):
            start = perf()
            result = fn(u, v)
            spent = perf() - start
            counter[0] += 1
            counter[1] += spent
            stack[-1][1] += spent
            return result

        return dot

    def _wrap(self, fn, key):
        tracer = self
        record = key not in UNRECORDED
        per_plan = PER_PLAN.get(key)
        is_plan = key == "planner.plan"
        is_det = key == "linalg.det"

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if is_det and stack[-1][0] == "linalg.leading_principal_minors":
                tracer.minor_dets += 1
            if per_plan and tracer.plan_depth:
                tracer.in_plan[per_plan] += 1
            if key == "documents.load_json":
                tracer.bytes_in += len(args[0].encode())
            span = None
            if record:
                span = len(tracer.spans)
                tracer.spans.append(None)
            frame = [key, 0.0, span]
            stack.append(frame)
            tracer.plan_depth += is_plan
            start = perf()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf()
                tracer.plan_depth -= is_plan
                stack.pop()
                spent = end - start
                stack[-1][1] += spent
                tracer.calls[key] += 1
                tracer.self_s[key] += spent - frame[1]
                if not ok:
                    tracer.failed[key] += 1
                if record:
                    parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                    tracer.spans[span] = (tracer.op_id, key, start, end, parent)
            if is_plan and hasattr(result, "moves"):
                tracer.plan_moves += len(result.moves)
            elif key == "documents.canonical_json":
                tracer.bytes_out += len(result.encode())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- operations ------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.op_id = op_id
        self.stack[0][2] = len(self.spans)
        self.spans.append(None)
        self.op_start = perf()

    def end_op(self) -> None:
        self.spans[self.stack[0][2]] = (self.op_id, "op", self.op_start, perf(), None)
        self.stack[0][2] = None

    # -- results ---------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def metrics(self) -> dict[str, float]:
        c, s = self.calls, self.self_s
        plans = c["planner.plan"]

        def per_plan(name):
            return self.in_plan[name] / plans if plans else 0.0

        applied = self.in_plan["apply_move"]
        return {
            "linalg.elim.calls": c["linalg.det"] + c["linalg.solve_columns"],
            "linalg.elim.self_s": s["linalg.det"] + s["linalg.solve_columns"],
            "linalg.det.calls": self.minor_dets,
            "linalg.dot.calls": self.dot[0],
            "linalg.dot.busy_s": self.dot[1],
            "lattice.pair.calls": c["lattice.pair"],
            "lattice.gram_vector.calls": c["lattice.gram_vector"],
            "lattice.pairings_with.calls": c["lattice.pairings_with"],
            "lattice.curve_gram.calls": c["lattice.curve_gram"],
            "lattice.neg_inverse.calls": c["lattice.neg_inverse"],
            "lattice.self_s": self.layer_self("lattice"),
            "chambers.classify.calls": c["chambers.classify"],
            "chambers.corner_point.calls": c["chambers.corner_point"],
            "chambers.descriptor_for.calls": c["chambers.descriptor_for"],
            "chambers.self_s": self.layer_self("chambers"),
            "moves.verify_certificate.calls": c["moves.verify_certificate"],
            "moves.apply_move.calls": c["moves.apply_move"],
            "moves.apply_move.failed": self.failed["moves.apply_move"],
            "moves.state_check.calls": c["moves.state_check"],
            "moves.state_check.self_s": s["moves.state_check"],
            "moves.self_s": self.layer_self("moves"),
            "planner.plan.calls": plans,
            "planner.self_s": self.layer_self("planner"),
            "planner.component_obstruction.self_s": s["planner.component_obstruction"],
            "planner.interior_checks_per_plan": per_plan("interior_checks"),
            "planner.neg_inverse_per_plan": per_plan("neg_inverse"),
            "planner.verify_per_plan": per_plan("verify"),
            "planner.move_yield": self.plan_moves / applied if applied else 0.0,
            "documents.parse.self_s": sum(s[k] for k in PARSE),
            "documents.emit.self_s": sum(s[k] for k in EMIT),
            "documents.bytes_in": self.bytes_in,
            "documents.bytes_out": self.bytes_out,
            "models.builtin_model.calls": c["models.builtin_model"],
            "models.builtin_model.self_s": s["models.builtin_model"],
        }

    def dump_state(self) -> dict:
        """Raw totals, so a parent process can add up traced children."""
        return {
            "calls": dict(self.calls), "self_s": dict(self.self_s),
            "failed": dict(self.failed), "in_plan": dict(self.in_plan),
            "dot": list(self.dot), "minor_dets": self.minor_dets,
            "plan_moves": self.plan_moves, "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
        }

    def add_state(self, state: dict) -> None:
        for name in ("calls", "self_s", "failed", "in_plan"):
            target = getattr(self, name)
            for k, v in state[name].items():
                target[k] += v
        self.dot[0] += state["dot"][0]
        self.dot[1] += state["dot"][1]
        for name in ("minor_dets", "plan_moves", "bytes_in", "bytes_out"):
            setattr(self, name, getattr(self, name) + state[name])


def _rebind(swaps: dict) -> None:
    """Point every reference the package holds at the wrappers."""
    for name, mod in list(sys.modules.items()):
        if name != "symcone" and not name.startswith("symcone."):
            continue
        for attr, value in list(vars(mod).items()):
            if _hashable(value) and value in swaps:
                setattr(mod, attr, swaps[value])
            if isinstance(value, types.FunctionType) and value.__defaults__:
                value.__defaults__ = tuple(
                    swaps.get(d, d) if _hashable(d) else d for d in value.__defaults__
                )


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True

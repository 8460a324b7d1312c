"""The benchmark's traced run: perfbench/tracer.py wraps package functions by
name from outside, so a rename or a changed call path breaks it silently.
Install it on a fresh import in a child process and replay the worked
certificate, and plan two corners, through the wrappers."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import symcone
from tracer import Tracer

tracer = Tracer()
tracer.install()
cert = symcone.models.kk_gamma0_certificate()
report = symcone.verify_certificate(cert)
print(json.dumps({
    "passed": report.passed,
    "calls": tracer.calls,
    "metrics": tracer.metrics(),
}))
"""


PLANS = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import symcone
from symcone import moves
from tracer import Tracer

tracer = Tracer()
tracer.install()
# record the moves the traced apply_move is given and count Replay steps
applied, steps = [], []
traced_apply, step = moves.apply_move, moves.Replay.step

def apply_move(state, move, *measured):
    applied.append(move)
    return traced_apply(state, move, *measured)

def counted_step(self, move):
    steps.append(move)
    return step(self, move)

moves.apply_move, moves.Replay.step = apply_move, counted_step
model = symcone.builtin_model("kk-extended")
alpha = model.lattice.reference_class + model.lattice.canonical_class
out = []
for labels in (["C1"], ["C1", "D123"]):
    corner = symcone.corner_point(model, alpha, [model.index_of(x) for x in labels])
    before = dict(tracer.in_plan)
    applied.clear(), steps.clear()
    cert = symcone.plan(model, corner)
    out.append({
        "moves": len(cert.moves),
        "verifies": tracer.in_plan["verify"] - before.get("verify", 0),
        "applies": tracer.in_plan["apply_move"] - before.get("apply_move", 0),
        "steps": len(steps),
        "applied": [applied.count(m) for m in cert.moves],
    })
print(json.dumps({"plans": out, "calls": tracer.calls}))
"""


REPEAT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import symcone
from tracer import Tracer

tracer = Tracer()
tracer.install()
model = symcone.builtin_model("kk-extended")
alpha = model.lattice.reference_class + model.lattice.canonical_class
out = []
for labels in (["C1", "D123"], ["C1", "D123"], ["C2", "D249"]):
    before = dict(tracer.calls)
    corner = symcone.corner_point(model, alpha, [model.index_of(x) for x in labels])
    symcone.plan(model, corner)
    out.append({k: tracer.calls[k] - before.get(k, 0) for k in
                ("linalg.solve_columns", "lattice.is_negative_definite", "planner.plan")})
print(json.dumps(out))
"""

def _traced(script):
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_tracer_installs_and_counts_a_replay():
    out = _traced(CHILD)
    assert out["passed"] is True
    calls = out["calls"]
    # the builder verifies its certificate once; the test's verify reads
    # the report the certificate keeps and replays nothing
    assert calls["models.kk_gamma0_certificate"] == 1
    assert calls["moves.verify_certificate"] == 2
    assert calls["moves.initial_state"] == 1
    assert calls["moves.apply_move"] == 7
    assert calls["lattice.is_interior_kahler"] == 1
    metrics = out["metrics"]
    assert metrics["moves.apply_move.failed"] == 0
    assert metrics["moves.self_s"] > 0


def test_plan_replays_its_certificate_once():
    # a single-curve corner is replayed once by verify_certificate; a
    # two-curve corner's peel steps the verifier's Replay as it searches and
    # the certificate keeps that replay's report, which plan's one
    # verify_certificate reads: every apply_move inside plan is a move the
    # peel tried and no move of the returned certificate is applied twice
    out = _traced(PLANS)
    single, pair = out["plans"]
    assert single == {"moves": 1, "verifies": 1, "applies": 1, "steps": 1, "applied": [1]}
    assert pair["moves"] > 1
    assert pair["verifies"] == 1
    assert pair["applies"] == pair["steps"] >= pair["moves"]
    assert pair["applied"] == [1] * pair["moves"]
    assert out["calls"]["planner.plan"] == 2
    assert out["calls"]["moves.verify_certificate"] == 2


def test_a_support_seen_before_is_not_eliminated_again():
    # the model keeps each support's verdict and -M^{-1}: a repeated corner
    # and plan solve nothing, a fresh support still does
    first, again, fresh = _traced(REPEAT)
    assert first["linalg.solve_columns"] > 0
    assert first["lattice.is_negative_definite"] > 0
    assert again == {"linalg.solve_columns": 0, "lattice.is_negative_definite": 0, "planner.plan": 1}
    assert fresh["linalg.solve_columns"] > 0


def test_the_traced_cli_runs_on_a_fresh_import(tmp_path):
    # the benchmark's traced children install the tracer right after a plain
    # import (as CHILD above does): it reads the modules it wraps from
    # sys.modules, so each must be registered at import, run on first read
    state = tmp_path / "state.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(state), "example", "kk-gamma0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "---JSON---" in proc.stdout.splitlines()
    assert json.loads(state.read_text(encoding="utf-8"))["calls"]

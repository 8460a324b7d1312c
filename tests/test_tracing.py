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
from tracer import Tracer

tracer = Tracer()
tracer.install()
model = symcone.builtin_model("kk-extended")
alpha = model.lattice.reference_class + model.lattice.canonical_class
out = []
for labels in (["C1"], ["C1", "D123"]):
    before = tracer.in_plan["verify"]
    corner = symcone.corner_point(model, alpha, [model.index_of(x) for x in labels])
    cert = symcone.plan(model, corner)
    out.append({"moves": len(cert.moves), "verifies": tracer.in_plan["verify"] - before})
print(json.dumps({"plans": out, "calls": tracer.calls}))
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
    # the builder verifies its certificate once, the test once more
    assert calls["models.kk_gamma0_certificate"] == 1
    assert calls["moves.verify_certificate"] == 2
    assert calls["moves.initial_state"] == 2
    assert calls["moves.apply_move"] == 2 * 7
    assert calls["lattice.is_interior_kahler"] == 1
    metrics = out["metrics"]
    assert metrics["moves.apply_move.failed"] == 0
    assert metrics["moves.self_s"] > 0


def test_plan_replays_its_certificate_once():
    # a single-curve corner (one inflation) and a two-curve corner (a peel)
    out = _traced(PLANS)
    single, pair = out["plans"]
    assert single == {"moves": 1, "verifies": 1}
    assert pair["moves"] > 1
    assert pair["verifies"] == 1
    assert out["calls"]["planner.plan"] == 2
    assert out["calls"]["moves.verify_certificate"] == 2

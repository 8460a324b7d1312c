"""The benchmark's traced run: perfbench/tracer.py wraps package functions by
name from outside, so a rename or a changed call path breaks it silently.
Install it on a fresh import in a child process and replay the worked
certificate through the wrappers."""

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


def test_tracer_installs_and_counts_a_replay():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
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

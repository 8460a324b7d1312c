"""Smoke test of the benchmark harness (about a minute on two cores).

    python3 -m pytest perfbench/test_smoke.py

Short runs of every workload check the result's shape, the metric names and
units declared in BENCHMARK.json, and that per-layer counts repeat exactly
between two traced runs.  The independent checker must agree with
``verify_certificate`` on the whole committed corpus, and the benchmark must
refuse to run where the package source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OPS = 6
EXACT_UNITS = ("count", "count/plan", "ratio", "B")


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--ops", str(OPS)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= OPS
    return result


def units(result: dict) -> dict:
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_declared_metrics(workload):
    plain = result_of(bench(workload, 0))
    assert units(plain) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert plain["metrics"]["output_match_ratio"]["value"] == 1
    assert all(entry["value"] > 0 for entry in plain["metrics"].values())

    first, second = result_of(bench(workload, 1)), result_of(bench(workload, 1))
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        if metric["unit"] in EXACT_UNITS:
            name = metric["name"]
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_checker_agrees_with_verifier():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import checker
    import symcone

    kk = symcone.model_to_doc(symcone.builtin_model("kk-extended"))
    named = {"kk-extended": kk, "kk-gamma0": symcone.model_to_doc(symcone.kk_gamma0_model())}
    gamma0 = symcone.certificate_to_doc(symcone.kk_gamma0_certificate())
    docs = [(gamma0, {"passed": True, "stage": "ok"})]
    with open(HERE / "data" / "corpus.jsonl", encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            docs.append((json.loads(entry["text"]), entry))
    assert sum(not entry["passed"] for _, entry in docs) >= 40
    for doc, entry in docs:
        report = symcone.verify_certificate(symcone.certificate_from_doc(doc))
        model_doc = named[doc["model"]] if isinstance(doc["model"], str) else doc["model"]
        passed, stage, _ = checker.check_certificate(model_doc, doc)
        assert (passed, stage) == (report.passed, checker.stage_of_failure(report.first_failure))
        assert (passed, stage) == (entry["passed"], entry["stage"])


def test_refuses_to_run_without_package_source():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("kk-corners", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)

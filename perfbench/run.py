"""symcone benchmark: run one workload, or all of them, and print its metrics.

    python3 perfbench/run.py --workload kk-corners --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src`` directory and nowhere else.  With ``--trace 0`` the run
repeats whole passes over the workload's operations until the next pass would
overrun ``--seconds`` (at least one pass) and reports the end-to-end metrics.
With ``--trace 1`` it runs one plain pass and one traced pass of the same
operations and reports the per-layer metrics.  The last line of standard
output is one JSON object; the exit code is non-zero when any operation
failed its independent check.  Results, span records and per-operation
output digests are written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "data" / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 5
STARTUP_PROBES = 5
OP_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 30
# a run must finish well inside three minutes whatever --seconds says
DEADLINE_S = 150
# see machine_speed(): end-to-end times are scaled to a machine on which the
# reference kernel takes exactly this long
NOMINAL_KERNEL_S = 0.001
KERNEL_ROUNDS = 12
_KA = tuple(Fraction(i, 7) for i in range(1, 23))
_KB = tuple(Fraction(7, i + 2) for i in range(1, 23))

import checker  # noqa: E402  (sibling modules of this script)
from tracer import Tracer  # noqa: E402
from workloads import CORPUS, WORKLOADS  # noqa: E402

perf = time.perf_counter
PROCESS_START = perf()


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S} s")


def machine_speed() -> float:
    """How fast this core runs right now, relative to the nominal machine.

    On a shared virtual machine a core's speed changes by up to a factor of
    two over seconds to minutes as neighbouring tenants come and go (seen on
    a 2-vCPU VM), which no amount of repetition inside one run averages
    away.  So every timed interval is bracketed by a fixed kernel of plain
    ``Fraction`` arithmetic shaped like the package's hot loops (it runs no
    package code), and the interval is multiplied by ``NOMINAL_KERNEL_S``
    over the kernel's mean time.  A change to the package moves the scaled
    time; a change of machine speed mostly does not.  Raw times are kept in
    the result file.
    """
    start = perf()
    for _ in range(KERNEL_ROUNDS):
        sum((x * y for x, y in zip(_KA, _KB) if x and y), Fraction(0))
    return perf() - start


def timed(fn, *args):
    """Run fn under the op timeout; return (result or the exception it
    raised, raw seconds, scaled seconds)."""
    before = machine_speed()
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    start = perf()
    try:
        result = fn(*args)
    except Exception as exc:  # a raising operation is a failed one
        result = exc
    finally:
        raw = perf() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    after = machine_speed()
    return result, raw, raw * NOMINAL_KERNEL_S * 2 / (before + after)


@dataclass
class Record:
    key: str
    latency: float
    raw: float
    ok: bool
    digest: str | None
    error: str | None


class Context:
    """What operations and checks share: the package, model documents for
    the checker, and the way CLI children are started."""

    def __init__(self, sc):
        self.sc = sc
        self.model_docs = {
            name: sc.model_to_doc(sc.builtin_model(name)) for name in ("kk-extended", "kk-gamma0")
        }
        self._lattices = {}
        self.tmp_dir = OUT / f"tmp-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.child_tracer: Tracer | None = None

    def lattice(self, name):
        if name not in self._lattices:
            self._lattices[name] = checker.Lattice(self.model_docs[name])
        return self._lattices[name]

    def child(self, args) -> subprocess.CompletedProcess:
        if self.child_tracer is None:
            cmd = [sys.executable, "-m", "symcone", *args]
        else:
            state = self.tmp_dir / "trace-state.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(state), *args]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if self.child_tracer is not None:
            self.child_tracer.add_state(json.loads(state.read_text(encoding="utf-8")))
        return proc


def fresh_import():
    for name in [n for n in sys.modules if n == "symcone" or n.startswith("symcone.")]:
        del sys.modules[name]
    return importlib.import_module("symcone")


def run_pass(ctx, workload, ops, refs, deadline, tracer=None) -> list[Record]:
    records = []
    for op in ops:
        if perf() > deadline:
            break
        if tracer is not None:
            tracer.begin_op(op.key)
        error = None
        result, raw, latency = timed(workload.run, ctx, op)
        if isinstance(result, Exception):
            error = f"raised {result!r}"
        if tracer is not None:
            tracer.end_op()
        digest = None
        if error is None:
            try:
                ok, output = workload.check(ctx, op, result)
                digest = hashlib.sha256(output.encode()).hexdigest()
                if not ok:
                    error = "independent check failed"
            except Exception as exc:
                error = f"check raised {exc!r}"
        records.append(Record(op.key, latency, raw, error is None, digest, error))
    return records


def startup_seconds(ctx) -> float:
    """Median wall time of a child that only imports the CLI."""
    times = []
    for _ in range(STARTUP_PROBES):
        start = perf()
        subprocess.run([sys.executable, "-c", "import symcone.cli"], env=ctx.env,
                       check=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        times.append(perf() - start)
    return statistics.median(times)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    return math.floor(100 * (1 - 10 / n)) if n > 20 else 50


def percentile(values, p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def git_hash() -> str:
    """HEAD of the checkout, or "none" when it is not a git work tree of its own."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "none"
    return lines[1]


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "symcone").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def declared_units() -> dict:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if hashlib.sha256(CORPUS.read_bytes()).hexdigest() != data["corpus_sha256"]:
        print("error: data/corpus.jsonl does not match its recorded digest", file=sys.stderr)
        return 2
    refs = data["digests"][workload.name]
    sys.path.insert(0, str(SRC))
    nproc = len(os.sched_getaffinity(0))
    # one core for the run and its children, so the speed kernel measures
    # the core the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _alarm)

    def set_up():
        sc = fresh_import()
        return sc, workload.setup(sc, args.seed)

    setups = []
    for _ in range(SETUP_REPEATS):
        result, _, scaled = timed(set_up)
        if isinstance(result, Exception):
            raise result
        sc, ops = result
        setups.append(scaled)
    if Path(sc.__file__).resolve().parent != SRC / "symcone":
        print(f"error: symcone imported from {sc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.ops:
        ops = ops[: args.ops]
    ctx = Context(sc)
    OUT.mkdir(exist_ok=True)
    ctx.tmp_dir.mkdir(exist_ok=True)
    deadline = PROCESS_START + DEADLINE_S
    tracer = None
    try:
        if args.trace:
            startup = startup_seconds(ctx)
            plain = run_pass(ctx, workload, ops, refs, deadline)
            tracer = Tracer()
            if workload.in_children:
                ctx.child_tracer = tracer
            else:
                tracer.install()
            traced = run_pass(ctx, workload, ops, refs, deadline, tracer)
            passes = [plain, traced]
        else:
            passes = []
            start = perf()
            while True:
                began = perf()
                passes.append(run_pass(ctx, workload, ops, refs, deadline))
                if perf() - start + (perf() - began) > args.seconds or perf() > deadline:
                    break
    finally:
        for leftover in ctx.tmp_dir.glob("*"):
            leftover.unlink()
        ctx.tmp_dir.rmdir()

    records = [r for p in passes for r in p]
    failed = [r for r in records if not r.ok]
    latencies = [r.latency for r in records]
    walls = [sum(r.latency for r in p) for p in passes]
    if args.trace:
        metrics = tracer.metrics()
        metrics["cli.startup_s"] = startup
        metrics["cli.command_s"] = (
            statistics.median(r.raw for r in plain) - 2 * startup
            if workload.in_children else 0.0
        )
        metrics["trace.overhead_s"] = walls[1] - walls[0]
    else:
        wall = statistics.median(walls)
        usage = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "ops_per_s": len(ops) / wall,
            "latency_p50_ms": statistics.median(latencies) * 1000,
            "latency_tail_ms": percentile(latencies, tail_percentile(len(ops))) * 1000,
            "output_match_ratio": sum(r.digest == refs.get(r.key) for r in records) / len(records),
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        }

    stem = f"{workload.name}-seed{args.seed}"
    meta = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0], "git": git_hash(),
        "src_sha256": src_digest(), "nproc": nproc,
        "passes": len(passes), "ops_per_pass": len(ops),
        "tail_percentile": tail_percentile(len(ops)), "tail_samples": len(latencies),
        "failed_ratio": len(failed) / len(records),
        "raw_wall_s": statistics.median(sum(r.raw for r in p) for p in passes),
        "raw_latency_p50_ms": statistics.median(r.raw for r in records) * 1000,
    }
    units = declared_units()
    result = {
        "correct": not failed, "attempted": len(records), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    digests = {}
    for r in records:
        digests.setdefault(r.key, r.digest)
    (OUT / f"{stem}-digests.json").write_text(json.dumps(digests, indent=0, sort_keys=True))
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(
        {"meta": meta, "result": result, "failures": [(r.key, r.error) for r in failed][:50]},
        indent=1))
    if tracer is not None and tracer.spans:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    for r in failed[:10]:
        print(f"FAILED {r.key}: {r.error}")
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        print(f"latency_tail_ms is p{meta['tail_percentile']} of {len(latencies)} samples")
    print(json.dumps(result))
    return 1 if failed else 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.ops:
                cmd += ["--ops", str(args.ops)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            print(f"== {name} trace={trace} exit={proc.returncode}")
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                status = 1
                sys.stderr.write(proc.stderr)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                summary["correct"] = False
                continue
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="cap the operations per pass, for quick checks of the harness")
    args = parser.parse_args(argv)
    if not (SRC / "symcone" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

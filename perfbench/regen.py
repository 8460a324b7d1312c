"""Regenerate the cert-replay corpus and the reference output digests.

    python3 perfbench/regen.py

Runs every operation in every workload's pool once on the checkout's source
tree, checks each with the independent checker, and writes
``data/corpus.jsonl`` and ``data/reference.json`` (the digests and the
corpus digest).  The reference must come from a commit whose outputs are the
intended ones; regenerating it on a later commit hides any change in output
from ``output_match_ratio``.  Takes about five minutes on two cores.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction

import checker
import run
from workloads import CORPUS, WORKLOADS

CORPUS_SEED = "cert-replay-corpus"
MUTATIONS = (
    "t_over", "t_negative", "drop_last", "unknown_object",
    "base_outside", "target_shift", "duplicate_move", "reinstate_stranger",
)


def record(ctx, workload, ops):
    digests, results = {}, {}
    for op in ops:
        result = workload.run(ctx, op)
        ok, output = workload.check(ctx, op, result)
        if not ok:
            raise SystemExit(f"{workload.name} {op.key}: independent check failed")
        digests[op.key] = hashlib.sha256(output.encode()).hexdigest()
        results[op.key] = result
    return digests, results


def mutate(doc: dict, kind: str, rng: random.Random) -> dict | None:
    doc = json.loads(json.dumps(doc))
    moves = doc["moves"]
    inflates = [i for i, m in enumerate(moves) if m["op"] == "inflate"]
    smooths = [i for i, m in enumerate(moves) if m["op"] == "smooth"]
    if kind == "t_over" and inflates:
        m = moves[rng.choice(inflates)]
        m["t"] = str(Fraction(m["t"]) * 1000)
    elif kind == "t_negative" and inflates:
        m = moves[rng.choice(inflates)]
        m["t"] = str(-Fraction(m["t"]))
    elif kind == "drop_last" and moves:
        moves.pop()
    elif kind == "unknown_object" and inflates:
        moves[rng.choice(inflates)]["object"] = "ghost"
    elif kind == "base_outside":
        doc["base_class"][0] = str(-Fraction(doc["base_class"][0]))
    elif kind == "target_shift":
        doc["target_class"][0] = str(Fraction(doc["target_class"][0]) + 1)
    elif kind == "duplicate_move" and inflates:
        i = rng.choice(inflates)
        moves.insert(i + 1, dict(moves[i]))
    elif kind == "reinstate_stranger" and smooths:
        m = moves[rng.choice(smooths)]
        m["reinstate"] = sorted(set(m["reinstate"]) | {"ghost"})
    else:
        return None
    return doc


def verdict(ctx, sc, doc: dict) -> dict:
    """Replay with the package and with the checker; they must agree."""
    report = sc.verify_certificate(sc.certificate_from_doc(doc))
    model_doc = ctx.model_docs[doc["model"]] if isinstance(doc["model"], str) else doc["model"]
    passed, stage, _ = checker.check_certificate(model_doc, doc)
    expected_stage = checker.stage_of_failure(report.first_failure)
    if (passed, stage) != (report.passed, expected_stage):
        raise SystemExit(
            f"checker disagrees with verify_certificate: {(passed, stage)} vs "
            f"{(report.passed, report.first_failure)}")
    return {"passed": report.passed, "first_failure": report.first_failure, "stage": stage}


def build_corpus(ctx, sc, corner_results, loci_results):
    rng = random.Random(CORPUS_SEED)
    valid = []
    for i, key in enumerate(rng.sample(sorted(corner_results), 64)):
        doc = json.loads(corner_results[key][2])
        if i % 2:
            doc["model"] = ctx.model_docs["kk-extended"]
        valid.append((f"corner-{'inline' if i % 2 else 'named'}-{key}", doc))
    multi = sorted(
        k for k, r in loci_results.items()
        if r[3] is not None and any(type(m).__name__ == "SmoothAndReinstate" for m in r[2].moves)
    )
    for i, key in enumerate(rng.sample(multi, min(32, len(multi)))):
        name = None if i % 2 else "kk-extended"
        doc = sc.certificate_to_doc(loci_results[key][2], model_name=name)
        valid.append((f"locus-{'inline' if i % 2 else 'named'}-{key}", doc))
    others = sorted({Fraction(p, q) for p in range(1, 8) for q in range(1, 9)} - {1})
    scales = [Fraction(1)] + rng.sample(others, len(others))
    kept = 0
    for t in scales:
        if kept == 16:
            break
        try:
            cert = sc.kk_gamma0_certificate(t)
        except sc.PreconditionError:
            continue
        name = None if kept % 2 else "kk-gamma0"
        doc = sc.certificate_to_doc(cert, model_name=name)
        valid.append((f"gamma0-{'inline' if kept % 2 else 'named'}-t{t}", doc))
        kept += 1
    entries = list(valid)
    made = 0
    while made < 48:
        kind = MUTATIONS[made % len(MUTATIONS)]
        ident, base = rng.choice(valid)
        doc = mutate(base, kind, rng)
        if doc is None:
            continue
        entries.append((f"mutant-{made}-{kind}-{ident}", doc))
        made += 1
    lines = []
    for ident, doc in entries:
        entry = {"id": ident, "text": sc.canonical_json(doc), **verdict(ctx, sc, doc)}
        if ident.startswith("mutant") and entry["passed"]:
            raise SystemExit(f"mutant {ident} still verifies")
        lines.append(json.dumps(entry, sort_keys=True))
    return "\n".join(lines) + "\n"


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import symcone as sc

    ctx = run.Context(sc)
    run.OUT.mkdir(exist_ok=True)
    ctx.tmp_dir.mkdir(exist_ok=True)
    digests = {}
    corners = WORKLOADS["kk-corners"]
    digests[corners.name], corner_results = record(ctx, corners, corners.pool(sc))
    print("kk-corners", len(corner_results), flush=True)
    loci = WORKLOADS["kk-loci"]
    digests[loci.name], loci_results = record(ctx, loci, loci.pool(sc))
    print("kk-loci", len(loci_results), flush=True)

    corpus = build_corpus(ctx, sc, corner_results, loci_results)
    CORPUS.write_text(corpus, encoding="utf-8")
    replay = WORKLOADS["cert-replay"]
    digests[replay.name], _ = record(ctx, replay, replay.setup(sc, 0))
    print("cert-replay", len(digests[replay.name]), flush=True)
    cli = WORKLOADS["cli-roundtrip"]
    digests[cli.name], _ = record(ctx, cli, cli.pool(sc))
    print("cli-roundtrip", len(digests[cli.name]), flush=True)
    for leftover in ctx.tmp_dir.glob("*"):
        leftover.unlink()
    ctx.tmp_dir.rmdir()

    reference = {
        "generated_from": {"git": run.git_hash(), "src_sha256": run.src_digest()},
        "corpus_sha256": hashlib.sha256(corpus.encode()).hexdigest(),
        "digests": digests,
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

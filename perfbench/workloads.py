"""The four benchmark workloads: inputs from a seed, the timed operation, and
the untimed independent check of each operation's output.

Every workload draws its operations from a fixed pool whose reference output
digests are committed in ``data/reference.json``, so ``output_match_ratio``
is defined for every seed.  A pass always covers the same corners, loci or
documents: which ones are drawn would move a pass's cost more than the
benchmark's bounds allow.  The seed picks the interior class each corner is
pushed from and the order of the pass.

A workload object has three methods:

* ``setup(sc, seed)`` returns the pass's operations; ``sc`` is the freshly
  imported ``symcone`` package.
* ``run(ctx, op)`` is the timed operation.  It reaches the package only
  through attributes of ``ctx.sc``, so an installed tracer sees every call.
* ``check(ctx, op, result)`` returns ``(ok, output)``: whether the output
  passed the independent check, and the canonical output text whose sha256
  is compared with the reference.

``in_children`` marks a workload whose package work happens in child
processes, so its memory and layer counts are taken from those.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checker

# interior classes a*w0 + lam*K that corners are pushed from
CANDIDATES = ((1, 1), (2, 1), (1, Fraction(3, 2)), (Fraction(3, 2), Fraction(2, 3)))

KK_SUBSETS = tuple((i,) for i in range(21)) + tuple(itertools.combinations(range(21), 2))
LOCUS_SIZES = range(3, 22)
LOCI_PER_SIZE = 8
CLI_WIDE_CORNERS = 30
CORPUS = Path(__file__).resolve().parent / "data" / "corpus.jsonl"


@dataclass
class Op:
    key: str
    args: tuple


def interior_class(model, c: int):
    a, lam = CANDIDATES[c]
    lat = model.lattice
    return lat.reference_class.scale(a) + lat.canonical_class.scale(lam)


def corner_key(model, subset, c: int) -> str:
    return "-".join(model.curves[i].label for i in subset) + f"/a{c}"


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def plain_class(vec) -> list[str]:
    return [str(x) for x in vec.coords]


def plain_certificate(cert) -> dict:
    """A certificate object as a JSON-shaped dict, built without the
    package's codec so that workloads which emit no documents stay so."""
    moves = []
    for m in cert.moves:
        kind = type(m).__name__
        if kind == "SmoothAndReinstate":
            moves.append({"op": "smooth", "constituents": list(m.constituent_ids),
                          "reinstate": list(m.reinstate_ids), "new_id": m.new_id})
        else:
            op = "inflate" if kind == "Inflate" else "inflate_nonneg"
            moves.append({"op": op, "object": m.object_id, "t": str(m.t)})
    doc = {"base_class": plain_class(cert.base_class), "moves": moves,
           "target_class": plain_class(cert.target_class)}
    if cert.annotations:
        doc["annotations"] = list(cert.annotations)
    return doc


def certificate_ok(ctx, model_name, doc, target, subset_labels) -> bool:
    """Independent replay passes, ends on the requested target, and the
    target vanishes on every curve of the corner."""
    lat = ctx.lattice(model_name)
    passed, _, _ = checker.check_certificate(ctx.model_docs[model_name], doc)
    if not passed:
        return False
    if [Fraction(x) for x in doc["target_class"]] != list(target.coords):
        return False
    return all(lat.pair(target.coords, lat.curves[label][0]) == 0 for label in subset_labels)


class SeededClasses:
    """The pool runs every target with every interior class; a pass runs
    every target once, with a seeded interior class, in seeded order.
    Subclasses build the ops with ``_ops(sc, choose)``, where ``choose()``
    gives the candidate indices to use for the next target."""

    def pool(self, sc):
        return self._ops(sc, lambda: range(len(CANDIDATES)))

    def setup(self, sc, seed):
        rng = random.Random(f"{self.name}:{seed}")
        ops = self._ops(sc, lambda: [rng.randrange(len(CANDIDATES))])
        rng.shuffle(ops)
        return ops


class KKCorners(SeededClasses):
    """Every KK curve subset of size <= 2: corner -> plan -> verify -> emit."""

    name = "kk-corners"
    model_name = "kk-extended"
    in_children = False

    def _ops(self, sc, choose):
        model = sc.builtin_model(self.model_name)
        return [Op(corner_key(model, s, c), (model, s, interior_class(model, c)))
                for s in KK_SUBSETS for c in choose()]

    def run(self, ctx, op):
        sc = ctx.sc
        model, subset, alpha = op.args
        corner = sc.corner_point(model, alpha, subset)
        cert = sc.plan(model, corner)
        report = sc.verify_certificate(cert)
        text = sc.canonical_json(sc.certificate_to_doc(cert, model_name=self.model_name))
        return corner, report, text

    def check(self, ctx, op, result):
        corner, report, text = result
        model, subset, _ = op.args
        labels = [model.curves[i].label for i in subset]
        ok = report.passed and certificate_ok(ctx, self.model_name, json.loads(text), corner, labels)
        return ok, text


def locus(size: int, j: int) -> tuple[int, ...]:
    return tuple(sorted(random.Random(f"kk-loci-pool:{size}:{j}").sample(range(21), size)))


class KKLoci(SeededClasses):
    """Fixed loci of 3..21 KK curves: decide definiteness, then plan an
    admissible corner or find a witness for each indefinite component."""

    name = "kk-loci"
    model_name = "kk-extended"
    in_children = False

    def _ops(self, sc, choose):
        model = sc.builtin_model(self.model_name)
        return [Op(f"n{size}.{j}/a{c}", (model, locus(size, j), interior_class(model, c)))
                for size in LOCUS_SIZES for j in range(LOCI_PER_SIZE) for c in choose()]

    def run(self, ctx, op):
        sc = ctx.sc
        model, curves, alpha = op.args
        descriptor = sc.descriptor_for(model, curves)
        if descriptor.admissible:
            corner = sc.corner_point(model, alpha, descriptor)
            outcome = sc.plan(model, corner)
            report = sc.verify_certificate(outcome) if isinstance(outcome, sc.Certificate) else None
            return descriptor, corner, outcome, report
        witnesses = [
            sc.component_obstruction(model, comp)
            for comp in sc.dual_graph(model, curves).components()
            if not sc.descriptor_for(model, comp).admissible
        ]
        return descriptor, None, witnesses, None

    def check(self, ctx, op, result):
        descriptor, corner, outcome, report = result
        model, curves, _ = op.args
        lat = ctx.lattice(self.model_name)
        labels = [model.curves[i].label for i in curves]
        truly = checker.negative_definite(checker.restricted_gram(lat, labels))
        if descriptor.admissible != truly:
            return False, canonical({"admissible": descriptor.admissible})
        if descriptor.admissible:
            if report is None:
                # a refusal is allowed by plan's contract; its digest shows any change
                out = {"admissible": True, "unsupported": outcome.reason}
                return bool(outcome.reason), canonical(out)
            doc = plain_certificate(outcome)
            ok = report.passed and certificate_ok(ctx, self.model_name, doc, corner, labels)
            return ok, canonical({"admissible": True, "certificate": doc})
        found = []
        ok = bool(outcome)
        for w in outcome:
            if not hasattr(w, "coefficients"):
                ok = False
                continue
            wl = [model.curves[i].label for i in w.indices]
            ok = ok and set(w.indices) <= set(curves) and checker.check_witness(
                lat, wl, [Fraction(c) for c in w.coefficients], w.square)
            found.append({"indices": list(w.indices), "coefficients": list(w.coefficients),
                          "square": str(w.square)})
        return ok, canonical({"admissible": False, "witnesses": found})


class CertReplay:
    """The committed corpus: parse, replay, emit the report."""

    name = "cert-replay"
    in_children = False

    def setup(self, sc, seed):
        ops = []
        with open(CORPUS, encoding="utf-8") as fh:
            for line in fh:
                entry = json.loads(line)
                ops.append(Op(entry["id"], (entry,)))
        random.Random(f"{self.name}:{seed}").shuffle(ops)
        return ops

    def run(self, ctx, op):
        sc = ctx.sc
        doc = sc.documents.load_json(op.args[0]["text"])
        report = sc.verify_certificate(sc.certificate_from_doc(doc))
        return report, sc.canonical_json(sc.report_to_doc(report))

    def check(self, ctx, op, result):
        report, text = result
        entry = op.args[0]
        ok = report.passed == entry["passed"] and report.first_failure == entry["first_failure"]
        doc = json.loads(entry["text"])
        model_doc = ctx.model_docs[doc["model"]] if isinstance(doc["model"], str) else doc["model"]
        passed, stage, _ = checker.check_certificate(model_doc, doc)
        ok = ok and passed == entry["passed"] and stage == entry["stage"]
        return ok, text


def cli_corners(sc):
    """Every kk-gamma0 corner, plus a fixed sample of kk-extended corners,
    as (model name, subset) pairs."""
    n = len(sc.builtin_model("kk-gamma0").curves)
    small = [(i,) for i in range(n)] + list(itertools.combinations(range(n), 2))
    wide = random.Random("cli-roundtrip-pool").sample(KK_SUBSETS, CLI_WIDE_CORNERS)
    return [("kk-gamma0", s) for s in small] + [("kk-extended", s) for s in wide]


class CliRoundTrip(SeededClasses):
    """`symcone plan` then `symcone verify`, one child process at a time."""

    name = "cli-roundtrip"
    in_children = True

    def _ops(self, sc, choose):
        models = {n: sc.builtin_model(n) for n in ("kk-gamma0", "kk-extended")}
        ops = []
        for name, subset in cli_corners(sc):
            model = models[name]
            for c in choose():
                target = sc.corner_point(model, interior_class(model, c), subset)
                ops.append(Op(f"{name}:{corner_key(model, subset, c)}", (name, subset, target, model)))
        return ops

    def run(self, ctx, op):
        name, _, target, _ = op.args
        cls = ",".join(str(x) for x in target.coords)
        plan = ctx.child(["plan", "--model", name, "--class", cls])
        path = ctx.tmp_dir / "certificate.txt"
        path.write_text(plan.stdout, encoding="utf-8")
        verify = ctx.child(["verify", str(path)])
        return plan, verify

    def check(self, ctx, op, result):
        plan, verify = result
        name, subset, target, model = op.args
        plan_json = trailer(plan.stdout)
        verify_json = trailer(verify.stdout)
        labels = [model.curves[i].label for i in subset]
        ok = (plan.returncode == 0 and verify.returncode == 0
              and json.loads(verify_json).get("passed") is True
              and certificate_ok(ctx, name, json.loads(plan_json), target, labels))
        return ok, plan_json + "\n" + verify_json


def trailer(stdout: str) -> str:
    lines = stdout.splitlines()
    if "---JSON---" not in lines:
        return "{}"
    return lines[len(lines) - 1 - lines[::-1].index("---JSON---") + 1]


WORKLOADS = {w.name: w for w in (KKCorners(), KKLoci(), CertReplay(), CliRoundTrip())}

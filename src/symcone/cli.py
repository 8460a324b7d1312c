"""Command-line front end.

Every subcommand prints a human-readable text report followed by the sentinel
line ``---JSON---`` and a canonical JSON trailer (sorted keys, no whitespace),
so output is both inspectable and machine-parseable.  File arguments accept
either a raw JSON document or a previously captured report; in the latter
case everything after the last sentinel line is used.

Exit codes: 0 success or verified, 1 verification failure, 2 malformed input,
out-of-domain request or any other package error, 3 plan unsupported.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import chambers, documents, models, perturb, planner
from .errors import (
    MalformedInputError,
    MoveError,
    NumericalFailureError,
    PropertyViolationError,
    SearchFailureError,
    SymconeError,
)
from .lattice import ClassVector, CurveModel
from .moves import describe_move, verify_certificate

SENTINEL = "---JSON---"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_MALFORMED = 2
EXIT_UNSUPPORTED = 3

_FAILURE_ERRORS = (PropertyViolationError, NumericalFailureError, MoveError)

# perturb solves every root of every model at every eps, and compares the
# roots of each eps pairwise: these caps bound that work
PERTURB_MAX_ORDER = 100
PERTURB_MAX_VALUES = 8


def _emit(lines, payload) -> None:
    for line in lines:
        print(line)
    print(SENTINEL)
    print(documents.canonical_json(payload))


def _strip_to_json(text: str) -> str:
    if SENTINEL in text.splitlines():
        lines = text.splitlines()
        cut = len(lines) - 1 - lines[::-1].index(SENTINEL)
        return "\n".join(lines[cut + 1 :])
    return text


def _read_json(path: str):
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from None
    return documents.load_json(_strip_to_json(raw), where=path)


def _load_model(spec: str) -> tuple[CurveModel, str | None]:
    """A registry name resolves to a built-in; anything else is a file path."""
    if spec in models.BUILTIN_MODEL_NAMES:
        return models.builtin_model(spec), spec
    # os.path.exists is False, not an error, for a name the file system refuses
    if not os.path.exists(spec):
        raise MalformedInputError(
            f"unknown model {spec!r}: not a built-in name "
            f"({', '.join(models.BUILTIN_MODEL_NAMES)}) and no such file"
        )
    return documents.model_from_doc(_read_json(spec), where=spec), None


def _split_parts(values) -> list[str]:
    parts: list[str] = []
    for value in values or ():
        parts.extend(p.strip() for p in value.split(",") if p.strip())
    return parts


def _parse_class(values, rank: int, flag: str) -> ClassVector:
    return documents.parse_class(_split_parts(values), rank, flag)


def _parse_curves(model: CurveModel, values, flag: str) -> tuple[int, ...]:
    labels = _split_parts(values)
    if not labels:
        raise MalformedInputError(f"{flag}: expected at least one curve label")
    return tuple(model.index_of(label) for label in labels)


def cmd_classify(args) -> int:
    model, _ = _load_model(args.model)
    alpha = _parse_class(args.class_parts, model.lattice.rank, "--class")
    result = chambers.classify(model, alpha)
    vanishing = [model.curves[i].label for i in result.descriptor.indices]
    pairings = {
        c.label: documents.format_rational(v, f"pairings.{c.label}")
        for c, v in zip(model.curves, result.pairings)
    }
    lines = [
        f"membership: {result.membership.value}",
        f"vanishing curves ({len(vanishing)}): {', '.join(vanishing) or '-'}",
        f"vanishing set admissible: {'yes' if result.descriptor.admissible else 'no'}",
        "pairings:",
    ]
    for label, value in pairings.items():
        lines.append(f"  {label} = {value}")
    payload = {
        "membership": result.membership.value,
        "vanishing": vanishing,
        "admissible": result.descriptor.admissible,
        "pairings": pairings,
    }
    _emit(lines, payload)
    return EXIT_PASS


def cmd_verify(args) -> int:
    cert = documents.certificate_from_doc(_read_json(args.certificate))
    report = verify_certificate(cert)
    _emit(str(report).splitlines(), documents.report_to_doc(report))
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_plan(args) -> int:
    model, name = _load_model(args.model)
    target = _parse_class(args.class_parts, model.lattice.rank, "--class")
    outcome = planner.plan(model, target)
    if isinstance(outcome, planner.Unsupported):
        lines = [f"unsupported: {outcome.reason}"]
        if outcome.witness is not None:
            labels = [model.curves[i].label for i in outcome.witness.indices]
            combo = " + ".join(
                f"{c}*{l}" for c, l in zip(outcome.witness.coefficients, labels)
            )
            square = documents.format_rational(outcome.witness.square, "witness square")
            lines.append(f"witness: ({combo}) has square {square} >= 0")
        if outcome.component is not None:
            labels = [model.curves[i].label for i in outcome.component]
            lines.append(f"component: {', '.join(labels)}")
        for key, value in outcome.detail:
            lines.append(f"{key}: {value}")
        _emit(lines, documents.unsupported_to_doc(outcome))
        return EXIT_UNSUPPORTED
    lines = [
        f"base class: {', '.join(documents.format_class(outcome.base_class, 'base_class'))}",
        "moves:",
    ]
    for i, move in enumerate(outcome.moves, start=1):
        lines.append(f"  {i}. {describe_move(move)}")
    if outcome.annotations:
        lines.append(f"annotations: {', '.join(outcome.annotations)}")
    lines.append("certificate verified: PASS")
    _emit(lines, documents.certificate_to_doc(outcome, model_name=name))
    return EXIT_PASS


def cmd_pair(args) -> int:
    model, _ = _load_model(args.model)
    rank = model.lattice.rank
    left = _parse_class(args.left, rank, "--left")
    right = _parse_class(args.right, rank, "--right")
    lat = model.lattice
    payload = {
        "pairing": documents.format_rational(lat.pair(left, right), "pairing"),
        "left_square": documents.format_rational(lat.square(left), "left_square"),
        "right_square": documents.format_rational(lat.square(right), "right_square"),
    }
    lines = [
        f"pairing: {payload['pairing']}",
        f"left square: {payload['left_square']}",
        f"right square: {payload['right_square']}",
    ]
    _emit(lines, payload)
    return EXIT_PASS


def cmd_reflect(args) -> int:
    model, _ = _load_model(args.model)
    rank = model.lattice.rank
    alpha = _parse_class(args.class_parts, rank, "--class")
    if args.curve is not None and args.axis:
        raise MalformedInputError("reflect takes --curve or --axis, not both")
    if args.curve is not None:
        axis = model.curve(args.curve).vector
    elif args.axis:
        axis = _parse_class(args.axis, rank, "--axis")
    else:
        raise MalformedInputError("reflect needs --curve or --axis")
    lat = model.lattice
    image = chambers.reflect(lat, alpha, axis)
    payload = {
        "reflected": documents.format_class(image, "reflected"),
        "square": documents.format_rational(lat.square(image), "square"),
    }
    lines = [
        f"reflected class: {', '.join(payload['reflected'])}",
        f"square preserved: {documents.format_rational(lat.square(alpha), 'square')}"
        f" -> {payload['square']}",
    ]
    _emit(lines, payload)
    return EXIT_PASS


def cmd_corner(args) -> int:
    model, _ = _load_model(args.model)
    alpha = _parse_class(args.class_parts, model.lattice.rank, "--class")
    indices = _parse_curves(model, args.curves, "--curves")
    corner = chambers.corner_point(model, alpha, indices)
    payload = {"corner": documents.format_class(corner, "corner")}
    lines = [f"corner class: {', '.join(payload['corner'])}"]
    if args.epsilon is not None:
        eps = documents.parse_rational(args.epsilon, "--epsilon")
        interior = chambers.chamber_point(model, corner, indices, eps)
        payload["chamber"] = documents.format_class(interior, "chamber")
        lines.append(f"chamber class: {', '.join(payload['chamber'])}")
    _emit(lines, payload)
    return EXIT_PASS


def cmd_dynkin(args) -> int:
    model, _ = _load_model(args.model)
    if args.curves:
        indices = _parse_curves(model, args.curves, "--curves")
    else:
        indices = tuple(range(len(model.curves)))
    graph = planner.dual_graph(model, indices)
    overall = planner.dynkin_classify(graph)
    lines = [f"selected curves: {len(graph.indices)}", f"overall: {overall.label}"]
    components = []
    for comp in graph.components():
        sub = planner.dual_graph(model, comp)
        kind = planner.dynkin_classify(sub)
        labels = [model.curves[i].label for i in comp]
        lines.append(f"component ({', '.join(labels)}): {kind.label}")
        components.append({"curves": labels, "label": kind.label})
    payload = {"overall": overall.label, "components": components}
    _emit(lines, payload)
    return EXIT_PASS


def cmd_example(args) -> int:
    name = args.name
    # a flag the chosen example does not read is refused, not ignored
    ruled = next((f for f, v in (("--genus", args.genus), ("--k", args.k), ("--parity", args.parity)) if v is not None), None)
    if ruled and name != "ruled":
        raise MalformedInputError(f"{ruled} is read only by example ruled")
    if args.certificate and name != "kk-gamma0":
        raise MalformedInputError("--certificate is only available for the kk-gamma0 example")
    if args.t_scale is not None and not args.certificate:
        raise MalformedInputError("--t-scale is read only with --certificate")
    if name == "ruled":
        if args.genus is None or args.k is None or args.parity is None:
            raise MalformedInputError("example ruled needs --genus, --k, --parity")
        wrapper = models.ruled_model(args.genus, args.k, args.parity)
        model = wrapper.model
        lines = [
            f"ruled model: base genus {args.genus}, section square {-args.k}, "
            f"{args.parity} parity",
        ]
        _emit(lines + [f"rank {model.lattice.rank}, {len(model.curves)} curve(s)"],
              documents.model_to_doc(model))
        return EXIT_PASS
    if args.certificate:
        t_scale = documents.parse_rational("1" if args.t_scale is None else args.t_scale, "--t-scale")
        cert = models.kk_gamma0_certificate(t_scale)
        lines = [
            f"inflation certificate on the kk-gamma0 model (t scale {t_scale}):",
        ]
        for i, move in enumerate(cert.moves, start=1):
            lines.append(f"  {i}. {describe_move(move)}")
        _emit(lines, documents.certificate_to_doc(cert, model_name="kk-gamma0"))
        return EXIT_PASS
    model = models.builtin_model(name)
    lines = [
        f"built-in model {name}: rank {model.lattice.rank}, "
        f"{len(model.curves)} curve(s)",
    ]
    _emit(lines, documents.model_to_doc(model))
    return EXIT_PASS


def _parse_model_spec(spec: str) -> perturb.LocalCurveModel:
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != 3:
        raise MalformedInputError(
            f"--model-spec {spec!r}: expected \"a,k,c\" for g(z) = a z^k + c z^(k+1)"
        )
    try:
        a = float(parts[0])
        k = int(parts[1])
        c = float(parts[2])
    except ValueError:
        raise MalformedInputError(f"--model-spec {spec!r}: numbers expected") from None
    if k > PERTURB_MAX_ORDER:
        raise MalformedInputError(f"--model-spec {spec!r}: order {k} exceeds {PERTURB_MAX_ORDER}")
    return perturb.LocalCurveModel(a, k, c)


def cmd_perturb(args) -> int:
    if not args.model_spec:
        raise MalformedInputError("perturb needs at least one --model-spec")
    if not args.eps:
        raise MalformedInputError("perturb needs at least one --eps")
    for flag, values in (("--model-spec", args.model_spec), ("--eps", args.eps)):
        if len(values) > PERTURB_MAX_VALUES:
            raise MalformedInputError(f"{flag}: at most {PERTURB_MAX_VALUES} values, got {len(values)}")
    eps_values = list(args.eps)
    repeated = next((e for i, e in enumerate(eps_values) if e in eps_values[:i]), None)
    if repeated is not None:
        raise MalformedInputError(f"--eps: {repeated!r} is given more than once")
    lab_models = [_parse_model_spec(s) for s in args.model_spec]
    lines: list[str] = []
    payload: dict = {"epsilons": eps_values, "radius": {}, "records": {}}
    solved = []  # each eps is solved once, for its table and the slope study
    for eps in eps_values:
        radius = perturb.r_epsilon(lab_models, eps)
        records = perturb.perturbed_intersections(lab_models, eps)
        solved.append(records)
        lines.append(f"eps = {eps:g}: localization radius {radius:.6g}, "
                     f"{len(records)} intersection(s)")
        lines.extend(perturb.intersection_table(eps, records))
        lines.append("")
        key = repr(eps)
        payload["radius"][key] = radius
        payload["records"][key] = [
            {
                "model": r.model_index,
                "root": r.root_index,
                "z": [r.point.real, r.point.imag],
                "distance": r.distance,
                "sign": r.sign,
            }
            for r in records
        ]
    if len(eps_values) >= 4:
        reports = perturb.order_of_contact_study(lab_models, eps_values, solved)
        payload["slopes"] = []
        for rep in reports:
            if rep.slope is None:
                lines.append(
                    f"model {rep.model_index}: no slope "
                    f"({rep.used} usable points, {rep.excluded} excluded)"
                )
            else:
                lines.append(
                    f"model {rep.model_index}: slope {rep.slope:.4f} "
                    f"(residual {rep.residual:.2e}, {rep.used} points, "
                    f"{rep.excluded} excluded)"
                )
            payload["slopes"].append(
                {
                    "model": rep.model_index,
                    "slope": rep.slope,
                    "residual": rep.residual,
                    "used": rep.used,
                    "excluded": rep.excluded,
                }
            )
    _emit(lines, payload)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcone",
        description="Exact chamber decompositions and replayable inflation "
        "certificates for curve configurations in 4-manifold lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def model_flag(p):
        p.add_argument(
            "--model",
            required=True,
            help="built-in model name or path to a model JSON document",
        )

    def class_flag(p, flag="--class", dest="class_parts", required=True):
        p.add_argument(
            flag,
            dest=dest,
            action="append",
            required=required,
            metavar="p/q[,p/q...]",
            help="class coordinates; repeat the flag or separate with commas",
        )

    p = sub.add_parser("classify", help="sort a class by its curve pairings")
    model_flag(p)
    class_flag(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("verify", help="replay a certificate and report a verdict")
    p.add_argument("certificate", help="path to a certificate JSON document")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("plan", help="search for a certificate reaching a target class")
    model_flag(p)
    class_flag(p)
    p.set_defaults(handler=cmd_plan)

    p = sub.add_parser("pair", help="intersection pairing of two classes")
    model_flag(p)
    class_flag(p, "--left", dest="left")
    class_flag(p, "--right", dest="right")
    p.set_defaults(handler=cmd_pair)

    p = sub.add_parser("reflect", help="reflect a class along a curve or axis")
    model_flag(p)
    class_flag(p)
    p.add_argument("--curve", help="label of a declared curve to reflect along")
    class_flag(p, "--axis", dest="axis", required=False)
    p.set_defaults(handler=cmd_reflect)

    p = sub.add_parser("corner", help="push a class onto a corner, optionally into its chamber")
    model_flag(p)
    class_flag(p)
    p.add_argument("--curves", action="append", required=True,
                   help="labels of the vanishing set, comma separated or repeated")
    p.add_argument("--epsilon", help="also emit an interior chamber point at this depth")
    p.set_defaults(handler=cmd_corner)

    p = sub.add_parser("dynkin", help="classify the dual graph of a curve subset")
    model_flag(p)
    p.add_argument("--curves", action="append",
                   help="labels to restrict to (default: all curves)")
    p.set_defaults(handler=cmd_dynkin)

    p = sub.add_parser("example", help="emit a built-in model or certificate document")
    p.add_argument("name", choices=models.BUILTIN_MODEL_NAMES + ("ruled",))
    p.add_argument("--genus", type=int, help="ruled: base genus")
    p.add_argument("--k", type=int, help="ruled: negative of the section square")
    p.add_argument("--parity", choices=("trivial", "nontrivial"), help="ruled: bundle parity")
    p.add_argument("--certificate", action="store_true",
                   help="kk-gamma0: emit the worked inflation certificate")
    p.add_argument("--t-scale", help="kk-gamma0 certificate scale (rational, default 1)")
    p.set_defaults(handler=cmd_example)

    p = sub.add_parser("perturb", help="run the local tangency perturbation lab")
    p.add_argument("--model-spec", action="append", metavar="a,k,c",
                   help="local model g(z) = a z^k + c z^(k+1); repeatable")
    p.add_argument("--eps", action="append", type=float,
                   help="perturbation size; four or more decreasing values "
                        "trigger the order-of-contact study")
    p.set_defaults(handler=cmd_perturb)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except SearchFailureError as exc:
        _emit([f"unsupported: {exc}"], {"error": str(exc)})
        return EXIT_UNSUPPORTED
    except _FAILURE_ERRORS as exc:
        _emit([f"failure: {exc}"], {"error": str(exc)})
        return EXIT_FAIL
    except SymconeError as exc:
        _emit([f"error: {exc}"], {"error": str(exc)})
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())

"""JSON document formats for models, certificates, and reports.

One canonical serialization: UTF-8 JSON with sorted keys and no whitespace,
rationals as "p/q" strings (plain "p" when integral), curve classes as plain
integers.  Parsing is strict: unknown keys, floats in coordinates, and
missing fields are rejected with a field-path diagnostic.  A document that
parses emits back byte-identically.  Numbers past the interpreter's digit
limit for integer conversion are rejected with their field path too.
Classes parse straight into their integer form, and are written from it.
A checked model is shared by content: a model document equal to one of the
16 latest distinct ones that passed is not checked again.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from math import lcm
from typing import Any, Mapping, Sequence

from . import models as models_mod
from .errors import DocumentError
from .lattice import ClassVector, CurveData, CurveModel, IntersectionLattice
from .linalg import format_rational
from .moves import (
    Certificate,
    Inflate,
    InflateNonneg,
    Move,
    SmoothAndReinstate,
    VerificationReport,
)

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class _LongInteger:
    """A JSON integer literal too long to convert, kept as a marker so that
    the field holding it is named where it is read."""

    def __init__(self, literal: str):
        self.digits = len(literal.lstrip("-"))

    def __repr__(self) -> str:
        return f"<integer of {self.digits} digits>"


def _parse_int(literal: str) -> int | _LongInteger:
    try:
        return int(literal)
    except ValueError:
        return _LongInteger(literal)


def _too_long(where: str) -> DocumentError:
    limit = sys.get_int_max_str_digits()
    return DocumentError(f"{where}: number exceeds the {limit}-digit integer limit")


def parse_rational(value: Any, where: str) -> Fraction:
    return Fraction(*_rational_pair(value, where))


def _rational_pair(value: Any, where: str) -> tuple[int, int]:
    """A rational entry as (numerator, denominator), the denominator
    positive and not yet reduced against the numerator."""
    if isinstance(value, str):
        match = _RATIONAL_RE.match(value)
        if match is None:
            raise DocumentError(f"{where}: {value!r} is not of the form \"p/q\"")
        numerator, denominator = match.groups("1")
        try:
            pair = int(numerator), int(denominator)
        except ValueError:
            raise _too_long(where) from None
        if not pair[1]:
            raise DocumentError(f"{where}: {value!r} has a zero denominator")
        return pair
    # bool is an int subclass; reject it before the int branch
    if isinstance(value, bool):
        raise DocumentError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, _LongInteger):
        raise _too_long(where)
    if isinstance(value, float):
        raise DocumentError(
            f"{where}: floats are not accepted in coordinates; write \"p/q\""
        )
    raise DocumentError(f"{where}: expected a rational, got {type(value).__name__}")


def format_class(vec: ClassVector, where: str = "class") -> list[str]:
    return list(vec.texts(where))


def parse_class(value: Any, rank: int, where: str) -> ClassVector:
    """A class parsed straight into its integer form: its "p/q" or integer
    entries over the lcm of their denominators."""
    if not isinstance(value, list):
        raise DocumentError(f"{where}: expected an array of rationals")
    if len(value) != rank:
        raise DocumentError(f"{where}: expected {rank} coordinates, got {len(value)}")
    pairs = [_rational_pair(v, f"{where}[{i}]") for i, v in enumerate(value)]
    d = lcm(*(q for _, q in pairs))
    terms = ((i, p * (d // q)) for i, (p, q) in enumerate(pairs))
    return ClassVector.from_integer_form(rank, d, terms)


def _require_keys(doc: Mapping, required: Sequence[str], optional: Sequence[str], where: str) -> None:
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected a JSON object")
    for key in required:
        if key not in doc:
            raise DocumentError(f"{where}: missing field {key!r}")
    allowed = set(required) | set(optional)
    for key in doc:
        if key not in allowed:
            raise DocumentError(f"{where}: unknown field {key!r}")


def _expect_int(value: Any, where: str) -> int:
    if isinstance(value, _LongInteger):
        raise _too_long(where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{where}: expected an integer")
    return value


def _expect_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise DocumentError(f"{where}: expected a string")
    return value


def model_to_doc(model: CurveModel) -> dict:
    lat = model.lattice
    doc: dict[str, Any] = {
        "rank": lat.rank,
        "gram": [[int(entry) for entry in row] for row in lat.gram],
        "labels": list(lat.basis_labels),
        "curves": [
            {
                "label": c.label,
                "class": [int(x) for x in c.vector.coords],
                "genus": c.genus,
            }
            for c in model.curves
        ],
        "completeness_assumed": model.completeness_assumed,
    }
    if lat.canonical_class is not None:
        doc["canonical"] = format_class(lat.canonical_class)
    if lat.reference_class is not None:
        doc["reference"] = format_class(lat.reference_class)
    return doc


# checked models by the canonical JSON text of their document, oldest first
_CHECKED_MODELS_BOUND = 16
_checked_models: dict[str, tuple[Any, CurveModel]] = {}


def model_from_doc(doc: Any, where: str = "model") -> CurveModel:
    """The checked model of a document, shared by equal documents.  A hit
    needs the same text (1, 1.0 and true differ) and equality with the text
    decoded (a tuple is not a list); only models that passed are kept."""
    try:
        key = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError, RecursionError):
        return _checked_model(doc, where)
    found = _checked_models.get(key)
    if found is not None and found[0] == doc:
        return found[1]
    model = _checked_model(doc, where)
    _checked_models[key] = (json.loads(key), model)
    if len(_checked_models) > _CHECKED_MODELS_BOUND:
        del _checked_models[next(iter(_checked_models))]
    return model


def _checked_model(doc: Any, where: str) -> CurveModel:
    _require_keys(
        doc,
        required=("rank", "gram", "labels", "curves", "completeness_assumed"),
        optional=("canonical", "reference"),
        where=where,
    )
    rank = _expect_int(doc["rank"], f"{where}.rank")
    if rank < 1:
        raise DocumentError(f"{where}.rank: must be positive")
    gram_doc = doc["gram"]
    if not isinstance(gram_doc, list) or len(gram_doc) != rank:
        raise DocumentError(f"{where}.gram: expected {rank} rows")
    for i, row in enumerate(gram_doc):
        if not isinstance(row, list) or len(row) != rank:
            raise DocumentError(f"{where}.gram[{i}]: expected {rank} integers")
        for j, v in enumerate(row):
            _expect_int(v, f"{where}.gram[{i}][{j}]")
    labels_doc = doc["labels"]
    if not isinstance(labels_doc, list) or len(labels_doc) != rank:
        raise DocumentError(f"{where}.labels: expected {rank} strings")
    labels = tuple(_expect_str(v, f"{where}.labels[{i}]") for i, v in enumerate(labels_doc))
    canonical = None
    if "canonical" in doc:
        canonical = parse_class(doc["canonical"], rank, f"{where}.canonical")
    reference = None
    if "reference" in doc:
        reference = parse_class(doc["reference"], rank, f"{where}.reference")
    lattice = IntersectionLattice(
        gram=gram_doc,
        basis_labels=labels,
        canonical_class=canonical,
        reference_class=reference,
    )
    curves_doc = doc["curves"]
    if not isinstance(curves_doc, list):
        raise DocumentError(f"{where}.curves: expected an array")
    curves = []
    for i, cdoc in enumerate(curves_doc):
        cwhere = f"{where}.curves[{i}]"
        _require_keys(cdoc, required=("label", "class", "genus"), optional=(), where=cwhere)
        vec = parse_class(cdoc["class"], rank, f"{cwhere}.class")
        if not vec.is_integral:
            raise DocumentError(f"{cwhere}.class: curve classes must be integral")
        curves.append(
            CurveData(
                label=_expect_str(cdoc["label"], f"{cwhere}.label"),
                vector=vec,
                genus=_expect_int(cdoc["genus"], f"{cwhere}.genus"),
            )
        )
    completeness = doc["completeness_assumed"]
    if not isinstance(completeness, bool):
        raise DocumentError(f"{where}.completeness_assumed: expected true or false")
    return CurveModel(
        lattice=lattice,
        curves=tuple(curves),
        completeness_assumed=completeness,
    )


def _move_to_doc(move: Move) -> dict:
    if isinstance(move, (Inflate, InflateNonneg)):
        return {"op": move.op, "object": move.object_id, "t": format_rational(move.t)}
    if isinstance(move, SmoothAndReinstate):
        return {
            "op": "smooth",
            "constituents": list(move.constituent_ids),
            "reinstate": list(move.reinstate_ids),
            "new_id": move.new_id,
        }
    raise DocumentError(f"unserializable move {move!r}")


def _str_list(value: Any, where: str) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise DocumentError(f"{where}: expected an array of strings")
    return tuple(_expect_str(v, f"{where}[{i}]") for i, v in enumerate(value))


def _move_from_doc(doc: Any, where: str) -> Move:
    if not isinstance(doc, dict) or "op" not in doc:
        raise DocumentError(f"{where}: expected an object with an \"op\" field")
    op = doc["op"]
    if op in ("inflate", "inflate_nonneg"):
        _require_keys(doc, required=("op", "object", "t"), optional=(), where=where)
        object_id = _expect_str(doc["object"], f"{where}.object")
        t = parse_rational(doc["t"], f"{where}.t")
        cls = Inflate if op == "inflate" else InflateNonneg
        return cls(object_id=object_id, t=t)
    if op == "smooth":
        _require_keys(
            doc,
            required=("op", "constituents", "reinstate", "new_id"),
            optional=(),
            where=where,
        )
        return SmoothAndReinstate(
            constituent_ids=_str_list(doc["constituents"], f"{where}.constituents"),
            reinstate_ids=_str_list(doc["reinstate"], f"{where}.reinstate"),
            new_id=_expect_str(doc["new_id"], f"{where}.new_id"),
        )
    raise DocumentError(f"{where}.op: unknown move kind {op!r}")


def certificate_to_doc(cert: Certificate, model_name: str | None = None) -> dict:
    """Serialize a certificate; the model is embedded inline unless a
    built-in registry name is supplied."""
    doc: dict[str, Any] = {
        "model": model_name if model_name is not None else model_to_doc(cert.model),
        "base_class": format_class(cert.base_class),
        "moves": [_move_to_doc(m) for m in cert.moves],
        "target_class": format_class(cert.target_class),
    }
    if cert.initial_object_ids is not None:
        doc["initial_objects"] = list(cert.initial_object_ids)
    if cert.annotations:
        doc["annotations"] = list(cert.annotations)
    return doc


def certificate_from_doc(doc: Any) -> Certificate:
    where = "certificate"
    _require_keys(
        doc,
        required=("model", "base_class", "moves", "target_class"),
        optional=("initial_objects", "annotations"),
        where=where,
    )
    model_doc = doc["model"]
    if isinstance(model_doc, str):
        model = models_mod.builtin_model(model_doc)
    else:
        model = model_from_doc(model_doc, where=f"{where}.model")
    rank = model.lattice.rank
    moves_doc = doc["moves"]
    if not isinstance(moves_doc, list):
        raise DocumentError(f"{where}.moves: expected an array")
    moves = tuple(
        _move_from_doc(m, f"{where}.moves[{i}]") for i, m in enumerate(moves_doc)
    )
    initial = None
    if "initial_objects" in doc:
        initial = _str_list(doc["initial_objects"], f"{where}.initial_objects")
    annotations = ()
    if "annotations" in doc:
        annotations = _str_list(doc["annotations"], f"{where}.annotations")
    return Certificate(
        model=model,
        base_class=parse_class(doc["base_class"], rank, f"{where}.base_class"),
        moves=moves,
        target_class=parse_class(doc["target_class"], rank, f"{where}.target_class"),
        initial_object_ids=initial,
        annotations=annotations,
    )


def load_json(text: str, where: str = "document") -> Any:
    try:
        try:
            return json.loads(text)
        except ValueError as exc:
            if isinstance(exc, json.JSONDecodeError):
                raise
            # an integer literal past the digit limit; parse again with markers
            return json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{where}: invalid JSON ({exc})") from None
    except RecursionError:
        raise DocumentError(f"{where}: invalid JSON (nested too deeply)") from None


def report_to_doc(report: VerificationReport) -> dict:
    doc: dict[str, Any] = {
        "passed": report.passed,
        "entries": list(report.entries),
    }
    if report.first_failure is not None:
        doc["first_failure"] = report.first_failure
    if report.final_class is not None:
        doc["final_class"] = format_class(report.final_class)
    return doc


def unsupported_to_doc(unsupported) -> dict:
    doc: dict[str, Any] = {"reason": unsupported.reason}
    if unsupported.witness is not None:
        doc["witness"] = {
            "indices": list(unsupported.witness.indices),
            "coefficients": [int(c) for c in unsupported.witness.coefficients],
            "square": format_rational(unsupported.witness.square),
        }
    if unsupported.component is not None:
        doc["component"] = list(unsupported.component)
    if unsupported.detail:
        doc["detail"] = {key: value for key, value in unsupported.detail}
    return doc

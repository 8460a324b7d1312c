"""JSON document codec: canonical form, rational grammar, model and
certificate round-trips, and the diagnostic field paths."""

import hashlib
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from symcone.documents import (
    canonical_json,
    certificate_from_doc,
    certificate_to_doc,
    format_class,
    format_rational,
    load_json,
    model_from_doc,
    model_to_doc,
    parse_class,
    parse_rational,
    report_to_doc,
    unsupported_to_doc,
)
from symcone import chambers, documents, linalg
from symcone.errors import DocumentError, RangeError
from symcone.lattice import ClassVector
from symcone.models import (
    BUILTIN_MODEL_NAMES,
    build_kk_model,
    builtin_model,
    e6_model,
    kk_gamma0_certificate,
)
from symcone.moves import Certificate, InflateNonneg, verify_certificate
from symcone.planner import Unsupported, plan


# ---------------------------------------------------------------------------
# scalars


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


@pytest.mark.parametrize("number", [float("nan"), float("inf"), float("-inf")])
def test_canonical_json_writes_no_non_finite_number(number):
    # NaN, Infinity and -Infinity are not JSON (RFC 8259)
    with pytest.raises(ValueError):
        canonical_json({"sign": number})
    assert canonical_json({"sign": 1.5}) == '{"sign":1.5}'


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-7, 3)) == "-7/3"
    assert format_rational(Fraction(2, 4)) == "1/2"
    assert format_rational(-12) == "-12"
    # one formatter, kept below the move engine and re-exported here
    assert format_rational is linalg.format_rational


def test_format_rational_names_an_overlong_output():
    huge = Fraction(10**5000, 7)
    with pytest.raises(RangeError, match=r"^pairing: output exceeds the \d+-digit integer limit$"):
        format_rational(huge, "pairing")
    with pytest.raises(RangeError, match=r"^output: output exceeds"):
        format_rational(Fraction(7, 10**5000))


def test_parse_rational_accepts():
    assert parse_rational(5, "x") == 5
    assert parse_rational("-7/3", "x") == Fraction(-7, 3)
    assert parse_rational("2/4", "x") == Fraction(1, 2)


# "\u0663" is ARABIC-INDIC DIGIT THREE and "\uff11/\uff12" is 1/2 in
# fullwidth digits: int() reads both, so the grammar must name ASCII digits
_NOT_ASCII = ("\u0663", "\uff11/\uff12", "3\n", "1/2\n")


@pytest.mark.parametrize("bad", [1.5, True, "1.5", "seven", "1/0", None, [1], *_NOT_ASCII])
def test_parse_rational_rejects(bad):
    with pytest.raises(DocumentError):
        parse_rational(bad, "x")


def test_parse_class_shape_errors():
    with pytest.raises(DocumentError, match="expected 3 coordinates"):
        parse_class(["1", "2"], 3, "v")
    with pytest.raises(DocumentError, match=r"v\[1\]"):
        parse_class(["1", 2.5, "3"], 3, "v")
    vec = parse_class(["1", "-1/2", 4], 3, "v")
    assert vec == ClassVector((Fraction(1), Fraction(-1, 2), Fraction(4)))
    assert format_class(vec) == ["1", "-1/2", "4"]


@settings(max_examples=300, deadline=None)
@given(st.integers(), st.integers(min_value=1), st.sampled_from(("area", "class")))
def test_format_ratio_writes_what_format_rational_writes(x, d, where):
    assert linalg.format_ratio(x, d, where) == format_rational(Fraction(x, d), where)


@pytest.mark.parametrize("where", ["area", "class"])
def test_format_ratio_names_an_overlong_output_as_format_rational_does(where):
    limit = sys.get_int_max_str_digits()
    for x, d in ((10**5000, 7), (-(10**5000) - 1, 3), (3, 10**5000 + 1)):
        with pytest.raises(RangeError) as old:
            format_rational(Fraction(x, d), where)
        with pytest.raises(RangeError) as new:
            linalg.format_ratio(x, d, where)
        assert str(new.value) == str(old.value)
        assert str(new.value) == f"{where}: output exceeds the {limit}-digit integer limit"
    # a common factor is divided out before anything is written
    assert linalg.format_ratio(10**5000, 10**5000, where) == "1"


def _parse_rational_by_fraction(value, where):
    """The rational grammar as parse_class applied it entry by entry before
    it parsed into integer form: the oracle for the integer path."""
    if isinstance(value, bool):
        raise DocumentError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, documents._LongInteger):
        limit = sys.get_int_max_str_digits()
        raise DocumentError(f"{where}: number exceeds the {limit}-digit integer limit")
    if isinstance(value, float):
        raise DocumentError(f"{where}: floats are not accepted in coordinates; write \"p/q\"")
    if isinstance(value, str):
        if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", value):
            raise DocumentError(f"{where}: {value!r} is not of the form \"p/q\"")
        numerator, _, denominator = value.partition("/")
        try:
            return Fraction(int(numerator), int(denominator or 1))
        except ZeroDivisionError:
            raise DocumentError(f"{where}: {value!r} has a zero denominator") from None
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise DocumentError(f"{where}: number exceeds the {limit}-digit integer limit") from None
    raise DocumentError(f"{where}: expected a rational, got {type(value).__name__}")


def _parse_class_by_fraction(value, where):
    return ClassVector(
        tuple(_parse_rational_by_fraction(v, f"{where}[{i}]") for i, v in enumerate(value))
    )


_SMALL = st.integers(min_value=-(10**6), max_value=10**6)
_TEXTS = st.one_of(
    _SMALL.map(str),
    st.tuples(_SMALL, st.integers(min_value=1, max_value=10**4)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.sampled_from(("-0", "0", "0/5", "4/2", "007/3", "-12/8")),
)
_ENTRIES = st.one_of(_SMALL, _TEXTS, st.just(0))
# mixed lists are read entry by entry; lists of strings are read whole first
_CLASSES = st.lists(_ENTRIES, min_size=1, max_size=12) | st.lists(_TEXTS, min_size=1, max_size=12)
_BAD_ENTRIES = (
    True,
    False,
    1.5,
    "1/0",
    "1.5",
    None,
    "9" * 5000,
    "1/" + "9" * 5000,
    load_json("[" + "9" * 5000 + "]")[0],  # the marker of an over-long literal
    *_NOT_ASCII,
    # a class of strings is matched whole, joined by commas: an entry that
    # holds a comma, or is empty, must not pass as two entries or none
    "1,2",
    "1,2/3",
    ",",
    "",
    # forms int() reads but the grammar refuses
    "+1",
    " 1",
    "1_0",
    "1//2",
    "/2",
    "1/",
    "--1",
)


@settings(max_examples=300, deadline=None)
@given(_CLASSES)
def test_parse_class_matches_the_fraction_parse(value):
    vec = parse_class(value, len(value), "v")
    assert vec.integer_form == _parse_class_by_fraction(value, "v").integer_form
    assert vec.rank == len(value)


@settings(max_examples=300, deadline=None)
@given(_CLASSES, st.data())
def test_parse_class_names_a_bad_entry_as_the_fraction_parse(value, data):
    index = data.draw(st.integers(min_value=0, max_value=len(value)))
    value = value[:index] + [data.draw(st.sampled_from(_BAD_ENTRIES))] + value[index:]
    with pytest.raises(DocumentError) as old:
        _parse_class_by_fraction(value, "v")
    with pytest.raises(DocumentError) as new:
        parse_class(value, len(value), "v")
    assert str(new.value) == str(old.value)
    assert str(new.value).startswith(f"v[{index}]: ")


def test_a_class_of_strings_names_each_bad_entry_as_the_fraction_parse():
    # the whole-class read of string entries hands every bad entry, wherever
    # it stands, to the entry-by-entry read that names it
    for bad in _BAD_ENTRIES:
        for value, index in (([bad], 0), (["1", "2/3", bad, "-4"], 2), (["7/3", bad], 1)):
            with pytest.raises(DocumentError) as old:
                _parse_class_by_fraction(value, "v")
            with pytest.raises(DocumentError) as new:
                parse_class(value, len(value), "v")
            assert str(new.value) == str(old.value)
            assert str(new.value).startswith(f"v[{index}]: ")


# ---------------------------------------------------------------------------
# models


def test_builtin_models_round_trip_byte_identical():
    for name in BUILTIN_MODEL_NAMES:
        model = builtin_model(name)
        text = canonical_json(model_to_doc(model))
        again = model_from_doc(load_json(text))
        assert canonical_json(model_to_doc(again)) == text


def test_builtin_models_round_trip_equal():
    for name in BUILTIN_MODEL_NAMES:
        model = builtin_model(name)
        assert model_from_doc(model_to_doc(model)) == model


def test_model_doc_entry_errors_keep_their_field_paths():
    # plain integers take a fast path; anything else is read field by field,
    # so the first bad entry is still named exactly
    doc = model_to_doc(e6_model())
    cases = [
        (("gram", 2, 3), True, "model.gram[2][3]: expected an integer"),
        (("gram", 0, 6), "1", "model.gram[0][6]: expected an integer"),
        (("gram", 6, 0), 1.0, "model.gram[6][0]: expected an integer"),
        (("curves", 4, "class", 5), False, "model.curves[4].class[5]: expected a rational, got a boolean"),
        (("curves", 0, "class", 0), 0.5,
         'model.curves[0].class[0]: floats are not accepted in coordinates; write "p/q"'),
        (("curves", 1, "class", 2), "1/3", "model.curves[1].class: curve classes must be integral"),
        (("reference", 1), "x", "model.reference[1]: 'x' is not of the form \"p/q\""),
    ]
    for path, value, message in cases:
        bad = json.loads(canonical_json(doc))
        *outer, last = path
        target = bad
        for key in outer:
            target = target[key]
        target[last] = value
        with pytest.raises(DocumentError) as info:
            model_from_doc(bad)
        assert str(info.value) == message
    # the earliest field wins when a row holds two bad entries
    bad = json.loads(canonical_json(doc))
    bad["gram"][1][4] = None
    bad["gram"][1][2] = 2.5
    with pytest.raises(DocumentError, match=r"^model\.gram\[1\]\[2\]: expected an integer$"):
        model_from_doc(bad)


def test_model_round_trip_preserves_structure():
    model = build_kk_model(extended=True)
    again = model_from_doc(model_to_doc(model))
    assert again.lattice.gram == model.lattice.gram
    assert again.lattice.basis_labels == model.lattice.basis_labels
    assert again.lattice.canonical_class == model.lattice.canonical_class
    assert again.lattice.reference_class == model.lattice.reference_class
    assert tuple(c.label for c in again.curves) == tuple(c.label for c in model.curves)
    assert again.completeness_assumed


def test_a_rank_one_model_document_round_trips():
    # the least rank a document may have: one (-2)-curve, no reference class
    doc = {
        "rank": 1, "gram": [[-2]], "labels": ["e"],
        "curves": [{"label": "C", "class": [1], "genus": 0}], "completeness_assumed": False,
    }
    model = model_from_doc(doc)
    assert model.lattice.rank == 1 and model.curve_gram() == ((-2,),)
    assert model_to_doc(model) == doc


def test_model_doc_diagnostics():
    doc = model_to_doc(e6_model())
    extra = dict(doc, color="blue")
    with pytest.raises(DocumentError, match="unknown field 'color'"):
        model_from_doc(extra)
    missing = {k: v for k, v in doc.items() if k != "gram"}
    with pytest.raises(DocumentError, match="missing field 'gram'"):
        model_from_doc(missing)
    short = dict(doc, gram=doc["gram"][:-1])
    with pytest.raises(DocumentError, match="expected 7 rows"):
        model_from_doc(short)
    bad_genus = json.loads(canonical_json(doc))
    bad_genus["curves"][0]["genus"] = 1.5
    with pytest.raises(DocumentError, match=r"curves\[0\].genus"):
        model_from_doc(bad_genus)
    fractional = json.loads(canonical_json(doc))
    fractional["curves"][0]["class"][1] = "1/2"
    with pytest.raises(DocumentError, match="must be integral"):
        model_from_doc(fractional)
    flag = dict(doc, completeness_assumed="yes")
    with pytest.raises(DocumentError, match="expected true or false"):
        model_from_doc(flag)


def _outcome(doc):
    try:
        return model_from_doc(doc)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _cold(doc):
    documents._checked_models.clear()
    return _outcome(doc)


def _warm(clean, doc):
    """The outcome for doc once an equal-looking clean document is shared,
    in model_to_doc's key order and in the canonical (sorted) order that a
    document decoded from canonical text has, so that a kept model can be
    found by a key that depends on key order."""
    documents._checked_models.clear()
    model_from_doc(clean)
    model_from_doc(json.loads(canonical_json(clean)))
    return _outcome(doc)


def _gamma0_doc():
    return model_to_doc(builtin_model("kk-gamma0"))


def _tuple_gram(doc):
    doc["gram"] = tuple(doc["gram"])


def _tuple_class(doc):
    doc["curves"][3]["class"] = tuple(doc["curves"][3]["class"])


def _float_entry(doc):
    doc["gram"][0][0] = float(doc["gram"][0][0])


def _int_flag(doc):
    doc["completeness_assumed"] = 1


def _fraction_entry(doc):
    doc["curves"][0]["class"][1] = Fraction(doc["curves"][0]["class"][1])


@pytest.mark.parametrize("mutate, message", [
    (_tuple_gram, "model.gram: expected 22 rows"),
    (_tuple_class, "model.curves[3].class: expected an array of rationals"),
    (_float_entry, "model.gram[0][0]: expected an integer"),
    (_int_flag, "model.completeness_assumed: expected true or false"),
    (_fraction_entry, "model.curves[0].class[1]: expected a rational, got Fraction"),
])
def test_shared_models_refuse_what_a_first_parse_refuses(mutate, message):
    # each of these encodes to the clean document's text or is not JSON
    bad = _gamma0_doc()
    mutate(bad)
    assert _cold(bad) == ("DocumentError", message)
    assert _warm(_gamma0_doc(), bad) == ("DocumentError", message)


def test_a_document_changed_after_its_parse_is_checked_again():
    documents._checked_models.clear()
    doc = _gamma0_doc()
    model = model_from_doc(doc)
    genus = doc["curves"][0]["genus"]
    doc["curves"][0]["genus"] = -1
    refusal = ("MalformedInputError", "model.curves[0].genus: genus of 'C1' must be a nonnegative integer")
    assert _outcome(doc) == refusal
    doc["curves"][0]["genus"] = genus
    assert model_from_doc(doc) is model


def _curve_field(index, key, value):
    return lambda doc: doc["curves"][index].__setitem__(key, value)


@pytest.mark.parametrize("mutate, refusal", [
    (lambda doc: doc["gram"][0].__setitem__(1, 1), ("ModelInconsistencyError", "m.gram: Gram matrix must be symmetric")),
    (lambda doc: doc["labels"].__setitem__(1, "w0"), ("MalformedInputError", "m.labels: basis labels must be distinct")),
    (lambda doc: doc.__setitem__("reference", ["0"] * 22),
     ("ModelInconsistencyError", "m.reference: reference class must have positive square")),
    (_curve_field(0, "genus", -1),
     ("MalformedInputError", "m.curves[0].genus: genus of 'C1' must be a nonnegative integer")),
    (_curve_field(1, "label", "C1"), ("ModelInconsistencyError", "m.curves: curve labels must be distinct")),
    (_curve_field(0, "class", [1] + [0] * 21),
     ("ModelInconsistencyError", "m.curves[0]: curve 'C1' has square 100; curves must have negative square")),
    (_curve_field(0, "genus", 5), ("ModelInconsistencyError", "m.curves[0]: curve 'C1' violates adjunction for genus 5")),
])
def test_model_constructor_refusals_name_their_field(mutate, refusal):
    # the lattice and model constructors refuse these; the document names
    # the part at fault and keeps the exception class
    documents._checked_models.clear()
    doc = _gamma0_doc()
    mutate(doc)
    with pytest.raises(Exception) as refused:
        model_from_doc(doc, where="m")
    assert (type(refused.value).__name__, str(refused.value)) == refusal


def test_equal_documents_share_one_model():
    documents._checked_models.clear()
    first = model_from_doc(_gamma0_doc())
    assert model_from_doc(_gamma0_doc(), where="elsewhere") is first
    # the same document in sorted key order has other marshal bytes
    reordered = model_from_doc(json.loads(canonical_json(_gamma0_doc())))
    assert reordered == first and reordered is not first
    assert len(documents._checked_models) == 2


def test_a_failing_document_is_not_kept():
    documents._checked_models.clear()
    bad = _gamma0_doc()
    bad["completeness_assumed"] = "yes"
    for _ in range(2):
        with pytest.raises(DocumentError, match=r"^m: completeness_assumed|^m\.completeness_assumed"):
            model_from_doc(bad, where="m")
    assert documents._checked_models == {}


def test_shared_models_stay_within_their_bound():
    documents._checked_models.clear()
    bound = documents._CHECKED_MODELS_BOUND
    docs = []
    for k in range(bound + 4):
        doc = model_to_doc(e6_model())
        doc["labels"][0] = f"basis-{k}"
        docs.append(doc)
        model_from_doc(doc)
        assert len(documents._checked_models) <= bound
    latest = model_from_doc(docs[-1])
    assert model_from_doc(docs[-1]) is latest
    oldest = model_from_doc(docs[0])  # evicted, so checked and kept anew
    assert oldest.lattice.basis_labels[0] == "basis-0"
    assert len(documents._checked_models) == bound


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


_REPLACEMENTS = (0, 1, -1, 2, 1.0, -1.0, True, False, None, "x", "1", "1/2", "0",
                 Fraction(1), Fraction(-1, 2), [], {}, "as tuple", "as list")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(BUILTIN_MODEL_NAMES), st.data())
def test_one_field_mutations_parse_alike_warm_and_cold(name, data):
    clean = model_to_doc(builtin_model(name))
    paths = list(_paths(clean))[1:]
    arrays = [p for p in paths if isinstance(_at(clean, p), list)]
    # half the draws turn an array into a tuple, which encodes as the array
    path = data.draw(st.sampled_from(arrays) | st.sampled_from(paths))
    value = data.draw(st.just("as tuple") | st.sampled_from(_REPLACEMENTS))
    bad = json.loads(canonical_json(clean))
    *outer, last = path
    target = _at(bad, outer)
    current = target[last]
    if value == "as tuple":
        value = tuple(current) if isinstance(current, list) else current
    elif value == "as list":
        value = [current]
    target[last] = value
    cold = _cold(bad)
    assert _warm(clean, bad) == cold


# ---------------------------------------------------------------------------
# certificates


def test_certificate_inline_round_trip():
    cert = kk_gamma0_certificate()
    text = canonical_json(certificate_to_doc(cert))
    again = certificate_from_doc(load_json(text))
    assert canonical_json(certificate_to_doc(again)) == text
    assert verify_certificate(again).passed


def test_certificate_named_model():
    cert = kk_gamma0_certificate()
    doc = certificate_to_doc(cert, model_name="kk-gamma0")
    assert doc["model"] == "kk-gamma0"
    assert doc["annotations"] == ["iterated-disjoin"]
    again = certificate_from_doc(doc)
    assert verify_certificate(again).passed


def test_certificate_optional_keys():
    model = e6_model()
    base = model.lattice.reference_class
    cert = Certificate(
        model=model,
        base_class=base,
        moves=(InflateNonneg("blowup", Fraction(1, 2)),),
        target_class=base,
        initial_object_ids=("e1", "e2"),
    )
    doc = certificate_to_doc(cert)
    assert doc["initial_objects"] == ["e1", "e2"]
    assert "annotations" not in doc
    assert doc["moves"] == [{"op": "inflate_nonneg", "object": "blowup", "t": "1/2"}]
    again = certificate_from_doc(doc)
    assert again.initial_object_ids == ("e1", "e2")
    assert again.moves == cert.moves


_KK = builtin_model("kk-extended")


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=4, unique=True),
    st.sampled_from((None, "kk-extended")),
)
def test_parsed_certificates_emit_back_byte_identically(subset, model_name):
    """A kk-extended plan certificate, with its model inline or named, parses
    and emits back to the same text."""
    subset = tuple(sorted(subset))
    if not chambers.descriptor_for(_KK, subset).admissible:
        return
    alpha = ClassVector.basis(_KK.lattice.rank, 0) + _KK.lattice.canonical_class
    cert = plan(_KK, chambers.corner_point(_KK, alpha, subset))
    if not isinstance(cert, Certificate):
        return
    text = canonical_json(certificate_to_doc(cert, model_name))
    again = certificate_from_doc(load_json(text))
    assert canonical_json(certificate_to_doc(again, model_name)) == text


def test_certificate_doc_diagnostics():
    doc = certificate_to_doc(kk_gamma0_certificate())
    bad_op = json.loads(canonical_json(doc))
    bad_op["moves"][2]["op"] = "deflate"
    with pytest.raises(DocumentError, match=r"moves\[2\]"):
        certificate_from_doc(bad_op)
    bad_coord = json.loads(canonical_json(doc))
    bad_coord["base_class"][0] = 1.0
    with pytest.raises(DocumentError, match=r"base_class\[0\]"):
        certificate_from_doc(bad_coord)
    for entry in _NOT_ASCII:
        bad_digits = json.loads(canonical_json(doc))
        bad_digits["base_class"][0] = entry
        message = f"certificate.base_class[0]: {entry!r} is not of the form \"p/q\""
        with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
            certificate_from_doc(bad_digits)
    with pytest.raises(DocumentError, match="unknown field"):
        certificate_from_doc(dict(doc, proof="trust me"))
    unknown = {"model": "nope", "base_class": [], "moves": [], "target_class": []}
    with pytest.raises(DocumentError, match=r"^certificate\.model: unknown built-in model 'nope'; choices: "):
        certificate_from_doc(unknown)


def test_load_json_diagnostics():
    with pytest.raises(DocumentError, match="invalid JSON"):
        load_json('{"a": 1')
    assert load_json('{"a": 1}') == {"a": 1}


@pytest.mark.parametrize("text", [
    "[" * 1000 + "]" * 1000,
    "[" * 100_000 + "]" * 100_000,
    '{"a":' * 5000 + "1" + "}" * 5000,
])
def test_load_json_refuses_deep_nesting(text):
    with pytest.raises(DocumentError, match=r"^cert\.json: invalid JSON \(nested too deeply\)$"):
        load_json(text, where="cert.json")


def test_load_json_names_a_syntax_error_after_an_overlong_number():
    # the overlong literal sends the text to a second parse, which then fails
    with pytest.raises(DocumentError, match=r"^document: invalid JSON \(Expecting value"):
        load_json("[" + "9" * 5000 + ", }")


def test_overlong_numbers_name_their_field():
    long = "9" * 5000
    with pytest.raises(DocumentError, match=r"^t: number exceeds the \d+-digit integer limit$"):
        parse_rational(long + "/7", "t")
    doc = load_json(json.dumps(model_to_doc(e6_model())).replace("100", long, 1))
    with pytest.raises(DocumentError, match=r"^model\.gram\[0\]\[0\]: number exceeds"):
        model_from_doc(doc)


# ---------------------------------------------------------------------------
# reports and refusals


def test_report_doc_shape():
    report = verify_certificate(kk_gamma0_certificate())
    doc = report_to_doc(report)
    assert doc["passed"] is True
    assert doc["entries"][-1] == "annotation: iterated-disjoin"
    assert str(report).endswith("verdict: PASS")
    assert "first_failure" not in doc
    assert doc["final_class"][0] == "1"


BENCH_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def test_corpus_reports_match_the_benchmark_reference():
    """Byte-identical reports: each of the 160 certificate documents of the
    benchmark corpus, parsed and replayed, gives its recorded verdict and
    first failure, and its canonical report hashes to the recorded digest."""
    digests = json.loads((BENCH_DATA / "reference.json").read_text(encoding="utf-8"))["digests"]["cert-replay"]
    lines = (BENCH_DATA / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(digests) == 160
    for line in lines:
        entry = json.loads(line)
        report = verify_certificate(certificate_from_doc(load_json(entry["text"])))
        assert (report.passed, report.first_failure) == (entry["passed"], entry["first_failure"]), entry["id"]
        text = canonical_json(report_to_doc(report))
        assert hashlib.sha256(text.encode()).hexdigest() == digests[entry["id"]], entry["id"]


def test_unsupported_doc_shape():
    model = build_kk_model(extended=True)
    omega0 = ClassVector.basis(22, 0)
    result = plan(model, omega0)
    assert isinstance(result, Unsupported)
    doc = unsupported_to_doc(result)
    assert doc["witness"]["coefficients"] == [1] * 21
    assert doc["witness"]["square"] == "33"
    assert len(doc["component"]) == 21
    json.loads(canonical_json(doc))  # serializable as-is

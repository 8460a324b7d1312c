"""The package's records derive from lattice.Frozen, which keeps the
semantics of a frozen dataclass without importing dataclasses: equality
within one class, hashing of the field tuple, the Qualname(field=value, ...)
repr, refused assignment, and replace running every check again."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from symcone import chambers, replace
from symcone.documents import certificate_from_doc, load_json, model_from_doc, model_to_doc
from symcone.errors import MalformedInputError
from symcone.lattice import ClassVector, CurveData
from symcone.models import build_kk_model
from symcone.moves import (
    Certificate,
    ConfigurationState,
    Inflate,
    InflateNonneg,
    SurfaceObject,
    smooth_and_reinstate,
    verify_certificate,
)
from symcone.planner import Unsupported, Witness, plan

from oracles import chain_model, interior_class, plain_pair, random_curve_model, twisted_curve_model

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "corpus.jsonl"


def test_records_of_two_classes_never_compare_equal():
    assert Inflate("C1", 1) != InflateNonneg("C1", 1)
    assert Inflate("C1", 1) == Inflate(object_id="C1", t=Fraction(1))
    assert Inflate("C1", 1).__eq__(("C1", 1)) is NotImplemented


def test_equal_records_hash_equal():
    a, b = Inflate("C1", Fraction(1, 2)), Inflate(t=Fraction(2, 4), object_id="C1")
    assert a == b and hash(a) == hash(b) == hash(("C1", Fraction(1, 2)))
    assert len({a, b, InflateNonneg("C1", Fraction(1, 2))}) == 2


def test_records_refuse_assignment_and_deletion():
    move = Inflate("C1", 1)
    with pytest.raises(AttributeError):
        move.t = 2
    with pytest.raises(AttributeError):
        del move.t
    with pytest.raises(AttributeError):
        move.colour = "red"
    assert move.t == 1 and vars(move) == {"object_id": "C1", "t": 1}


@pytest.mark.parametrize("args, kwargs", [
    (("C1",), {}),
    ((), {"t": 1}),
    (("C1", 1, 2), {}),
    (("C1",), {"object_id": "C2", "t": 1}),
    (("C1", 1), {"colour": "red"}),
    (("C1",), {"colour": "red"}),
])
def test_a_missing_or_unknown_argument_raises_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Inflate(*args, **kwargs)


def test_fields_are_the_annotated_names_and_defaults_fill_them():
    assert ClassVector._fields == ("rank", "integer_form")  # _gram_product is no field
    assert "_report" not in Certificate._fields
    assert Unsupported("r") == Unsupported(reason="r", witness=None, component=None, detail=())


def test_reprs_read_as_before():
    witness = Witness(indices=(0, 1), coefficients=(1, 1), square=Fraction(0))
    assert repr(witness) == "Witness(indices=(0, 1), coefficients=(1, 1), square=Fraction(0, 1))"
    refusal = Unsupported("no base scale", component=(2,), detail=(("a", "b"),))
    assert repr(refusal) == (
        "Unsupported(reason='no base scale', witness=None, component=(2,), detail=(('a', 'b'),))"
    )


def test_replace_runs_the_checks_again():
    curve = CurveData("E", ClassVector((0, 1)), 0)
    assert replace(curve, genus=1) == CurveData("E", ClassVector((0, 1)), 1)
    with pytest.raises(MalformedInputError):
        replace(curve, genus=-1)
    with pytest.raises(TypeError):
        replace(curve, colour="red")



# fields refused with the part a document names them by


@pytest.mark.parametrize("fields, part", [
    ({"label": 5}, "label"),
    ({"genus": True}, "genus"),
    ({"genus": -1}, "genus"),
])
def test_a_curve_refuses_an_ill_typed_field(fields, part):
    with pytest.raises(MalformedInputError) as caught:
        CurveData(**{"label": "E", "vector": ClassVector((0, 1)), "genus": 0, **fields})
    assert caught.value.part == part


@pytest.mark.parametrize("fields, part", [
    ({"id": 5}, "id"),
    ({"id": ("E",)}, "id"),
    ({"genus": False}, "genus"),
])
def test_a_surface_object_refuses_an_ill_typed_field(fields, part):
    with pytest.raises(MalformedInputError) as caught:
        SurfaceObject(**{"id": "E", "vector": ClassVector((0, 1)), "genus": 0, **fields})
    assert caught.value.part == part


def test_a_model_document_names_a_curve_label_that_is_no_string():
    doc = model_to_doc(build_kk_model(extended=False))
    doc["curves"][0]["label"] = 5
    with pytest.raises(MalformedInputError, match=r"^model\.curves\[0\]\.label: expected a string$"):
        model_from_doc(doc)


def test_a_smoothing_refuses_a_new_id_that_is_no_string():
    model = build_kk_model(extended=False)
    state = ConfigurationState.seeded(model, ClassVector.basis(model.lattice.rank, 0))
    with pytest.raises(MalformedInputError, match="^new_id: expected a string$"):
        smooth_and_reinstate(state, [model.curves[0].label], [], 5)


# records built unchecked (Frozen._unchecked) are the records their checking
# constructor makes of the same fields


def _as_checked(record) -> None:
    """record equals its copy by the checking constructor, field types
    included; a certificate's moves are compared too."""
    copy = replace(record)
    assert copy == record
    assert [type(getattr(copy, f)) for f in copy._fields] == [type(getattr(record, f)) for f in record._fields]
    for move in getattr(record, "moves", ()):
        _as_checked(move)


def _replayed_as_checked(cert: Certificate) -> None:
    """The certificate, its moves, and every object a replay of it makes."""
    _as_checked(cert)
    for record in verify_certificate(cert).records:
        for obj in () if record.after is None else record.after.objects:
            _as_checked(obj)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(("random", "twisted", "chain")))
def test_planned_records_equal_their_checked_copies(seed, kind):
    """plan's certificates and classify's classification at the corner of
    a random subset of the curves, which is empty (an interior target), one
    curve or several (the peel), on random and twisted models and on runs
    of chains."""
    rng = random.Random(seed)
    if kind == "chain":
        model = chain_model([-rng.randint(2, 5) for _ in range(rng.randint(1, 8))])
    else:
        model = (twisted_curve_model if kind == "twisted" else random_curve_model)(rng, 6)
    lat = model.lattice
    alpha = interior_class(model, rng)
    while plain_pair(lat, alpha, alpha) <= 0:
        alpha = alpha + lat.reference_class
    n = len(model.curves)
    # a run of two or more curves of a chain is connected, so it is peeled
    # into smoothings
    start = rng.randrange(n)
    subset = range(start, rng.randint(min(start + 2, n), n)) if kind == "chain" else rng.sample(range(n), rng.randint(0, n))
    target = chambers.corner_point(model, alpha, list(subset)) if subset else alpha
    _as_checked(chambers.classify(model, target))
    cert = plan(model, target)
    if isinstance(cert, Certificate):
        _replayed_as_checked(cert)


def test_corpus_records_equal_their_checked_copies():
    lines = CORPUS.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 160
    for line in lines:
        _replayed_as_checked(certificate_from_doc(load_json(json.loads(line)["text"])))

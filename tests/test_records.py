"""The package's records derive from lattice.Frozen, which keeps the
semantics of a frozen dataclass without importing dataclasses: equality
within one class, hashing of the field tuple, the Qualname(field=value, ...)
repr, refused assignment, and replace running every check again."""

from fractions import Fraction

import pytest

from symcone import replace
from symcone.errors import MalformedInputError
from symcone.lattice import ClassVector, CurveData
from symcone.moves import Certificate, Inflate, InflateNonneg
from symcone.planner import Unsupported, Witness


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


"""Built-in model builders: ruled surfaces, dual Hesse, the 21-curve lattice,
the four-curve path sub-model, and the E6 fixture."""

from symcone import replace
from collections import Counter
from fractions import Fraction

import pytest

from symcone import models
from symcone.errors import (
    MalformedInputError,
    ModelInconsistencyError,
    PreconditionError,
)
from symcone.lattice import ClassVector
from symcone.models import (
    GAMMA0_GRAM,
    TRIPLES,
    build_hesse_dual,
    build_kk_model,
    builtin_model,
    BUILTIN_MODEL_NAMES,
    e6_model,
    kk_gamma0_certificate,
    kk_gamma0_model,
    ruled_inflation_interval,
    ruled_model,
    ruled_symplectic_predicate,
)
from symcone.moves import Inflate, h_param, verify_certificate


# ---------------------------------------------------------------------------
# ruled models


def test_ruled_model_validation():
    with pytest.raises(MalformedInputError):
        ruled_model(0, 0, "trivial")
    with pytest.raises(MalformedInputError):
        ruled_model(-1, 1, "nontrivial")
    with pytest.raises(MalformedInputError):
        ruled_model(0, 1, "odd")
    # parity must match the section square
    with pytest.raises(ModelInconsistencyError):
        ruled_model(0, 2, "nontrivial")
    with pytest.raises(ModelInconsistencyError):
        ruled_model(1, 3, "trivial")


def test_ruled_model_shape():
    rm = ruled_model(2, 4, "trivial")
    lat = rm.model.lattice
    assert lat.gram == ((4, 0), (0, -4))
    section = rm.model.curve("s-")
    assert section.genus == 2
    assert lat.square(section.vector) == -4
    fiber = rm.fiber_class
    assert lat.square(fiber) == 0
    assert lat.pair(fiber, ClassVector.basis(2, 0)) == 1
    assert lat.pair(fiber, section.vector) == 1


def test_ruled_predicate_sphere_nontrivial():
    rm = ruled_model(0, 1, "nontrivial")
    assert ruled_symplectic_predicate(rm, ClassVector((Fraction(3), Fraction(-1))))
    # the wall c-(k+1) < c+(k-1) collapses to c- < 0 when k=1
    assert not ruled_symplectic_predicate(rm, ClassVector((Fraction(3), Fraction(1))))
    assert not ruled_symplectic_predicate(rm, ClassVector((Fraction(1), Fraction(-2))))


def test_ruled_predicate_positive_base():
    rm = ruled_model(2, 2, "trivial")
    assert ruled_symplectic_predicate(rm, ClassVector((Fraction(3), Fraction(2))))
    assert ruled_symplectic_predicate(rm, ClassVector((Fraction(3), Fraction(-2))))
    assert not ruled_symplectic_predicate(rm, ClassVector((Fraction(2), Fraction(2))))
    assert not ruled_symplectic_predicate(rm, ClassVector((Fraction(-3), Fraction(1))))


def test_ruled_interval_spot_value():
    rm = ruled_model(0, 1, "nontrivial")
    assert ruled_inflation_interval(rm, 1) == (0, 1)
    assert ruled_inflation_interval(rm, Fraction(5, 2)) == (0, Fraction(5, 2))
    with pytest.raises(PreconditionError):
        ruled_inflation_interval(rm, 0)


def test_ruled_interval_matches_h_param_exhaustively():
    for g in range(3):
        for k in range(1, 7):
            parity = "nontrivial" if k % 2 == 1 else "trivial"
            rm = ruled_model(g, k, parity)
            for a in range(1, 6):
                lo, hi = ruled_inflation_interval(rm, a)
                assert lo == 0
                assert hi == Fraction(2 * a, h_param(k, g))


# ---------------------------------------------------------------------------
# dual Hesse arrangement


def test_triples_combinatorics():
    for digit in "123456789":
        assert sum(1 for t in TRIPLES if digit in t) == 4
    for i in "123456789":
        for j in "123456789":
            if i < j:
                assert sum(1 for t in TRIPLES if i in t and j in t) == 1


def test_hesse_curves():
    model = build_hesse_dual()
    lat = model.lattice
    assert len(model.curves) == 9
    for c in model.curves:
        assert lat.square(c.vector) == -3
        assert c.genus == 0
        # adjunction: square + K-pairing = 2g - 2
        assert lat.pair(lat.canonical_class, c.vector) == 1
    for a in range(9):
        for b in range(a + 1, 9):
            assert lat.pair(model.curves[a].vector, model.curves[b].vector) == 0


def _slipped_triples():
    """TRIPLES with one digit of one triple replaced by a digit not in it
    (12 triples, 3 places, 6 digits: 216 slips), with the triple's index and
    the old and new digit."""
    for i, t in enumerate(TRIPLES):
        for p, old in enumerate(t):
            for new in "123456789":
                if new not in t:
                    yield TRIPLES[:i] + (t[:p] + new + t[p + 1 :],) + TRIPLES[i + 1 :], i, old, new


def test_every_single_digit_slip_in_triples_is_refused_by_build_hesse_dual(monkeypatch):
    # the slipped triple puts the new digit with two others, each of which
    # already shares a triple with it, so L_new meets one of them at 1 - 2 = -1
    slips = list(_slipped_triples())
    assert len(slips) == 216
    for triples, _, _, new in slips:
        monkeypatch.setattr(models, "TRIPLES", triples)
        with pytest.raises(ModelInconsistencyError, match="^curves 'L.' and 'L.' pair negatively$") as refused:
            build_hesse_dual()
        assert f"'L{new}'" in str(refused.value)


def test_triples_without_the_last_triple_are_refused_by_the_hesse_gram_check(monkeypatch):
    # L7, L8 and L9 then lie in 3 triples, so their square is -2; the model's
    # own checks pass, since L^2 + K.L = -2 and no two lines meet negatively
    monkeypatch.setattr(models, "TRIPLES", TRIPLES[:-1])
    with pytest.raises(ModelInconsistencyError, match="^strict transform Gram is not -3 I$"):
        build_hesse_dual()


# ---------------------------------------------------------------------------
# 21-curve lattice


def test_kk_canonical_invariants():
    kk = build_kk_model()
    lat = kk.lattice
    kclass = lat.canonical_class
    assert lat.square(kclass) == 333
    for c in kk.curves:
        expected = 9 if c.label.startswith("C") else 3
        assert lat.pair(kclass, c.vector) == expected
        assert c.genus == (4 if c.label.startswith("C") else 2)


@pytest.mark.parametrize("slip", ["square of C1", "K on C1"])
def test_kk_data_slips_fail_the_model_adjunction_check(monkeypatch, slip):
    # C1 of square -2, or K with 8/3 in place of 7/3 on C1, breaks
    # C1^2 + K.C1 = 2g - 2; the model's adjunction check, which build_kk_model
    # relies on for K.C = 9 and K.D = 3, reports it
    build = models._kk_lattice_and_curves

    def slipped(extended):
        lattice, curves = build(extended)
        gram = [list(row) for row in lattice.gram]
        k = list(lattice.canonical_class.coords)
        if slip == "square of C1":
            gram[0][0] = -2
        else:
            k[0] = Fraction(8, 3)
        return replace(lattice, gram=gram, canonical_class=ClassVector(k)), curves

    monkeypatch.setattr(models, "_kk_lattice_and_curves", slipped)
    with pytest.raises(ModelInconsistencyError, match="^curve 'C1' violates adjunction for genus 4$"):
        build_kk_model()


def test_every_single_digit_slip_in_triples_fails_the_kk_adjunction_check(monkeypatch):
    # the old digit's C curve meets 3 D curves and the new one's 5, so
    # K.C = -7 + 4 * 3 or -7 + 4 * 5, not 9; each D curve still meets 3 C
    # curves.  So adjunction asserts the meet counts and K^2 = 333.
    for triples, _, old, new in _slipped_triples():
        monkeypatch.setattr(models, "TRIPLES", triples)
        with pytest.raises(
            ModelInconsistencyError, match=f"^curve 'C{min(old, new)}' violates adjunction for genus 4$"
        ):
            build_kk_model(True)


def test_kk_incidence():
    model = build_kk_model()
    lat = model.lattice
    cs = model.curves[:9]
    ds = model.curves[9:]
    assert len(ds) == 12
    for i, c in enumerate(cs):
        for d in ds:
            want = 1 if str(i + 1) in d.label[1:] else 0
            assert lat.pair(c.vector, d.vector) == want


def test_kk_extended_reference():
    kk = build_kk_model(extended=True)
    lat = kk.lattice
    w0 = lat.reference_class
    assert lat.square(w0) == 100
    for c in kk.curves:
        assert lat.pair(w0, c.vector) == 0


def test_gamma0_model_gram():
    model = kk_gamma0_model()
    assert model.lattice.rank == 22
    assert tuple(c.label for c in model.curves) == ("C1", "D123", "C2", "D249")
    assert model.curve_gram() == GAMMA0_GRAM


def test_sixteen_single_digit_slips_change_only_the_kk_gamma0_path_gram(monkeypatch):
    # a slip moving C1 or C2 fails their adjunction check; one that renames
    # D123 or D249 otherwise leaves a path of three curves
    outcomes = Counter()
    for triples, i, old, new in _slipped_triples():
        monkeypatch.setattr(models, "TRIPLES", triples)
        if {old, new} & {"1", "2"}:
            expected = "violates adjunction for genus 4$"
        elif TRIPLES[i] in ("123", "249"):
            expected = "^path sub-model Gram does not match$"
        else:
            assert kk_gamma0_model().curve_gram() == GAMMA0_GRAM
            outcomes["built"] += 1
            continue
        with pytest.raises(ModelInconsistencyError, match=expected):
            kk_gamma0_model()
        outcomes[expected] += 1
    assert outcomes == {
        "violates adjunction for genus 4$": 90,
        "^path sub-model Gram does not match$": 16,
        "built": 110,
    }


# ---------------------------------------------------------------------------
# the replay certificate


def test_gamma0_certificate_default_scale():
    cert = kk_gamma0_certificate()
    assert len(cert.moves) == 7
    assert "iterated-disjoin" in cert.annotations
    lat = cert.model.lattice
    pairings = tuple(lat.pair(cert.base_class, c.vector) for c in cert.model.curves)
    assert pairings == (3, 1, 1, 2)
    assert verify_certificate(cert).passed


def test_gamma0_certificate_replays_in_the_shared_kk_gamma0_model():
    assert kk_gamma0_certificate().model is builtin_model("kk-gamma0")
    assert kk_gamma0_certificate(Fraction(1, 2)).model is builtin_model("kk-gamma0")


def test_gamma0_certificate_scales():
    # the combination has square -85, so any t with 85 t^2 < 100 works
    t = Fraction(13, 12)
    cert = kk_gamma0_certificate(t_scale=t)
    lat = cert.model.lattice
    pairings = tuple(lat.pair(cert.base_class, c.vector) for c in cert.model.curves)
    assert pairings == (3 * t, t, t, 2 * t)
    assert verify_certificate(cert).passed
    amounts = tuple(m.t for m in cert.moves if isinstance(m, Inflate))
    assert amounts == (8 * t, 4 * t, t, 2 * t)


def test_gamma0_certificate_rejects_large_scale():
    # at t_scale 2 the base class already leaves the positive cone
    with pytest.raises(PreconditionError):
        kk_gamma0_certificate(t_scale=2)
    with pytest.raises(PreconditionError):
        kk_gamma0_certificate(t_scale=10)
    with pytest.raises(PreconditionError):
        kk_gamma0_certificate(t_scale=0)


# ---------------------------------------------------------------------------
# fixtures and registry


def test_e6_model_shape():
    model = e6_model()
    lat = model.lattice
    assert len(model.curves) == 6
    for c in model.curves:
        assert lat.square(c.vector) == -2
        assert c.genus == 0
    assert lat.square(lat.reference_class) == 100
    degrees = sorted(
        sum(
            1
            for other in model.curves
            if other is not c and lat.pair(c.vector, other.vector) == 1
        )
        for c in model.curves
    )
    assert degrees == [1, 1, 1, 2, 2, 3]


def test_builtin_model_registry():
    for name in BUILTIN_MODEL_NAMES:
        model = builtin_model(name)
        assert model.curves
    assert builtin_model("kk").lattice.rank == 21
    assert builtin_model("kk-extended").lattice.rank == 22
    with pytest.raises(MalformedInputError):
        builtin_model("kk-gamma1")


def test_builtin_models_are_shared():
    for name in BUILTIN_MODEL_NAMES:
        assert builtin_model(name) is builtin_model(name)
    # each builder still runs its checks and builds an equal model
    assert builtin_model("kk-extended") == build_kk_model(extended=True)
    assert builtin_model("kk-gamma0") == kk_gamma0_model()
    assert builtin_model("e6") == e6_model()


def test_unknown_builtin_name_raises_on_every_call():
    for bad in ("kk-gamma1", "kk-gamma1", "", ["kk"], None):
        with pytest.raises(MalformedInputError, match="unknown built-in model"):
            builtin_model(bad)

import collections
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from symcone.errors import (
    ConfigurationError,
    DefinitenessError,
    DomainError,
    MalformedInputError,
    ModelInconsistencyError,
    PreconditionError,
    SingularityError,
)
from symcone import linalg
from symcone.lattice import (
    ClassVector,
    CurveData,
    CurveModel,
    IntersectionLattice,
    is_negative_definite,
    neg_inverse,
)
from symcone.models import build_hesse_dual, build_kk_model, builtin_model, ruled_model

from oracles import (
    brute_inverse,
    folded_combination,
    permutation_determinant,
    random_curve_model,
    random_negative_definite,
)


def test_class_vector_algebra_is_exact():
    a = ClassVector((Fraction(1, 3), Fraction(2)))
    b = ClassVector((Fraction(1, 6), Fraction(-1)))
    assert (a + b).coords == (Fraction(1, 2), Fraction(1))
    assert (a - b).coords == (Fraction(1, 6), Fraction(3))
    assert (-a).coords == (Fraction(-1, 3), Fraction(-2))
    assert (a * Fraction(3)).coords == (Fraction(1), Fraction(6))
    assert (2 * b).coords == (Fraction(1, 3), Fraction(-2))


def test_class_vector_basis_and_zero():
    assert ClassVector.zero(3).coords == (0, 0, 0)
    assert ClassVector.basis(3, 1).coords == (0, 1, 0)
    with pytest.raises(MalformedInputError):
        ClassVector.basis(3, 3)


def test_class_vector_rank_mismatch():
    with pytest.raises(MalformedInputError):
        ClassVector((Fraction(1),)) + ClassVector((Fraction(1), Fraction(2)))


def test_is_integral():
    assert ClassVector((Fraction(2), Fraction(-3))).is_integral
    assert not ClassVector((Fraction(1, 2), Fraction(1))).is_integral


def test_integer_form_lists_the_nonzero_scaled_terms():
    v = ClassVector((Fraction(1, 2), Fraction(0), Fraction(-3, 4)))
    assert v.integer_form == (4, ((0, 2), (2, -3)))
    assert ClassVector.zero(3).integer_form == (1, ())


_FRACTIONS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


def _fraction_coords(rank):
    return st.lists(_FRACTIONS, min_size=rank, max_size=rank).map(tuple)


@st.composite
def _class_vector_cases(draw):
    rank = draw(st.integers(min_value=1, max_value=6))
    x = draw(_fraction_coords(rank))
    # b is drawn on its own, or equal to a but reached another way
    y = draw(st.one_of(_fraction_coords(rank), st.just(x)))
    factor = draw(st.fractions(min_value=-6, max_value=6, max_denominator=9))
    return x, y, factor


def _assert_normalized(v, coords):
    """v carries exactly the oracle's coords, in its normalized integer form."""
    assert v.coords == coords and v.rank == len(coords)
    d, terms = v.integer_form
    assert d == lcm(*(c.denominator for c in coords))
    assert gcd(d, *(x for _, x in terms)) == 1
    assert terms == tuple((i, c.numerator * (d // c.denominator)) for i, c in enumerate(coords) if c)


@settings(max_examples=200, deadline=None)
@given(_class_vector_cases())
def test_class_vector_matches_a_fraction_oracle(case):
    x, y, f = case
    a = ClassVector(x)
    # when y is x, b is the same class reached by arithmetic
    b = ClassVector(y) if y is not x else (a + a.scale(2)).scale(Fraction(1, 3))
    for v, coords in (
        (a, x),
        (b, y),
        (a + b, tuple(p + q for p, q in zip(x, y))),
        (a - b, tuple(p - q for p, q in zip(x, y))),
        (-a, tuple(-p for p in x)),
        (a.scale(f), tuple(f * p for p in x)),
        (f * b, tuple(f * q for q in y)),
    ):
        _assert_normalized(v, coords)
    assert (a == b) == (x == y)
    if a == b:
        assert hash(a) == hash(b)
    assert (a - b == ClassVector.zero(len(x))) == (x == y)
    longer = ClassVector(x + (Fraction(1),))
    for left, right in ((a, longer), (longer, a)):
        with pytest.raises(MalformedInputError):
            left + right
        with pytest.raises(MalformedInputError):
            left - right


def test_neg_inverse_of_a_chain_is_the_closed_form():
    # the A_n chain of (-2)-spheres: -M^{-1}_ij = min(i,j)(n+1-max(i,j))/(n+1)
    for n in range(1, 41):
        chain = tuple(
            tuple(-2 if i == j else int(abs(i - j) == 1) for j in range(n)) for i in range(n)
        )
        got = neg_inverse(chain)
        want = tuple(
            tuple(Fraction(min(i, j) * (n + 1 - max(i, j)), n + 1) for j in range(1, n + 1))
            for i in range(1, n + 1)
        )
        assert got == want
        assert got.det == n + 1
        assert got.adjugate == tuple(tuple(x * (n + 1) for x in row) for row in want)


def test_neg_inverse_of_rational_input_matches_cofactor_inverse():
    # the integer elimination also carries non-integral input, scaled once
    rng = random.Random(41)
    for _ in range(40):
        m = tuple(tuple(Fraction(x, 2) for x in row) for row in random_negative_definite(rng))
        want = tuple(tuple(-x for x in row) for row in brute_inverse([list(r) for r in m]))
        got = neg_inverse(m)
        assert got == want
        assert got == tuple(tuple(Fraction(x, got.det) for x in row) for row in got.adjugate)


def test_negative_definite_on_random_dominant_matrices():
    rng = random.Random(29)
    for _ in range(100):
        assert is_negative_definite(random_negative_definite(rng))


def test_negative_definite_rejects_indefinite_and_semidefinite():
    assert not is_negative_definite(((0,),))
    assert not is_negative_definite(((1,),))
    # the full KK curve Gram carries a square-33 combination
    kk = build_kk_model()
    assert not is_negative_definite(kk.model.curve_gram())
    # negative semidefinite chain with a square-zero kernel vector
    chain = ((-1, 1), (1, -1))
    assert not is_negative_definite(chain)


def test_neg_inverse_matches_cofactor_inverse():
    rng = random.Random(31)
    for _ in range(60):
        m = random_negative_definite(rng)
        got = neg_inverse(m)
        want = tuple(
            tuple(-x for x in row) for row in brute_inverse([list(r) for r in m])
        )
        assert got == want
        assert all(entry >= 0 for row in got for entry in row)


def test_neg_inverse_preconditions():
    with pytest.raises(PreconditionError):
        neg_inverse(((-1, 1), (0, -1)))  # not symmetric
    with pytest.raises(PreconditionError):
        neg_inverse(((-2, -1), (-1, -2)))  # negative off-diagonal
    with pytest.raises(DefinitenessError):
        neg_inverse(((1, 0), (0, -1)))  # not negative definite


def _random_z_sign_matrix(rng: random.Random):
    """Symmetric, integer, nonnegative off the diagonal, with diagonal
    entries from -4 to 1: definite, indefinite and singular ones alike."""
    n = rng.randint(1, 5)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = rng.randint(-4, 1)
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.choice((0, 0, 1, 1, 2))
    return tuple(tuple(row) for row in m)


def test_neg_inverse_refuses_exactly_the_matrices_sylvester_refuses():
    """-M is a symmetric Z-matrix, positive definite exactly when it is
    invertible with a nonnegative inverse, so neg_inverse's one solve gives
    the verdict of the Sylvester minors.  Where it refuses, the cofactor
    inverse is missing or -M^{-1} has a negative entry."""
    rng = random.Random(47)
    kinds = collections.Counter()
    for _ in range(600):
        m = _random_z_sign_matrix(rng)
        if is_negative_definite(m):
            kinds["definite"] += 1
            assert neg_inverse(m) == tuple(tuple(-x for x in row) for row in brute_inverse(m))
            continue
        with pytest.raises(DefinitenessError, match="^matrix is not negative definite$"):
            neg_inverse(m)
        if permutation_determinant(m) == 0:
            kinds["singular"] += 1
        else:
            kinds["indefinite"] += 1
            assert any(x > 0 for row in brute_inverse(m) for x in row)
    assert min(kinds[k] for k in ("definite", "singular", "indefinite")) >= 50


@pytest.mark.parametrize("gram", [
    ((0,),),
    ((-1, 1), (1, -1)),
    ((-2, 1, 1), (1, -2, 1), (1, 1, -2)),  # the affine A2 triangle
    ((-4, 2, 0), (2, -1, 0), (0, 0, -3)),
])
def test_neg_inverse_refuses_a_singular_matrix_as_not_definite(gram):
    assert permutation_determinant(gram) == 0
    with pytest.raises(DefinitenessError) as info:
        neg_inverse(gram)
    assert not isinstance(info.value, SingularityError)


def test_neg_inverse_runs_one_elimination(monkeypatch):
    def no_minors(mat):
        raise AssertionError("neg_inverse ran a separate Sylvester elimination")

    runs = []
    eliminate = linalg._eliminate

    def counted(*args, **kwargs):
        runs.append(len(args[0]))
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(linalg, "iter_pivot_minors", no_minors)
    monkeypatch.setattr(linalg, "_eliminate", counted)
    chain = tuple(tuple(-2 if i == j else int(abs(i - j) == 1) for j in range(6)) for i in range(6))
    assert neg_inverse(chain).det == 7
    assert runs == [6]
    with pytest.raises(DefinitenessError):
        neg_inverse(((-1, 2), (2, -1)))
    assert runs == [6, 2]


_COEFFICIENTS = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-9, max_value=9, max_denominator=12)
)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from((None, "hesse", "kk-extended")),
    picks=st.lists(st.tuples(st.integers(0, 20), _COEFFICIENTS), max_size=8),
    cancelling=st.lists(st.tuples(st.integers(0, 20), _COEFFICIENTS), max_size=3),
)
def test_combination_equals_the_fold_of_sums_and_scales(seed, name, picks, cancelling):
    rng = random.Random(seed)
    model = random_curve_model(rng, 6) if name is None else builtin_model(name)
    n = len(model.curves)
    terms = [(i % n, c) for i, c in picks]
    for i, c in cancelling:
        terms += [(i % n, c), (i % n, -c)]
    rng.shuffle(terms)
    indices, coefficients = [i for i, _ in terms], [c for _, c in terms]
    got = model.combination(indices, coefficients)
    assert got == folded_combination(model, indices, coefficients)
    assert got.integer_form == folded_combination(model, indices, coefficients).integer_form


def test_combination_of_nothing_or_of_cancelling_terms_is_zero():
    for model in (builtin_model("hesse"), random_curve_model(random.Random(5), 6)):
        zero = ClassVector.zero(model.lattice.rank)
        assert model.combination([], []) == zero
        assert model.combination([0, 1, 0], [Fraction(2, 3), 0, Fraction(-2, 3)]) == zero
        assert model.combination((1,), (3,)) == model.curves[1].vector.scale(3)


def test_lattice_validates_gram():
    with pytest.raises(MalformedInputError):
        IntersectionLattice(gram=((Fraction(1), Fraction(2)),))
    with pytest.raises(ModelInconsistencyError):
        IntersectionLattice(gram=((Fraction(0), Fraction(1)), (Fraction(2), Fraction(0))))
    with pytest.raises(ModelInconsistencyError):
        IntersectionLattice(gram=((Fraction(1, 2),),))


@pytest.mark.parametrize("exact", [int, Fraction])
def test_lattice_gram_faults_keep_messages_and_precedence(exact):
    def gram(rows):
        return tuple(tuple(exact(x) if type(x) is int else x for x in row) for row in rows)

    cases = [
        (((0, 1), (2, 0)), ModelInconsistencyError, "Gram matrix must be symmetric"),
        (((1, 0, 0), (0, 1, 0), (5, 0, 1)), ModelInconsistencyError, "Gram matrix must be symmetric"),
        (((1, 2),), MalformedInputError, "Gram matrix must be square"),
        (((1, 2), (3,)), MalformedInputError, "ragged matrix"),
        (((1, 0), (0, 1.5)), MalformedInputError, "not an exact rational: 1.5"),
        # a non-integral entry, alone and together with an asymmetry: the
        # symmetry check comes first
        (((Fraction(1, 2), 0), (0, 1)), ModelInconsistencyError, "Gram entries must be integers"),
        (((0, Fraction(1, 2)), (Fraction(1, 2), 0)), ModelInconsistencyError,
         "Gram entries must be integers"),
        (((Fraction(1, 2), 1), (2, 0)), ModelInconsistencyError, "Gram matrix must be symmetric"),
        (((0, Fraction(1, 2)), (1, 0)), ModelInconsistencyError, "Gram matrix must be symmetric"),
    ]
    for rows, error, message in cases:
        with pytest.raises(error) as info:
            IntersectionLattice(gram=gram(rows))
        assert str(info.value) == message


def test_lattice_stores_an_integer_gram():
    plain = IntersectionLattice(gram=[[2, 1], [1, -3]])
    rational = IntersectionLattice(gram=((Fraction(2), Fraction(1)), (Fraction(1), Fraction(-3))))
    assert plain == rational
    assert plain.gram == rational.gram == ((2, 1), (1, -3))
    assert all(type(x) is int for row in rational.gram for x in row)


def test_lattice_labels_and_reference_checks():
    with pytest.raises(MalformedInputError):
        IntersectionLattice(gram=((Fraction(1),),), basis_labels=("a", "b"))
    with pytest.raises(MalformedInputError):
        IntersectionLattice(
            gram=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
            basis_labels=("a", "a"),
        )
    with pytest.raises(ModelInconsistencyError):
        IntersectionLattice(
            gram=((Fraction(-1),),), reference_class=ClassVector((Fraction(1),))
        )


def test_pair_and_square_match_dense_computation():
    rng = random.Random(37)
    kk = build_kk_model(extended=True)
    lat = kk.model.lattice
    n = lat.rank
    for _ in range(25):
        a = ClassVector(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)))
        b = ClassVector(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)))
        dense = sum(
            (a.coords[i] * lat.gram[i][j] * b.coords[j] for i in range(n) for j in range(n)),
            Fraction(0),
        )
        assert lat.pair(a, b) == dense
        assert lat.pair(a, b) == lat.pair(b, a)
        assert lat.square(a) == lat.pair(a, a)


def test_gram_vector_is_gram_times_coords():
    kk = build_kk_model(extended=True)
    lat = kk.model.lattice
    a = ClassVector.basis(lat.rank, 1) + ClassVector.basis(lat.rank, 10)
    gv = lat.gram_vector(a)
    for j in range(lat.rank):
        assert gv[j] == lat.pair(a, ClassVector.basis(lat.rank, j))


def test_positive_cone_needs_reference():
    plain = IntersectionLattice(gram=((Fraction(1),),))
    with pytest.raises(ConfigurationError):
        plain.is_positive_cone(ClassVector((Fraction(1),)))


def test_positive_cone_membership():
    kk = build_kk_model(extended=True)
    lat = kk.model.lattice
    w0 = ClassVector.basis(lat.rank, 0)
    assert lat.is_positive_cone(w0)
    assert not lat.is_positive_cone(-w0)  # negative reference pairing
    assert not lat.is_positive_cone(ClassVector.basis(lat.rank, 1))  # negative square


def test_adjunction_and_expected_dimension_on_kk_curves():
    kk = build_kk_model(extended=True)
    lat = kk.model.lattice
    for curve in kk.model.curves:
        assert lat.adjunction_check(curve.vector, curve.genus)
        # 2(g - 1 - K.e) with K.e = 2g - 2 - e^2
        ke = 2 * curve.genus - 2 - lat.square(curve.vector)
        assert lat.expected_dimension(curve.vector, curve.genus) == 2 * (
            curve.genus - 1 - ke
        )


def test_curve_data_validation():
    with pytest.raises(MalformedInputError):
        CurveData(label="c", vector=ClassVector((Fraction(1, 2),)), genus=0)
    with pytest.raises(MalformedInputError):
        CurveData(label="c", vector=ClassVector((Fraction(1),)), genus=-1)


def _tiny_lattice():
    return IntersectionLattice(
        gram=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-2))),
        basis_labels=("w", "e"),
        reference_class=ClassVector.basis(2, 0),
    )


def test_curve_model_rejects_nonnegative_squares_and_duplicates():
    lat = _tiny_lattice()
    good = CurveData(label="e", vector=ClassVector.basis(2, 1), genus=0)
    with pytest.raises(ModelInconsistencyError):
        CurveModel(lattice=lat, curves=(CurveData("w", ClassVector.basis(2, 0), 0),))
    with pytest.raises(ModelInconsistencyError):
        CurveModel(lattice=lat, curves=(good, good))


def test_curve_model_rejects_negative_pairings():
    lat = IntersectionLattice(
        gram=(
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(-2), Fraction(-1)),
            (Fraction(0), Fraction(-1), Fraction(-2)),
        ),
        reference_class=ClassVector.basis(3, 0),
    )
    a = CurveData("a", ClassVector.basis(3, 1), 0)
    b = CurveData("b", ClassVector.basis(3, 2), 0)
    with pytest.raises(ModelInconsistencyError):
        CurveModel(lattice=lat, curves=(a, b))


def test_curve_model_adjunction_enforcement_toggle():
    lat = IntersectionLattice(
        gram=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-2))),
        canonical_class=ClassVector.zero(2),
        reference_class=ClassVector.basis(2, 0),
    )
    bad_genus = CurveData("e", ClassVector.basis(2, 1), genus=1)
    with pytest.raises(ModelInconsistencyError):
        CurveModel(lattice=lat, curves=(bad_genus,))


def _blowup_lattice(canonical=None):
    """CP2 blown up three times: H^2 = 1, E_i^2 = -1."""
    gram = tuple(tuple(int(i == j) * (1 if i == 0 else -1) for j in range(4)) for i in range(4))
    return IntersectionLattice(gram=gram, canonical_class=canonical)


def test_curve_model_reports_a_square_before_a_negative_pair():
    # curves 0 and 1 pair negatively (E1.(E1+E2) = -1); curve 2 is H, of
    # square 1: every curve's own checks come before the pairwise ones
    e1, e1e2, h = ClassVector((0, 1, 0, 0)), ClassVector((0, 1, 1, 0)), ClassVector.basis(4, 0)
    curves = (CurveData("a", e1, 0), CurveData("b", e1e2, 0), CurveData("c", h, 0))
    with pytest.raises(ModelInconsistencyError) as exc:
        CurveModel(lattice=_blowup_lattice(), curves=curves)
    assert str(exc.value) == "curve 'c' has square 1; curves must have negative square"


def test_curve_model_reports_adjunction_before_a_negative_pair():
    # K = -3H + E1 + E2 + E3: E1 and E1 - E2 satisfy adjunction in genus 0
    # and pair negatively; E3 breaks it in genus 1
    lat = _blowup_lattice(canonical=ClassVector((-3, 1, 1, 1)))
    a = CurveData("a", ClassVector((0, 1, 0, 0)), 0)
    b = CurveData("b", ClassVector((0, 1, -1, 0)), 0)
    e3 = ClassVector((0, 0, 0, 1))
    with pytest.raises(ModelInconsistencyError) as exc:
        CurveModel(lattice=lat, curves=(a, b, CurveData("c", e3, 1)))
    assert str(exc.value) == "curve 'c' violates adjunction for genus 1"
    with pytest.raises(ModelInconsistencyError) as exc:
        CurveModel(lattice=lat, curves=(a, CurveData("b", b.vector, 1)))
    assert str(exc.value) == "curve 'b' violates adjunction for genus 1"
    with pytest.raises(ModelInconsistencyError) as exc:
        CurveModel(lattice=lat, curves=(a, b, CurveData("c", e3, 0)))
    assert str(exc.value) == "curves 'a' and 'b' pair negatively"


def test_curve_model_adjunction_scales_a_rational_canonical_class():
    # a canonical class with denominators is paired once, scaled by its
    # denominator; E1 in genus 0 needs K.E1 = -1
    half = Fraction(1, 2)
    lat = _blowup_lattice(canonical=ClassVector((half, 1, half, half)))
    CurveModel(lattice=lat, curves=(CurveData("a", ClassVector((0, 1, 0, 0)), 0),))
    with pytest.raises(ModelInconsistencyError, match="^curve 'c' violates adjunction"):
        CurveModel(lattice=lat, curves=(CurveData("c", ClassVector((0, 0, 0, 1)), 0),))


def test_curve_lookup_and_pairings():
    kk = build_kk_model()
    model = kk.model
    assert model.index_of("C3") == 2
    assert model.curve("D123").genus == 2
    with pytest.raises(MalformedInputError):
        model.curve("nope")
    alpha = model.curves[0].vector
    pairings = model.pairings_with(alpha)
    for i, c in enumerate(model.curves):
        assert pairings[i] == model.lattice.pair(alpha, c.vector)


def test_curve_gram_subset():
    kk = build_kk_model()
    model = kk.model
    idx = (model.index_of("C1"), model.index_of("D123"))
    sub = model.curve_gram(idx)
    assert sub == ((Fraction(-3), Fraction(1)), (Fraction(1), Fraction(-1)))
    assert model.curve_gram(idx[::-1]) == ((Fraction(-1), Fraction(1)), (Fraction(1), Fraction(-3)))


def test_curve_gram_is_the_pairing_of_the_curves_built_once():
    model = builtin_model("kk-extended")
    lat = model.lattice
    gram = model.curve_gram()
    assert len(gram) == len(model.curves) == 21
    for a, row in zip(model.curves, gram):
        for b, x in zip(model.curves, row):
            assert type(x) is int
            assert x == lat.pair(a.vector, b.vector)
    assert model.curve_gram() is gram
    idx = (7, 2, 20, 0)
    assert model.curve_gram(idx) == tuple(tuple(gram[i][j] for j in idx) for i in idx)


@pytest.mark.parametrize("indices, bad", [((-1, 0), -1), ((21,), 21), ((3, 25, -2), 25)])
def test_curve_gram_range_checks_indices(indices, bad):
    with pytest.raises(DomainError, match=f"^curve index {bad} out of range$"):
        builtin_model("kk-extended").curve_gram(indices)


def test_is_interior_kahler_requires_completeness():
    lat = _tiny_lattice()
    model = CurveModel(
        lattice=lat,
        curves=(CurveData("e", ClassVector.basis(2, 1), 0),),
        completeness_assumed=False,
    )
    with pytest.raises(ConfigurationError):
        model.is_interior_kahler(ClassVector.basis(2, 0))


# --- the integer pairing kernel against the naive Fraction double sum ---

def _naive_gram_vector(lat, a):
    n = lat.rank
    return tuple(
        sum((lat.gram[i][j] * a.coords[j] for j in range(n)), Fraction(0)) for i in range(n)
    )


def _naive_pair(ga, b):
    """sum_i sum_j a_i G_ij b_j, given the naive G @ a."""
    return sum((x * y for x, y in zip(ga, b.coords)), Fraction(0))


def _kernel_cases():
    kk = build_kk_model(extended=True).model
    ruled = ruled_model(0, 3, "nontrivial")
    hesse = build_hesse_dual().model
    cases = []
    for model, special in (
        # the KK canonical class carries 7/3 entries, the ruled fibre 1/3, -1/3
        (kk, [kk.lattice.canonical_class, kk.lattice.reference_class]),
        (ruled.model, [ruled.fiber_class, ruled.model.lattice.reference_class]),
        (hesse, [hesse.lattice.canonical_class]),
    ):
        special += [c.vector for c in model.curves]
        cases.append((model, special))
    return cases


_CASES = _kernel_cases()
_COORDS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)


@st.composite
def _model_and_classes(draw):
    model, special = draw(st.sampled_from(_CASES))
    rank = model.lattice.rank

    def one():
        drawn = st.lists(_COORDS, min_size=rank, max_size=rank).map(
            lambda c: ClassVector(tuple(c))
        )
        base = draw(st.one_of(st.sampled_from(special), drawn))
        # mix denominators: scale a special class or add two together
        return draw(st.sampled_from((
            base,
            base.scale(draw(st.fractions(min_value=-5, max_value=5, max_denominator=7))),
            base + draw(st.sampled_from(special)),
        )))

    return model, one(), one()


@settings(max_examples=100, deadline=None)
@given(_model_and_classes())
def test_integer_pairings_equal_naive_double_sum(case):
    model, a, b = case
    lat = model.lattice
    ga = _naive_gram_vector(lat, a)
    got = lat.pair(a, b)
    assert got == _naive_pair(ga, b)
    assert lat.pair(b, a) == got
    assert lat.square(a) == _naive_pair(ga, a)
    gv = lat.gram_vector(a)
    assert gv == ga
    pw = model.pairings_with(a)
    assert pw == tuple(_naive_pair(ga, c.vector) for c in model.curves)
    # always a Fraction, never an int, even for integral classes: 2*area/h
    # must stay exact
    for value in (got, lat.square(a), *gv, *pw):
        assert type(value) is Fraction


def test_pairings_reject_rank_mismatch():
    lat = build_kk_model(extended=True).model.lattice
    short = ClassVector((Fraction(1),))
    with pytest.raises(MalformedInputError):
        lat.pair(short, ClassVector.basis(lat.rank, 0))
    with pytest.raises(MalformedInputError):
        lat.pairings(ClassVector.basis(lat.rank, 0), [short])
    with pytest.raises(MalformedInputError):
        lat.gram_vector(short)

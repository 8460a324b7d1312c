import collections
import enum
import itertools
import operator
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
    SymconeError,
)
from symcone import chambers, lattice, linalg
from symcone.lattice import (
    ClassVector,
    CurveData,
    CurveModel,
    IntersectionLattice,
    NegInverse,
    Support,
    is_negative_definite,
    neg_inverse,
)
from symcone.documents import parse_class
from symcone.models import build_hesse_dual, build_kk_model, builtin_model, ruled_model
from symcone.planner import Witness, component_obstruction

from oracles import (
    brute_inverse,
    dense_gram_product,
    expected_dimension,
    folded_combination,
    interior_class,
    mat_vec,
    permutation_determinant,
    plain_pair,
    random_curve_model,
    random_negative_definite,
    twisted_curve_model,
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


def _rows(inverse: NegInverse) -> tuple[tuple[Fraction, ...], ...]:
    """-M^{-1} entrywise, as adjugate / det."""
    return tuple(tuple(Fraction(x, inverse.det) for x in row) for row in inverse.adjugate)


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
        assert _rows(got) == want
        assert got.det == n + 1
        assert got.adjugate == tuple(tuple(x * (n + 1) for x in row) for row in want)


def test_neg_inverse_of_rational_input_matches_cofactor_inverse():
    # the integer elimination also carries non-integral input, scaled once
    rng = random.Random(41)
    for _ in range(40):
        m = tuple(tuple(Fraction(x, 2) for x in row) for row in random_negative_definite(rng))
        want = tuple(tuple(-x for x in row) for row in brute_inverse([list(r) for r in m]))
        got = neg_inverse(m)
        assert _rows(got) == want
        assert type(got.det) is int and got.det > 0
        assert all(type(x) is int for row in got.adjugate for x in row)


def test_negative_definite_on_random_dominant_matrices():
    rng = random.Random(29)
    for _ in range(100):
        assert is_negative_definite(random_negative_definite(rng))


def test_negative_definite_rejects_indefinite_and_semidefinite():
    assert not is_negative_definite(((0,),))
    assert not is_negative_definite(((1,),))
    # the full KK curve Gram carries a square-33 combination
    kk = build_kk_model()
    assert not is_negative_definite(kk.curve_gram())
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
        assert _rows(got) == want
        assert all(entry >= 0 for row in _rows(got) for entry in row)


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
            assert _rows(neg_inverse(m)) == tuple(tuple(-x for x in row) for row in brute_inverse(m))
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
    """_shifted from the zero class over the lcm d of the coefficients'
    denominators builds sum c_i e_i as the fold does, normalised alike."""
    rng = random.Random(seed)
    model = random_curve_model(rng, 6) if name is None else builtin_model(name)
    n = len(model.curves)
    terms = [(i % n, c) for i, c in picks]
    for i, c in cancelling:
        terms += [(i % n, c), (i % n, -c)]
    rng.shuffle(terms)
    indices, coefficients = [i for i, _ in terms], [c for _, c in terms]
    d = lcm(*(c.denominator for c in coefficients))
    numerators = [(i, c.numerator * (d // c.denominator)) for i, c in terms]
    got = model._shifted(ClassVector.zero(model.lattice.rank), numerators, d)
    assert got == folded_combination(model, indices, coefficients)
    assert got.integer_form == folded_combination(model, indices, coefficients).integer_form


def test_combination_of_nothing_or_of_cancelling_terms_is_zero():
    for model in (builtin_model("hesse"), random_curve_model(random.Random(5), 6)):
        zero = ClassVector.zero(model.lattice.rank)
        assert model._shifted(zero, [], 1) == zero
        assert model._shifted(zero, [(0, 2), (1, 0), (0, -2)], 3) == zero
        assert model._shifted(zero, [(1, 3)], 1) == model.curves[1].vector.scale(3)


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
    # a rank-3 class on a rank-2 lattice: for the reference class the check
    # comes before its square, which would fail with another message
    for name in ("canonical_class", "reference_class"):
        with pytest.raises(MalformedInputError, match=f"^{name} has wrong rank$"):
            IntersectionLattice(gram=((1, 0), (0, -1)), **{name: ClassVector.basis(3, 0)})


def test_pair_and_square_match_dense_computation():
    rng = random.Random(37)
    kk = build_kk_model(extended=True)
    lat = kk.lattice
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
    lat = kk.lattice
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
    lat = kk.lattice
    w0 = ClassVector.basis(lat.rank, 0)
    assert lat.is_positive_cone(w0)
    assert not lat.is_positive_cone(-w0)  # negative reference pairing
    assert not lat.is_positive_cone(ClassVector.basis(lat.rank, 1))  # negative square


def test_positive_cone_excludes_square_zero():
    # the fibre of a ruled surface pairs positively with the reference
    # class s+, and its square is exactly 0
    rm = ruled_model(0, 1, "nontrivial")
    lat, fibre = rm.model.lattice, rm.fiber_class
    assert lat.square(fibre) == 0 and lat.pair(fibre, lat.reference_class) == 1
    assert not lat.is_positive_cone(fibre)


def test_adjunction_check_needs_a_canonical_class():
    lat = IntersectionLattice(gram=((1, 0), (0, -1)), reference_class=ClassVector.basis(2, 0))
    with pytest.raises(ConfigurationError, match="^adjunction check needs a canonical class$"):
        lat.adjunction_check(ClassVector.basis(2, 1), 0)


def test_adjunction_and_expected_dimension_on_kk_curves():
    kk = build_kk_model(extended=True)
    lat = kk.lattice
    for curve in kk.curves:
        assert lat.adjunction_check(curve.vector, curve.genus)
        # 2(g - 1 - K.e) with K.e = 2g - 2 - e^2
        ke = 2 * curve.genus - 2 - lat.square(curve.vector)
        assert expected_dimension(lat, curve.vector, curve.genus) == 2 * (
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


def test_curve_model_refuses_a_curve_of_square_zero():
    # H - E1, a fibre of the blow-up's ruling, has square exactly 0
    fibre = CurveData("f", ClassVector((1, -1, 0, 0)), 0)
    with pytest.raises(ModelInconsistencyError) as exc:
        CurveModel(lattice=_blowup_lattice(), curves=(fibre,))
    assert str(exc.value) == "curve 'f' has square 0; curves must have negative square"


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
    model = build_kk_model()
    assert model.index_of("C3") == 2
    assert model.curve("D123").genus == 2
    with pytest.raises(MalformedInputError):
        model.curve("nope")
    alpha = model.curves[0].vector
    pairings = model.pairings_with(alpha)
    for i, c in enumerate(model.curves):
        assert pairings[i] == model.lattice.pair(alpha, c.vector)


def test_curve_gram_subset():
    model = build_kk_model()
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


def test_curve_gram_refuses_indices_that_are_not_ints():
    model = builtin_model("kk-extended")
    with pytest.raises(MalformedInputError, match="^curve index True is not an integer$"):
        model.curve_gram((True, 1.0))
    with pytest.raises(MalformedInputError, match="^curve index 1.0 is not an integer$"):
        model.curve_gram((1, 1.0))


def _fresh(model):
    """The same model with nothing kept yet."""
    return CurveModel(model.lattice, model.curves, model.completeness_assumed)


_FACTS = ("admissible", "inverse", "obstruction")


def _outcome(compute):
    """A fact as a comparable value, or the type of the error it raised."""
    try:
        value = compute()
    except SymconeError as exc:
        return type(exc)
    if isinstance(value, NegInverse):
        return value.det, value.adjugate
    if isinstance(value, Support):
        return value.indices
    return value


def _kept(model, idx, name):
    if name == "obstruction":
        return _outcome(lambda: component_obstruction(model, idx))
    return _outcome(lambda: getattr(model.support(idx), name))


def _computed(model, idx, name):
    """The fact from the free functions on a fresh slice; the obstruction
    from a copy of the model that has kept nothing."""
    gram = model.curve_gram(sorted(set(idx)))
    compute = {
        "admissible": lambda: is_negative_definite(gram),
        "inverse": lambda: neg_inverse(gram),
        "obstruction": lambda: component_obstruction(_fresh(model), idx),
    }[name]
    return _outcome(compute)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kk=st.booleans(),
    order=st.permutations(_FACTS),
)
def test_support_facts_equal_a_fresh_computation(seed, kk, order):
    rng = random.Random(seed)
    # random models are negative definite throughout; KK supports are often
    # indefinite or disconnected, so their facts include raised errors
    model = _fresh(builtin_model("kk-extended")) if kk else random_curve_model(rng, 6)
    n = len(model.curves)
    idx = [rng.randrange(n) for _ in range(rng.randint(3, 12) if kk else rng.randint(1, n))]
    expected = {name: _computed(model, idx, name) for name in _FACTS}
    for name in order + order[::-1]:
        assert _kept(model, idx, name) == expected[name], name
    support = model.support(idx)
    assert support is model.support(sorted(idx, reverse=True))
    assert support.indices == tuple(sorted(set(idx)))
    assert support.gram == model.curve_gram(support.indices)
    # a fact that raised is not kept
    for name in ("admissible", "inverse"):
        assert (name in vars(support)) is not isinstance(expected[name], type)
    # only a witness is kept: an admissible support is its own answer
    witness = expected["obstruction"] if isinstance(expected["obstruction"], Witness) else None
    assert support.obstruction == witness


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_support_keeps_n_one(seed):
    # N 1 for N = -M^{-1}, component by component, kept with the sweep's far
    # class as numerators over one denominator
    rng = random.Random(seed)
    model = random_curve_model(rng, 6)
    n = len(model.curves)
    support = model.support(rng.sample(range(n), rng.randint(1, n)))
    assert support.admissible
    _, m, ones = chambers._far(model, support)
    kept = tuple(Fraction(ones[i], m) for i in support.indices)
    # the whole support's -M^{-1}, disconnected or not
    assert kept == tuple(Fraction(sum(row), support.inverse.det) for row in support.inverse.adjugate)
    assert kept == tuple(-sum(row) for row in brute_inverse(support.gram))
    assert chambers._far(model, model.support(support.indices))[2] is ones


def test_supports_kept_stay_within_the_bound():
    model = _fresh(builtin_model("kk-extended"))
    subsets = itertools.islice(itertools.combinations(range(21), 4), lattice._SUPPORTS_BOUND + 50)
    first = model.support((0, 1, 2, 3))
    assert first.inverse.det == 81  # four disjoint (-3)-curves
    for subset in subsets:
        last = model.support(subset)
        assert len(model._supports) <= lattice._SUPPORTS_BOUND
    assert len(model._supports) == lattice._SUPPORTS_BOUND
    # the oldest are evicted first
    assert (0, 1, 2, 3) not in model._supports
    assert model.support(last.indices) is last
    assert model.support((0, 1, 2, 3)) is not first


_Index = enum.IntEnum("_Index", [(f"I{i}", i) for i in range(21)])


def _served(model, x):
    """model.support(x), or the class and message of the error it raised."""
    try:
        return model.support(x)
    except SymconeError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kk=st.booleans())
def test_a_kept_support_is_served_as_a_fresh_model_serves_it(seed, kk):
    """On a model that keeps the supports of drawn keys, each key and its
    variants (a list, reversed, with a repeat, with a member replaced by a
    bool, an IntEnum, an equal float or a nested list, with an index out of
    range or negative) give what a fresh equal model, which keeps nothing,
    gives: a Support of the same indices and Gram, the kept one itself when
    the set is a kept key, or an error of the same class and message.  A
    bool 0 or 1 hashes and compares as the int, so a lookup before the type
    test would serve the kept Support.  A Support's indices are exact ints
    however it was asked for: one first asked for by IntEnum members is
    served to plain ints too."""
    rng = random.Random(seed)
    model = _fresh(builtin_model("kk-extended")) if kk else random_curve_model(rng, 6)
    n = len(model.curves)
    keys = {tuple(sorted(rng.sample(range(n), rng.randint(0, min(n, 14))))) for _ in range(3)}
    for key in keys:
        model.support(key)
    for key in keys:
        kept = model._supports[key]
        variants = [key, list(key), key[::-1], key + key[:1], key + (n,), key + (-1,)]
        if key:
            j = rng.randrange(len(key))
            small = [k for k, i in enumerate(key) if i in (0, 1)]
            b = small[0] if small else j
            variants += [
                key[:b] + (bool(key[b]) if small else True,) + key[b + 1:],
                key[:j] + (_Index(key[j]),) + key[j + 1:],
                key[:j] + (float(key[j]),) + key[j + 1:],
                key[:j] + ([key[j]],) + key[j + 1:],
            ]
        for x in variants:
            want, got = _served(_fresh(model), x), _served(model, x)
            if not isinstance(want, Support):
                assert got == want, x
                continue
            assert isinstance(got, Support) and (got.indices, got.gram) == (want.indices, want.gram)
            assert all(type(i) is int for i in got.indices), x
            if set(x) == set(key):
                assert got is kept, x
    fresh = _fresh(builtin_model("kk-extended"))
    first = fresh.support((_Index.I0, _Index.I1))
    assert fresh.support((0, 1)) is first and [type(i) for i in first.indices] == [int, int]


def test_is_interior_kahler_requires_completeness():
    lat = _tiny_lattice()
    model = CurveModel(
        lattice=lat,
        curves=(CurveData("e", ClassVector.basis(2, 1), 0),),
        completeness_assumed=False,
    )
    with pytest.raises(ConfigurationError):
        model.is_interior_kahler(ClassVector.basis(2, 0))


def test_is_interior_kahler_refuses_as_first_interior_scale_refuses():
    """Without completeness, or complete but without a reference class, both
    refuse with the same ConfigurationError message."""
    plain = IntersectionLattice(gram=((1, 0), (0, -2)))
    zero = ClassVector.zero(2)
    for lat, complete in ((_tiny_lattice(), False), (plain, True)):
        model = CurveModel(lat, (CurveData("e", ClassVector.basis(2, 1), 0),), complete)
        messages = []
        for call in (lambda a: model.is_interior_kahler(a), lambda a: model.first_interior_scale(a, zero, (0,))):
            with pytest.raises(ConfigurationError) as info:
                call(ClassVector.basis(2, 0))
            messages.append(str(info.value))
        assert messages[0] == messages[1]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), twisted=st.booleans(), data=st.data())
def test_is_interior_kahler_is_first_interior_scale_at_zero(seed, twisted, data):
    """The kept verdict and row decide what first_interior_scale decides at
    s = 0, and what plain pairings decide, on interior, corner, chamber,
    mixed and outside classes: each side meets a fresh copy of the class."""
    rng = random.Random(seed)
    model = (twisted_curve_model if twisted else random_curve_model)(rng, 6)
    lat = model.lattice
    n = len(model.curves)
    alpha = interior_class(model, rng)
    G = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True), label="G")
    corner = chambers.corner_point(model, alpha, G)
    classes = [alpha, corner, chambers.chamber_point(model, corner, G, Fraction(1, 2)), -alpha]
    coefficients = st.fractions(-3, 3, max_denominator=4)
    for _ in range(3):
        shift = [data.draw(coefficients) for _ in range(n)]
        classes.append(alpha + folded_combination(model, range(n), shift))
    zero = ClassVector.zero(lat.rank)
    for a in classes:
        got = model.is_interior_kahler(ClassVector(a.coords))
        assert got == (model.first_interior_scale(ClassVector(a.coords), zero, (0,))[0] is not None)
        pairings = [plain_pair(lat, a, v) for v in (a, lat.reference_class, *(c.vector for c in model.curves))]
        assert got == all(x > 0 for x in pairings)


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
    kk = build_kk_model(extended=True)
    ruled = ruled_model(0, 3, "nontrivial")
    hesse = build_hesse_dual()
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
    lat = build_kk_model(extended=True).lattice
    short = ClassVector((Fraction(1),))
    with pytest.raises(MalformedInputError):
        lat.pair(short, ClassVector.basis(lat.rank, 0))
    with pytest.raises(MalformedInputError):
        lat.scaled_pairings(ClassVector.basis(lat.rank, 0), [short])
    with pytest.raises(MalformedInputError):
        lat.gram_vector(short)


# --- each class keeps its Gram product, for the lattice that made it ---

def _kept_product(lat, a):
    """The product a keeps for lat, or None."""
    kept = vars(a).get("_gram_product")
    return kept[1] if kept is not None and kept[0] is lat else None


def test_adding_or_subtracting_zero_returns_the_class_itself():
    lat = build_kk_model(extended=True).lattice
    a = lat.reference_class + lat.canonical_class
    zero = ClassVector.zero(lat.rank)
    product = lat.gram_product(a)
    assert a + zero is a and a - zero is a
    assert lat.gram_product(a - zero) is product
    assert zero + a == a and (zero - a) + a == zero
    with pytest.raises(MalformedInputError):
        a + ClassVector.zero(lat.rank - 1)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), twisted=st.booleans(), data=st.data())
def test_neg_inverse_applies_in_integers_as_the_fraction_product(seed, twisted, data):
    # chambers._neg_apply, component by component of a support, against the
    # whole support's -M^{-1} as Fractions
    rng = random.Random(seed)
    model = (twisted_curve_model if twisted else random_curve_model)(rng, 6)
    support = model.support(rng.sample(range(len(model.curves)), rng.randint(1, len(model.curves))))
    n = len(support.indices)
    values = data.draw(st.lists(st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=12)),
                                min_size=n, max_size=n))
    got, q = chambers._neg_apply(model, support, values)
    assert sorted(got) == list(support.indices)
    assert type(q) is int and q > 0 and all(type(x) is int for x in got.values())
    want = mat_vec(_rows(support.inverse), [Fraction(x) for x in values])
    assert tuple(Fraction(got[i], q) for i in support.indices) == want


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), twisted=st.booleans(), data=st.data())
def test_each_class_keeps_the_gram_product_of_the_lattice_it_meets(seed, twisted, data):
    """Classes made by +, -, scale, _shifted and parse_class, used
    alternately with a model's lattice and another of the same rank (G + I),
    keep the dense G @ (d a) of the lattice that last multiplied them, and
    each lattice's gram_product is its own."""
    model = (twisted_curve_model if twisted else random_curve_model)(random.Random(seed), 6)
    lat = model.lattice
    rank = lat.rank
    other = IntersectionLattice(gram=tuple(
        tuple(x + (i == j) for j, x in enumerate(row)) for i, row in enumerate(lat.gram)
    ))
    pool = [lat.reference_class, ClassVector.zero(rank), *(c.vector for c in model.curves)]
    fraction = st.fractions(-5, 5, max_denominator=7)
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        a = data.draw(st.sampled_from(pool))
        kind = data.draw(st.sampled_from(("+", "-", "scale", "_shifted", "parse_class")))
        if kind == "+":
            pool.append(a + data.draw(st.sampled_from(pool)))
        elif kind == "-":
            pool.append(a - data.draw(st.sampled_from(pool)))
        elif kind == "scale":
            pool.append(a.scale(data.draw(fraction)))
        elif kind == "_shifted":
            picks = data.draw(st.lists(st.integers(0, len(model.curves) - 1), max_size=3))
            d = data.draw(st.integers(1, 7)) * a.integer_form[0]
            pool.append(model._shifted(a, [(i, data.draw(st.integers(-35, 35))) for i in picks], d))
        else:
            coords = data.draw(st.lists(fraction, min_size=rank, max_size=rank))
            pool.append(parse_class([str(x) for x in coords], rank, "class"))
        for used in data.draw(st.lists(st.sampled_from((lat, other)), min_size=1, max_size=4)):
            c = data.draw(st.sampled_from(pool))
            expected = dense_gram_product(used, c)
            scaled = used.scaled_pairings(c, pool)
            assert _kept_product(used, c) == expected
            assert _kept_product(lat if used is other else other, c) is None
            assert used.gram_product(c) == expected
            assert scaled == [v.integer_form[0] * sum(map(operator.mul, expected, v.coords)) for v in pool]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), twisted=st.booleans(), data=st.data())
def test_combined_classes_are_the_fraction_sums_and_keep_fresh_products_and_rows(seed, twisted, data):
    """a + t b by add_multiple, and a + b and a - b, on random and twisted
    models, for a with some coordinates zeroed, t an integer or a fraction
    of either sign and b a curve, an integral class, a fractional class or
    an integral class that cancels a term of a: each result is the ClassVector of the Fraction sum, and the
    Gram product it keeps is that of a fresh equal class; when a and b keep
    products and rows for the model, the result keeps the product alone, and
    the row _row reads off it is the fresh class's."""
    rng = random.Random(seed)
    model = (twisted_curve_model if twisted else random_curve_model)(rng, 6)
    lat = model.lattice
    rank = lat.rank
    fraction = st.fractions(-4, 4, max_denominator=6)
    coords = list(interior_class(model, rng).coords)
    for i in data.draw(st.lists(st.integers(0, rank - 1), max_size=rank), label="zeros"):
        coords[i] = Fraction(0)  # so b may have terms a has not
    kind = data.draw(st.sampled_from(("curve", "integral", "fractional", "cancel")), label="b")
    t = data.draw(st.one_of(st.integers(-5, 5), fraction), label="t")
    if kind == "curve":
        b = model.curves[data.draw(st.integers(0, len(model.curves) - 1))].vector
    elif kind == "fractional":
        b = ClassVector(data.draw(st.lists(fraction, min_size=rank, max_size=rank)))
    else:
        entries = data.draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
        if kind == "cancel":
            j = data.draw(st.integers(0, rank - 1), label="j")
            t = data.draw(st.integers(-5, 5).filter(bool), label="t")
            entries[j], coords[j] = 1, Fraction(-t)
        b = ClassVector(entries)
    a = ClassVector(coords)
    keep = data.draw(st.booleans(), label="keep")
    if keep:
        for c in (a, b):
            model._row(c)
    for out, factor in ((a.add_multiple(b, t), Fraction(t)), (a + b, 1), (a - b, -1)):
        fresh = ClassVector([x + factor * y for x, y in zip(a.coords, b.coords)])
        assert out == fresh and out.integer_form == fresh.integer_form
        if out is a:  # t = 0 or b = 0: a itself, with what it keeps
            continue
        if kind == "cancel" and factor == t:
            assert out.coords[j] == 0
        product = vars(out).get("_gram_product")
        assert product is None or product == (lat, lat.gram_product(fresh)) and product[0] is lat
        assert "_row" not in vars(out)  # only CurveModel._row writes a row
        if keep:
            assert product is not None
        assert model._row(out) == model._row(fresh)


# --- each class keeps its row for the model, its verdict for the lattice ---

def _expected_row(model, a):
    lat = model.lattice
    return tuple(lat.scaled_pairings(a, [lat.reference_class, *(c.vector for c in model.curves)]))


def test_a_class_keeps_the_row_of_the_model_that_read_it():
    """One class read alternately under two models that share a lattice and
    declare different curves: each model reads its own row, whichever read
    the class before, and the class keeps the last one read."""
    kk = build_kk_model(extended=True)
    path = CurveModel(lattice=kk.lattice, curves=kk.curves[9:12], completeness_assumed=True)
    a = kk.lattice.reference_class + kk.lattice.canonical_class
    for model in (kk, path, path, kk, path, kk):
        row = model._row(a)
        assert row == _expected_row(model, a)
        assert len(row) == len(model.curves) + 1
        kept_model, kept_row = vars(a)["_row"]
        assert kept_model is model and kept_row is row
    assert chambers.classify(path, a).scaled == _expected_row(path, a)[1:]
    assert chambers.classify(kk, a).scaled == _expected_row(kk, a)[1:]


def test_a_class_keeps_the_positive_cone_verdict_of_the_lattice_that_tested_it():
    """One class tested alternately under three rank-2 lattices: a
    hyperbolic plane with reference e0 and with reference -e0, and its
    negative with reference e1.  Each lattice sees its own verdict."""
    e0, e1 = ClassVector.basis(2, 0), ClassVector.basis(2, 1)
    lattices = (
        (IntersectionLattice(gram=((1, 0), (0, -1)), reference_class=e0), True),
        (IntersectionLattice(gram=((1, 0), (0, -1)), reference_class=-e0), False),  # reference pairing -2
        (IntersectionLattice(gram=((-1, 0), (0, 1)), reference_class=e1), False),  # square -3
    )
    a = ClassVector((Fraction(2), Fraction(1)))
    for k in (0, 1, 0, 2, 2, 1, 0, 2):
        lat, verdict = lattices[k]
        assert lat.is_positive_cone(a) is verdict
        assert vars(a)["_positive_cone"] == (lat, verdict)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), twisted=st.booleans(), data=st.data())
def test_the_row_is_the_scaled_pairings_and_classify_pairs_as_the_oracle(seed, twisted, data):
    """On classes near an interior class, shifted along the curves, and on
    their negatives, the row is scaled_pairings with the reference class and
    the curves, and classify pairs each curve as the plain Fraction sum on
    the positive cone and refuses a class off it."""
    rng = random.Random(seed)
    model = (twisted_curve_model if twisted else random_curve_model)(rng, 6)
    lat = model.lattice
    n = len(model.curves)
    alpha = interior_class(model, rng)
    fraction = st.fractions(-3, 3, max_denominator=7)
    for _ in range(data.draw(st.integers(1, 4), label="classes")):
        picks = data.draw(st.lists(st.integers(0, n - 1), max_size=3), label="curves")
        a = alpha + folded_combination(model, picks, [data.draw(fraction) for _ in picks])
        for b in (a, -a):
            assert model._row(b) == _expected_row(model, b)
            assert model._row(b) is model._row(b)
            if lat.is_positive_cone(b):
                pairings = chambers.classify(model, b).pairings
                assert pairings == tuple(plain_pair(lat, b, c.vector) for c in model.curves)
            else:
                with pytest.raises(DomainError):
                    chambers.classify(model, b)

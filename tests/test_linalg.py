import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symcone import linalg
from symcone.errors import MalformedInputError, SingularityError

from oracles import (
    banded_matrix,
    brute_inverse,
    brute_leading_minors,
    gauss_det,
    gauss_minors,
    mat_vec,
    permutation_determinant,
    random_rational_matrix,
    sparse_matrix,
)


def test_as_fraction_accepts_ints_strings_fractions():
    assert linalg.as_fraction(3) == Fraction(3)
    assert linalg.as_fraction("7/2") == Fraction(7, 2)
    assert linalg.as_fraction(Fraction(-1, 3)) == Fraction(-1, 3)


def test_as_fraction_rejects_floats():
    with pytest.raises(MalformedInputError):
        linalg.as_fraction(0.5)


def test_dot_matches_naive():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        u = linalg.as_vector(random_rational_matrix(rng, n)[0])
        v = linalg.as_vector([Fraction(rng.randint(-5, 5)) for _ in range(n)])
        assert linalg.dot(u, v) == sum((u[j] * v[j] for j in range(n)), Fraction(0))


def test_det_matches_permutation_expansion():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = random_rational_matrix(rng, n)
        assert linalg.det(linalg.as_matrix(m)) == permutation_determinant(m)


def test_leading_minors_match_bruteforce():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = random_rational_matrix(rng, n)
        assert linalg.leading_principal_minors(linalg.as_matrix(m)) == brute_leading_minors(m)


def _inverse(mat):
    """mat^{-1} read off solve_columns against the identity: entry (i, c) is
    X[c][i] / D."""
    n = len(mat)
    D, X = linalg.solve_columns(mat, linalg.identity(n))
    return tuple(tuple(Fraction(X[c][i], D) for c in range(n)) for i in range(n))


def test_inverse_matches_cofactor_inverse():
    rng = random.Random(17)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 5)
        m = random_rational_matrix(rng, n)
        if permutation_determinant(m) == 0:
            continue
        assert _inverse(linalg.as_matrix(m)) == brute_inverse(m)
        checked += 1


def test_inverse_times_matrix_is_identity():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = random_rational_matrix(rng, n)
        if permutation_determinant(m) == 0:
            continue
        mm = linalg.as_matrix(m)
        inv = _inverse(mm)
        prod = tuple(
            tuple(
                sum((mm[i][k] * inv[k][j] for k in range(n)), Fraction(0))
                for j in range(n)
            )
            for i in range(n)
        )
        assert prod == linalg.identity(n)


def test_singular_matrix_raises():
    m = linalg.as_matrix([[1, 2], [2, 4]])
    with pytest.raises(SingularityError):
        linalg.solve_columns(m, linalg.identity(2))
    with pytest.raises(SingularityError):
        linalg.solve_columns(m, [(Fraction(1), Fraction(0))])


def test_solve_matches_inverse_application():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = random_rational_matrix(rng, n)
        if permutation_determinant(m) == 0:
            continue
        mm = linalg.as_matrix(m)
        rhs = tuple(Fraction(rng.randint(-6, 6)) for _ in range(n))
        D, (X,) = linalg.solve_columns(mm, [rhs])
        x = tuple(Fraction(v, D) for v in X)
        assert x == mat_vec(brute_inverse(m), rhs)
        assert mat_vec(mm, x) == rhs


def test_is_symmetric():
    assert linalg.is_symmetric(linalg.as_matrix([[1, 2], [2, 3]]))
    assert not linalg.is_symmetric(linalg.as_matrix([[1, 2], [0, 3]]))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, Fraction(1, 2))), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_minors_past_a_zero_pivot_match_bruteforce(m):
    # mostly-zero entries make the unpivoted elimination stop early
    mat = linalg.as_matrix(m)
    minors = linalg.leading_principal_minors(mat)
    assert minors == brute_leading_minors(m)
    pivots = tuple(linalg.iter_pivot_minors(mat))
    assert minors[: len(pivots)] == pivots
    assert len(pivots) == len(m) or pivots[-1] == 0
    assert linalg.det(mat) == permutation_determinant(m)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(("tridiagonal", "banded", "sparse")),
)
def test_elimination_of_sparse_rows_matches_schoolbook_gauss(seed, shape):
    """Bareiss elimination gives what schoolbook Fraction elimination gives:
    the determinant, the leading minors up to the first zero, and exact
    solutions, on tridiagonal and banded matrices of order 100-300 and on
    random sparse ones whose elimination meets zero pivots and zero factors."""
    rng = random.Random(seed)
    if shape == "sparse":
        m = sparse_matrix(rng, rng.randint(5, 40))
    else:
        m = banded_matrix(rng, rng.randint(100, 300), 1 if shape == "tridiagonal" else rng.randint(2, 4))
    mat = tuple(map(tuple, m))
    det = gauss_det(m)
    assert linalg.det(mat) == det
    assert tuple(linalg.iter_pivot_minors(mat)) == gauss_minors(m)
    columns = [tuple(rng.randint(-3, 3) for _ in m), tuple(int(i == 0) for i in range(len(m)))]
    if det == 0:
        with pytest.raises(SingularityError):
            linalg.solve_columns(mat, columns)
        return
    D, X = linalg.solve_columns(mat, columns)
    assert abs(D) == abs(det)
    for col, x in zip(columns, X):
        # m x = D col, in integers over each row's nonzero entries
        assert all(sum(a * x[j] for j, a in enumerate(row) if a) == D * c for row, c in zip(m, col))

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symcone import linalg
from symcone.errors import MalformedInputError, SingularityError

from oracles import (
    brute_inverse,
    brute_leading_minors,
    permutation_determinant,
    random_rational_matrix,
)


def test_as_fraction_accepts_ints_strings_fractions():
    assert linalg.as_fraction(3) == Fraction(3)
    assert linalg.as_fraction("7/2") == Fraction(7, 2)
    assert linalg.as_fraction(Fraction(-1, 3)) == Fraction(-1, 3)


def test_as_fraction_rejects_floats():
    with pytest.raises(MalformedInputError):
        linalg.as_fraction(0.5)


def test_dot_and_mat_vec_match_naive():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = linalg.as_matrix(random_rational_matrix(rng, n))
        v = linalg.as_vector([Fraction(rng.randint(-5, 5)) for _ in range(n)])
        got = linalg.mat_vec(m, v)
        want = tuple(
            sum((m[i][j] * v[j] for j in range(n)), Fraction(0)) for i in range(n)
        )
        assert got == want


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
        assert x == linalg.mat_vec(brute_inverse(m), rhs)
        assert linalg.mat_vec(mm, x) == rhs


def test_submatrix_picks_rows_and_columns():
    m = linalg.as_matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert linalg.submatrix(m, (0, 2)) == linalg.as_matrix([[1, 3], [7, 9]])


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
    pivots = linalg.pivot_minors(mat)
    assert minors[: len(pivots)] == pivots
    assert len(pivots) == len(m) or pivots[-1] == 0
    assert linalg.det(mat) == permutation_determinant(m)

"""Exact linear algebra over the rationals.

Matrices are tuples of rows and vectors are tuples of exact numbers: int
where the data is integral (curve Grams are), Fraction otherwise.  There is
one elimination core, fraction-free (Bareiss): integral input goes into it as
it is, any other input is first scaled to integers by the lcm of its
denominators.  Solving also back-substitutes in integers, so a Fraction is
built only for each number handed back.  Sizes in this package are small
(rank <= 22), so clarity wins over asymptotics.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .errors import MalformedInputError, RangeError, SingularityError

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[int | Fraction, ...], ...]


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or rational string like '3/4' to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInputError(f"not a rational literal: {value!r}") from exc
    raise MalformedInputError(f"not an exact rational: {value!r}")


def format_rational(x: Fraction, where: str = "output") -> str:
    """The text of a number: "p/q", or "p" when integral.  Every number the
    package writes goes through here or format_ratio, so an output past the
    interpreter's digit limit is refused as a RangeError naming it."""
    return format_ratio(x.numerator, x.denominator, where)


def format_ratio(x: int, d: int, where: str = "output") -> str:
    """The text format_rational gives Fraction(x, d), for integers x and
    d > 0, reduced by one gcd without building the Fraction."""
    g = gcd(x, d)
    x, d = x // g, d // g
    try:
        return str(x) if d == 1 else f"{x}/{d}"
    except ValueError:
        raise output_too_long(where) from None


def output_too_long(where: str) -> RangeError:
    """The refusal of an output number past the interpreter's digit limit,
    for writers that reduce and format their numbers inline."""
    limit = sys.get_int_max_str_digits()
    return RangeError(f"{where}: output exceeds the {limit}-digit integer limit")


def as_vector(values: Iterable) -> Vector:
    return tuple(as_fraction(v) for v in values)


def as_matrix(rows: Iterable[Iterable]) -> Matrix:
    mat = tuple(as_vector(row) for row in rows)
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise MalformedInputError("ragged matrix")
    return mat


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def is_symmetric(mat: Matrix) -> bool:
    n = len(mat)
    return all(mat[i][j] == mat[j][i] for i in range(n) for j in range(i + 1, n))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise MalformedInputError("dimension mismatch in dot product")
    # class vectors are mostly sparse; skipping zero terms avoids the bulk of
    # the Fraction allocations in pairing-heavy scans
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


def _integer_rows(mat: Matrix, extra: Sequence[Sequence] = ()) -> tuple[list[list[int]], int]:
    """The one way into elimination: mutable integer rows equal to
    d * [mat | extra columns], with d > 0.

    Integral input is taken as it is (d = 1); any other exact entries are
    scaled by the lcm of their denominators.  Raises MalformedInputError
    unless mat is square and every extra column has its height."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise MalformedInputError("matrix is not square")
    if any(len(col) != n for col in extra):
        raise MalformedInputError("right-hand side has wrong dimension")
    rows = [list(row) + [col[i] for col in extra] for i, row in enumerate(mat)]
    if all(type(x) is int for row in rows for x in row):
        return rows, 1
    rows = [[as_fraction(x) for x in row] for row in rows]
    d = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def _eliminate(rows: list[list[int]], n: int, pivoting: bool = True) -> Iterator[int]:
    """Fraction-free Bareiss elimination (Bareiss 1968, Math. Comp. 22), in
    place, one row at a time.

    Row k is brought through the elimination steps of the pivot rows above
    it; any further columns (right-hand sides) ride along, and every division
    is exact.  Then rows[k][k] is the order-(k+1) leading principal minor of
    the row-permuted input, and the generator yields the sign of the row
    permutation so far, so a caller can stop at any minor.  A zero pivot (with
    pivoting, only when no later row has a nonzero entry in its column) yields
    0 and ends it.  Entries left of the diagonal are not cleared.
    """
    width = len(rows[0]) if rows else 0
    done = [0] * n  # elimination steps applied to each row

    def reduce(i: int, k: int) -> None:
        row = rows[i]
        for s in range(done[i], k):
            top = rows[s]
            pivot, factor, prev = top[s], row[s], rows[s - 1][s - 1] if s else 1
            row[s + 1 : width] = [
                (a * pivot - factor * b) // prev for a, b in zip(row[s + 1 : width], top[s + 1 : width])
            ]
        done[i] = k

    sign = 1
    for k in range(n):
        reduce(k, k)
        if pivoting and rows[k][k] == 0:
            for j in range(k + 1, n):
                reduce(j, k)
                if rows[j][k] != 0:
                    rows[k], rows[j] = rows[j], rows[k]
                    sign = -sign
                    break
        if rows[k][k] == 0:
            yield 0
            return
        yield sign


def det(mat: Matrix) -> Fraction:
    """Determinant by fraction-free Bareiss elimination with row pivoting."""
    rows, d = _integer_rows(mat)
    n = len(rows)
    if n == 0:
        return Fraction(1)
    *_, sign = _eliminate(rows, n)
    return Fraction(sign * rows[n - 1][n - 1], d**n)


def iter_pivot_minors(mat: Matrix) -> Iterator[Fraction]:
    """The leading principal minors, k = 1, 2, ..., up to and including the
    first one that vanishes, each computed only when it is asked for: one
    elimination without pivoting, a row at a time."""
    rows, d = _integer_rows(mat)
    for k, _ in enumerate(_eliminate(rows, len(rows), pivoting=False)):
        yield Fraction(rows[k][k], d ** (k + 1))


def leading_principal_minors(mat: Matrix) -> tuple[Fraction, ...]:
    """The n leading principal minors, k = 1..n; only those past a zero
    pivot need a determinant of their own."""
    minors = tuple(iter_pivot_minors(mat))
    rest = range(len(minors) + 1, len(mat) + 1)
    return minors + tuple(det(tuple(row[:m] for row in mat[:m])) for m in rest)


def solve_columns(mat: Matrix, columns: Sequence[Sequence]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Solve mat @ x = col for each column, fraction-free: returns (D, X)
    with D a nonzero integer and each solution x = X[c] / D.

    Forward elimination runs on the integer rows of the augmented system
    (scaling both sides leaves solutions unchanged).  Back-substitution stays
    in integers: by Cramer's rule D x is integral, D being the last pivot
    (plus or minus the determinant of the scaled system), so every division
    in it is exact.  For an integral mat and the identity columns, X is
    plus or minus the adjugate, in columns.
    """
    rows, _ = _integer_rows(mat, columns)
    n = len(rows)
    if n == 0:
        return 1, tuple(() for _ in columns)
    *_, sign = _eliminate(rows, n)
    if sign == 0:
        raise SingularityError("matrix is singular")
    D = rows[n - 1][n - 1]
    solutions = []
    for c in range(n, n + len(columns)):
        x = [0] * n
        for i in range(n - 1, -1, -1):
            row = rows[i]
            acc = D * row[c] - sum(row[j] * x[j] for j in range(i + 1, n))
            x[i] = acc // row[i]
        solutions.append(tuple(x))
    return D, tuple(solutions)


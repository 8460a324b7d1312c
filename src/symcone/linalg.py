"""Exact linear algebra over the rationals.

Matrices are tuples of tuples of Fraction, vectors are tuples of Fraction.
Everything here is exact: elimination runs fraction-free (Bareiss) on an
integerized copy of the input, and only the final back-substitution returns to
Fraction.  Sizes in this package are small (rank <= 22), so clarity wins over
asymptotics.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import MalformedInputError, RangeError, SingularityError

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]


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
    package writes goes through here, so an output past the interpreter's
    digit limit is refused as a RangeError naming it."""
    try:
        return str(x)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise RangeError(f"{where}: output exceeds the {limit}-digit integer limit") from None


def as_vector(values: Iterable) -> Vector:
    return tuple(as_fraction(v) for v in values)


def as_matrix(rows: Iterable[Iterable]) -> Matrix:
    mat = tuple(as_vector(row) for row in rows)
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise MalformedInputError("ragged matrix")
    return mat


def identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def is_symmetric(mat: Matrix) -> bool:
    n = len(mat)
    return all(mat[i][j] == mat[j][i] for i in range(n) for j in range(i + 1, n))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise MalformedInputError("dimension mismatch in dot product")
    # class vectors are mostly sparse; skipping zero terms avoids the bulk of
    # the Fraction allocations in pairing-heavy scans
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


def mat_vec(mat: Matrix, vec: Sequence[Fraction]) -> Vector:
    return tuple(dot(row, vec) for row in mat)


def submatrix(mat: Matrix, indices: Sequence[int]) -> Matrix:
    return tuple(tuple(mat[i][j] for j in indices) for i in indices)


def _require_square(mat: Matrix) -> int:
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise MalformedInputError("matrix is not square")
    return n


def _integerized(mat: Matrix, extra: Sequence[Sequence[Fraction]] = ()) -> tuple[list[list[int]], int]:
    """Scale [mat | extra-columns] by the lcm of all denominators.

    Returns mutable integer rows and the (positive) multiplier d, so that the
    returned rows equal d * [mat | extra].
    """
    denoms = [entry.denominator for row in mat for entry in row]
    for col in extra:
        denoms.extend(entry.denominator for entry in col)
    d = lcm(*denoms)
    rows = []
    for i, row in enumerate(mat):
        augmented = list(row) + [col[i] for col in extra]
        rows.append([x.numerator * (d // x.denominator) for x in augmented])
    return rows, d


def _eliminate(rows: list[list[int]], n: int, pivoting: bool = True) -> int:
    """Fraction-free Bareiss elimination (Bareiss 1968, Math. Comp. 22), in place.

    Clears the first n columns of the integer rows below the diagonal; any
    further columns (right-hand sides) ride along.  Every division is exact,
    and afterwards rows[k][k] is the order-(k+1) leading principal minor of the
    row-permuted input.  Returns the sign of the row permutation, or 0 when it
    stops at a zero pivot: a column with no nonzero entry left, or, with
    pivoting off, any zero on the diagonal.
    """
    width = len(rows[0]) if rows else 0
    sign = 1
    prev = 1
    for k in range(n - 1):
        if pivoting:
            found = next((i for i in range(k, n) if rows[i][k] != 0), k)
            if found != k:
                rows[k], rows[found] = rows[found], rows[k]
                sign = -sign
        pivot_row = rows[k]
        pivot = pivot_row[k]
        if pivot == 0:
            return 0
        tail = pivot_row[k + 1 : width]
        for i in range(k + 1, n):
            row = rows[i]
            factor = row[k]
            row[k + 1 : width] = [
                (a * pivot - factor * b) // prev for a, b in zip(row[k + 1 : width], tail)
            ]
            row[k] = 0
        prev = pivot
    return sign


def det(mat: Matrix) -> Fraction:
    """Determinant by fraction-free Bareiss elimination with row pivoting."""
    mat = as_matrix(mat)
    n = _require_square(mat)
    if n == 0:
        return Fraction(1)
    rows, d = _integerized(mat)
    sign = _eliminate(rows, n)
    return Fraction(sign * rows[n - 1][n - 1], d**n)


def pivot_minors(mat: Matrix) -> tuple[Fraction, ...]:
    """The leading principal minors, k = 1, 2, ..., up to and including the
    first one that vanishes, read off one elimination without pivoting."""
    mat = as_matrix(mat)
    n = _require_square(mat)
    rows, d = _integerized(mat)
    _eliminate(rows, n, pivoting=False)
    minors = []
    for k in range(n):
        minors.append(Fraction(rows[k][k], d ** (k + 1)))
        if rows[k][k] == 0:
            break
    return tuple(minors)


def leading_principal_minors(mat: Matrix) -> tuple[Fraction, ...]:
    """The n leading principal minors, k = 1..n; only those past a zero
    pivot need a determinant of their own."""
    mat = as_matrix(mat)
    minors = pivot_minors(mat)
    rest = range(len(minors) + 1, len(mat) + 1)
    return minors + tuple(det(submatrix(mat, range(m))) for m in rest)


def solve_columns(mat: Matrix, columns: Sequence[Sequence[Fraction]]) -> tuple[Vector, ...]:
    """Solve mat @ x = col for each column; returns the solution vectors.

    Forward elimination is fraction-free on the integerized augmented system
    (scaling both sides leaves solutions unchanged); back-substitution is done
    in Fraction.
    """
    mat = as_matrix(mat)
    n = _require_square(mat)
    cols = [as_vector(c) for c in columns]
    for c in cols:
        if len(c) != n:
            raise MalformedInputError("right-hand side has wrong dimension")
    if n == 0:
        return tuple(() for _ in cols)
    rows, _ = _integerized(mat, cols)
    if _eliminate(rows, n) == 0 or rows[n - 1][n - 1] == 0:
        raise SingularityError("matrix is singular")
    solutions = []
    for c in range(len(cols)):
        x = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            acc = Fraction(rows[i][n + c])
            for j in range(i + 1, n):
                acc -= rows[i][j] * x[j]
            x[i] = acc / rows[i][i]
        solutions.append(tuple(x))
    return tuple(solutions)


def solve(mat: Matrix, rhs: Sequence[Fraction]) -> Vector:
    return solve_columns(mat, [rhs])[0]


def inverse(mat: Matrix) -> Matrix:
    """Exact inverse; raises SingularityError if none exists."""
    mat = as_matrix(mat)
    n = _require_square(mat)
    cols = [tuple(Fraction(1 if i == j else 0) for i in range(n)) for j in range(n)]
    solved = solve_columns(mat, cols)
    # solved[j] is the j-th column of the inverse
    return tuple(tuple(solved[j][i] for j in range(n)) for i in range(n))

"""Independent reference implementations used to cross-check the package.

Everything in here is deliberately naive (permutation-expansion determinants,
dense brute-force checks), so wrong answers in the package cannot hide behind
a shared algorithm.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from symcone.lattice import ClassVector, CurveData, CurveModel, IntersectionLattice


def permutation_sign(perm) -> int:
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def permutation_determinant(matrix) -> Fraction:
    """Leibniz expansion; fine up to 6x6."""
    n = len(matrix)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        term = Fraction(permutation_sign(perm))
        for i in range(n):
            term *= Fraction(matrix[i][perm[i]])
        total += term
    return total


def brute_leading_minors(matrix) -> tuple[Fraction, ...]:
    n = len(matrix)
    return tuple(
        permutation_determinant([row[: k + 1] for row in matrix[: k + 1]])
        for k in range(n)
    )


def brute_inverse(matrix) -> tuple[tuple[Fraction, ...], ...]:
    """Cofactor inverse."""
    n = len(matrix)
    d = permutation_determinant(matrix)
    if d == 0:
        raise ZeroDivisionError("singular")
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [
                [Fraction(matrix[r][c]) for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            cof = permutation_determinant(minor) if n > 1 else Fraction(1)
            row.append((-1) ** (i + j) * cof / d)
        out.append(tuple(row))
    return tuple(out)


def random_rational_matrix(rng: random.Random, n: int):
    return [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        for _ in range(n)
    ]


def random_negative_definite(rng: random.Random, max_rank: int = 6):
    """Symmetric, integer, nonnegative off-diagonal, all entries bounded by 8.

    Strict diagonal dominance with negative diagonal forces negative
    definiteness (Gershgorin), independently of any code under test."""
    n = rng.randint(1, max_rank)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                m[i][j] = m[j][i] = 1
    for i in range(n):
        row = sum(m[i][j] for j in range(n) if j != i)
        m[i][i] = -(row + 1 + rng.randint(0, min(2, 7 - row)))
    return tuple(tuple(v for v in row) for row in m)


def random_curve_model(rng: random.Random, max_rank: int = 5):
    """A model whose curves are basis vectors with a random admissible Gram,
    plus an orthogonal reference class of large positive square."""
    curve_gram = random_negative_definite(rng, max_rank)
    n = len(curve_gram)
    gram = [[0] * (n + 1) for _ in range(n + 1)]
    gram[0][0] = 1000
    for i in range(n):
        for j in range(n):
            gram[i + 1][j + 1] = curve_gram[i][j]
    lattice = IntersectionLattice(
        gram=tuple(tuple(Fraction(v) for v in row) for row in gram),
        basis_labels=("w",) + tuple(f"c{i}" for i in range(n)),
        reference_class=ClassVector.basis(n + 1, 0),
    )
    curves = tuple(
        CurveData(
            label=f"c{i}",
            vector=ClassVector.basis(n + 1, i + 1),
            genus=rng.randint(0, 2),
        )
        for i in range(n)
    )
    return CurveModel(lattice=lattice, curves=curves, completeness_assumed=True)


def interior_class(model: CurveModel, rng: random.Random) -> ClassVector:
    """A class pairing strictly positively with every curve: start from the
    reference class and push along -M^{-1} applied to a positive vector."""
    from symcone.lattice import neg_inverse

    n = len(model.curves)
    inv = neg_inverse(model.curve_gram())
    targets = [Fraction(rng.randint(1, 3)) for _ in range(n)]
    # with u = (-M^{-1}) targets >= 0, w - sum u_i e_i pairs exactly targets_i
    u = [sum(inv[i][j] * targets[j] for j in range(n)) for i in range(n)]
    vec = model.lattice.reference_class
    for i, c in enumerate(model.curves):
        vec = vec - c.vector.scale(u[i])
    return vec


def folded_combination(model: CurveModel, indices, coefficients) -> ClassVector:
    """sum c_i e_i as a fold of class sums and scalings, one curve at a time."""
    out = ClassVector.zero(model.lattice.rank)
    for i, c in zip(indices, coefficients):
        out = out + model.curves[i].vector.scale(c)
    return out


def plain_pair(lattice: IntersectionLattice, a: ClassVector, b: ClassVector) -> Fraction:
    """a.b summed entry by entry over the Fraction coordinates and the Gram."""
    return sum(
        (
            x * lattice.gram[i][j] * y
            for i, x in enumerate(a.coords) if x
            for j, y in enumerate(b.coords) if y
        ),
        Fraction(0),
    )


def first_kahler_scale(model: CurveModel, start: ClassVector, direction: ClassVector, scales):
    """The walk the planner's sweeps once made: build start - s direction for
    each s in turn and test it, positive cone first, then every curve.
    Returns (s, None) for the first interior-Kähler class, else (None, the
    check that fails at the last scale), named as CurveModel names it."""
    lat = model.lattice
    failing = None
    for s in scales:
        base = start - direction.scale(s)
        if plain_pair(lat, base, base) <= 0:
            failing = "square"
        elif plain_pair(lat, base, lat.reference_class) <= 0:
            failing = "reference pairing"
        else:
            failing = next(
                (f"pairing with {c.label}" for c in model.curves if plain_pair(lat, base, c.vector) <= 0),
                None,
            )
            if failing is None:
                return s, None
    return None, failing

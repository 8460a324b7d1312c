"""Independent reference implementations used to cross-check the package.

Everything in here is deliberately naive (permutation-expansion determinants,
dense brute-force checks), so wrong answers in the package cannot hide behind
a shared algorithm.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from symcone.errors import ConnectivityError, MalformedInputError, PositivityError, PreconditionError
from symcone.lattice import ClassVector, CurveData, CurveModel, IntersectionLattice
from symcone.linalg import format_rational


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


def gauss_pivots(matrix, exchange: bool = False) -> tuple[list[Fraction], int]:
    """(pivots, sign) of schoolbook Gaussian elimination over Fractions, on
    rows kept as dicts of their nonzero entries: each pivot in order, up to
    and including the first that is zero.  With exchange, a zero pivot is
    first swapped for the next row below with a nonzero entry in its column,
    and sign is the sign of the row permutation."""
    n = len(matrix)
    rows = [{j: Fraction(x) for j, x in enumerate(row) if x} for row in matrix]
    pivots, sign = [], 1
    for k in range(n):
        if exchange and k not in rows[k]:
            below = next((i for i in range(k + 1, n) if k in rows[i]), None)
            if below is not None:
                rows[k], rows[below] = rows[below], rows[k]
                sign = -sign
        pivot = rows[k].get(k, Fraction(0))
        pivots.append(pivot)
        if not pivot:
            break
        for i in range(k + 1, n):
            factor = rows[i].pop(k, None)
            if factor is None:
                continue
            for j, x in rows[k].items():
                if j > k:
                    y = rows[i].get(j, 0) - factor / pivot * x
                    if y:
                        rows[i][j] = y
                    else:
                        rows[i].pop(j, None)
    return pivots, sign


def gauss_det(matrix) -> Fraction:
    """The determinant as sign times the product of the exchanged pivots."""
    pivots, sign = gauss_pivots(matrix, exchange=True)
    if len(pivots) < len(matrix) or not pivots[-1]:
        return Fraction(0)
    return sign * math.prod(pivots, start=Fraction(1))


def gauss_minors(matrix) -> tuple[Fraction, ...]:
    """The leading principal minors up to and including the first zero one:
    running products of the pivots found without exchanges."""
    minors, total = [], Fraction(1)
    for pivot in gauss_pivots(matrix)[0]:
        total *= pivot
        minors.append(total)
    return tuple(minors)


def banded_matrix(rng: random.Random, n: int, width: int, zeros: float = 0.3) -> list[list[int]]:
    """An n x n integer matrix with entries in -5..5 on the diagonals |i - j| <= width,
    each zero with probability zeros, and zero elsewhere."""
    return [
        [rng.randint(-5, 5) if abs(i - j) <= width and rng.random() >= zeros else 0 for j in range(n)]
        for i in range(n)
    ]


def sparse_matrix(rng: random.Random, n: int, density: float = 0.2) -> list[list[int]]:
    """An n x n integer matrix whose entries are nonzero with probability
    density, and whose diagonal is mostly zero, so that elimination meets
    zero pivots and zero factors."""
    return [
        [rng.randint(-4, 4) if rng.random() < (density / 3 if i == j else density) else 0 for j in range(n)]
        for i in range(n)
    ]


def mat_vec(matrix, vector) -> tuple[Fraction, ...]:
    """Row-by-row matrix-vector product."""
    return tuple(sum((Fraction(a) * b for a, b in zip(row, vector)), Fraction(0)) for row in matrix)


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


def chain_model(squares, genera=None, edges=None) -> CurveModel:
    """Reference class w, then one curve per square, linked along a path
    unless explicit edges are given."""
    n = len(squares)
    genera = genera if genera is not None else [0] * n
    if edges is None:
        edges = [(i, i + 1) for i in range(n - 1)]
    gram = [[0] * (n + 1) for _ in range(n + 1)]
    gram[0][0] = 1000
    for i, sq in enumerate(squares):
        gram[i + 1][i + 1] = sq
    for a, b in edges:
        gram[a + 1][b + 1] = gram[b + 1][a + 1] = 1
    lattice = IntersectionLattice(
        gram=tuple(tuple(Fraction(v) for v in row) for row in gram),
        basis_labels=("w",) + tuple(f"x{i}" for i in range(n)),
        reference_class=ClassVector.basis(n + 1, 0),
    )
    curves = tuple(
        CurveData(f"x{i}", ClassVector.basis(n + 1, i + 1), genera[i])
        for i in range(n)
    )
    return CurveModel(lattice=lattice, curves=curves, completeness_assumed=True)


def twisted_curve_model(rng: random.Random, max_rank: int = 5):
    """random_curve_model under a random unimodular change of basis U, so
    that curves and the reference class mostly have several nonzero terms:
    a class with old coordinates x has new coordinates U^{-1} x, and the
    new Gram is U^T G U.  Every pairing, and so every outcome, is the
    untwisted model's."""
    model = random_curve_model(rng, max_rank)
    lat = model.lattice
    n = lat.rank
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for _ in range(2 * n):
        # U <- U E and U^{-1} <- E^{-1} U^{-1} for E = I + c e_i e_j^T
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in u:
            row[j] += c * row[i]
        u_inv[i] = [a - c * b for a, b in zip(u_inv[i], u_inv[j])]
    assert all(sum(u[i][k] * u_inv[k][j] for k in range(n)) == int(i == j) for i in range(n) for j in range(n))
    gram = tuple(
        tuple(sum(u[k][a] * lat.gram[k][m] * u[m][b] for k in range(n) for m in range(n)) for b in range(n))
        for a in range(n)
    )

    def moved(vec: ClassVector) -> ClassVector:
        return ClassVector(sum(u_inv[i][k] * x for k, x in enumerate(vec.coords)) for i in range(n))

    lattice = IntersectionLattice(
        gram=gram, basis_labels=lat.basis_labels, reference_class=moved(lat.reference_class)
    )
    curves = tuple(CurveData(c.label, moved(c.vector), c.genus) for c in model.curves)
    return CurveModel(lattice=lattice, curves=curves, completeness_assumed=True)


def dense_gram_product(lattice: IntersectionLattice, a: ClassVector) -> tuple[Fraction, ...]:
    """G @ (d a), d the least common denominator of a's coordinates, summed
    over every Gram entry and every coordinate."""
    d = math.lcm(*(x.denominator for x in a.coords))
    return tuple(sum((g * x * d for g, x in zip(row, a.coords)), Fraction(0)) for row in lattice.gram)


def interior_class(model: CurveModel, rng: random.Random) -> ClassVector:
    """A class pairing strictly positively with every curve: start from the
    reference class and push along -M^{-1} applied to a positive vector."""
    from symcone.lattice import neg_inverse

    n = len(model.curves)
    inv = neg_inverse(model.curve_gram())
    targets = [Fraction(rng.randint(1, 3)) for _ in range(n)]
    # with u = (-M^{-1}) targets >= 0, w - sum u_i e_i pairs exactly targets_i
    u = [sum(Fraction(a, inv.det) * t for a, t in zip(row, targets)) for row in inv.adjugate]
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


def dense_smoothing(state, constituent_ids, reinstate_ids, new_id: str) -> tuple[ClassVector, int]:
    """The class and genus of the surface a smoothing of alive constituents
    makes, the dense way: every pairing of two constituents by plain_pair,
    connectivity by a closure over that matrix, the class by repeated +.
    Refusals raise what smooth_and_reinstate raises, in its order and
    with its messages: a non-positive area, a disconnected configuration,
    a reinstatement short of meets, a negative genus (constituents that
    pair negatively, past the state check, can make one), a negative
    pairing with the result."""
    lat = state.lattice
    objs = [next(o for o in state.objects if o.id == cid) for cid in constituent_ids]
    for o in objs:
        if plain_pair(lat, state.current_class, o.vector) <= 0:
            raise PreconditionError(f"constituent {o.id!r} has non-positive area")
    n = len(objs)
    pairings = [[plain_pair(lat, a.vector, b.vector) for b in objs] for a in objs]
    reached = {0}
    while True:
        more = {j for i in reached for j in range(n) if j != i and pairings[i][j] > 0} - reached
        if not more:
            break
        reached |= more
    if len(reached) != n:
        raise ConnectivityError("constituents do not form a connected configuration")
    total = objs[0].vector
    for o in objs[1:]:
        total = total + o.vector
    for i, o in enumerate(objs):
        need = -pairings[i][i]
        count = sum(pairings[i]) + need
        if o.id in reinstate_ids and count < need:
            raise PreconditionError(f"cannot reinstate {o.id!r}: meets the rest {count} times, needs {need}")
    double_points = sum(pairings[i][j] for i in range(n) for j in range(i + 1, n))
    genus = sum(o.genus for o in objs) + double_points - (n - 1)
    if genus < 0:
        raise MalformedInputError(f"object {new_id!r} needs a nonnegative integer genus")
    gone = set(constituent_ids) - set(reinstate_ids)
    for o in state.objects:
        if o.alive and o.id not in gone and plain_pair(lat, o.vector, total) < 0:
            raise PositivityError(f"alive objects {o.id!r} and {new_id!r} pair negatively")
    return total, int(genus)


def class_texts(vec: ClassVector) -> tuple[str, ...]:
    """Each Fraction coordinate as format_rational writes it."""
    return tuple(format_rational(c, "class") for c in vec.coords)


def class_line(number: int, vec: ClassVector) -> str:
    """A replay's class line: the repr of the class's texts."""
    return f"class after move {number}: {class_texts(vec)!r}"


def area_line(state) -> str:
    """A replay's areas line: each alive object's pairing with the state's
    class, summed entry by entry over Fractions."""
    parts = [
        f"{o.id}={format_rational(plain_pair(state.lattice, state.current_class, o.vector), 'area')}"
        for o in state.objects
        if o.alive
    ]
    return "areas: " + (", ".join(parts) if parts else "(none)")


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


def alive_objects(state) -> tuple:
    """The state's alive objects, in slot order."""
    return tuple(o for o in state.objects if o.alive)


def expected_dimension(lattice: IntersectionLattice, e: ClassVector, genus: int) -> Fraction:
    """2(genus - 1 - K.e), K.e by plain_pair."""
    return 2 * (genus - 1 - plain_pair(lattice, lattice.canonical_class, e))


def single_curve_shift(lattice: IntersectionLattice, alpha: ClassVector, e: ClassVector) -> Fraction:
    """A rational s with alpha^2 + 2s|w| > s^2 k, for w = alpha.e < 0 and
    e^2 = -k, searched as 2|w|/k + 2^-j for j = 0, 1, ..., each pairing by
    plain_pair."""
    w = plain_pair(lattice, alpha, e)
    k = -plain_pair(lattice, e, e)
    a2 = plain_pair(lattice, alpha, alpha)
    for j in range(64):
        s = 2 * -w / k + Fraction(1, 2**j)
        if a2 + 2 * s * -w > s * s * k:
            return s
    raise AssertionError("no shift found")


def boundary_to_interior(model: CurveModel, corner: ClassVector, indices, v) -> tuple[tuple[Fraction, ...], Fraction]:
    """(s, r) for walking a corner class back into the interior: s = -M^{-1} v
    by the cofactor inverse of the curves' plain_pair Gram, and r the first
    dyadic 2^-j (j < 64) at which corner - r sum s_i e_i is interior-Kähler,
    by first_kahler_scale."""
    curves = [model.curves[i].vector for i in indices]
    gram = [[plain_pair(model.lattice, a, b) for b in curves] for a in curves]
    s = tuple(-x for x in mat_vec(brute_inverse(gram), v))
    shift = folded_combination(model, indices, s)
    r, _ = first_kahler_scale(model, corner, shift, (Fraction(1, 2**j) for j in range(64)))
    return s, r


def ag23_automorphisms() -> list[tuple[int, ...]]:
    """The 432 affine maps x -> Ax + b of the plane over F_3 (A invertible),
    each as a permutation of the 21 kk-extended curve indices: C1..C9 are
    indices 0..8, with Ck the point ((k-1) // 3, (k-1) % 3), and D_t is
    index 9 + (the position of t in models.TRIPLES), the line through the
    three points of t.  An affine map sends lines to lines, so each is a
    relabelling of the curves that keeps every meet."""
    from symcone.models import TRIPLES

    points = [(p // 3, p % 3) for p in range(9)]
    lines = {frozenset(int(k) - 1 for k in t): b for b, t in enumerate(TRIPLES)}
    out = []
    for a, b, c, d in itertools.product(range(3), repeat=4):
        if (a * d - b * c) % 3 == 0:
            continue
        for u, v in itertools.product(range(3), repeat=2):
            image = [3 * ((a * x + b * y + u) % 3) + (c * x + d * y + v) % 3 for x, y in points]
            perm = image + [
                9 + lines[frozenset(image[p] for p in line)] for line in sorted(lines, key=lines.get)
            ]
            out.append(tuple(perm))
    return out

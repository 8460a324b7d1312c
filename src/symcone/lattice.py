"""Intersection lattices, class vectors, and curve models.

An IntersectionLattice is a finitely generated free module with an integral
symmetric pairing, optionally carrying a distinguished canonical class and a
reference class of positive square.  A CurveModel decorates a lattice with a
finite list of negative-square curve classes and their genera.

Classes and pairings run in integers.  A class vector is stored in integer
form: a denominator d and its nonzero (index, numerator) terms, normalized by
one gcd; its Fraction coordinates are a view derived from that.  The lattice
keeps its Gram matrix as sparse rows of its nonzero integer entries (a KK row
has at most five).  A pairing sums integer products over nonzero terms only
and divides by the two denominators once, so the result is a single exact
Fraction.

A curve model builds the integer Gram of its declared curves once, when it
checks their squares and meets; every later square or pairing of two declared
curves reads it.  Adjunction is checked by adjunction_check alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from . import linalg
from .errors import (
    ConfigurationError,
    DefinitenessError,
    DomainError,
    MalformedInputError,
    ModelInconsistencyError,
    PreconditionError,
    SingularityError,
)


@dataclass(frozen=True, init=False)
class ClassVector:
    """A lattice class in basis coordinates, exact throughout.

    Its data is its integer form (d, terms): a denominator d > 0 and the
    nonzero (index, numerator) terms in index order, with coordinate i equal
    to numerator_i / d and gcd(d, numerators) = 1.  That form is unique, so
    equality and hashing compare it exactly, and +, - and scale run in
    integers.  coords is the Fraction view of it."""

    rank: int
    integer_form: tuple[int, tuple[tuple[int, int], ...]]

    def __init__(self, coords: Iterable):
        values = linalg.as_vector(coords)
        d = lcm(*(c.denominator for c in values))
        terms = tuple((i, c.numerator * (d // c.denominator)) for i, c in enumerate(values) if c)
        object.__setattr__(self, "rank", len(values))
        object.__setattr__(self, "integer_form", (d, terms))

    @classmethod
    def from_integer_form(cls, rank: int, d: int, terms: Iterable[tuple[int, int]]) -> "ClassVector":
        """The class with coordinates numerator_i / d, for d > 0 and terms
        listed by index; zero numerators are dropped."""
        terms = tuple((i, x) for i, x in terms if x)
        g = gcd(d, *(x for _, x in terms))
        if g > 1:
            d //= g
            terms = tuple((i, x // g) for i, x in terms)
        vec = object.__new__(cls)
        object.__setattr__(vec, "rank", rank)
        object.__setattr__(vec, "integer_form", (d, terms))
        return vec

    @classmethod
    def zero(cls, rank: int) -> "ClassVector":
        return cls.from_integer_form(rank, 1, ())

    @classmethod
    def basis(cls, rank: int, index: int) -> "ClassVector":
        if not 0 <= index < rank:
            raise MalformedInputError(f"basis index {index} out of range for rank {rank}")
        return cls.from_integer_form(rank, 1, ((index, 1),))

    @cached_property
    def coords(self) -> tuple[Fraction, ...]:
        d, terms = self.integer_form
        out = [Fraction(0)] * self.rank
        for i, x in terms:
            out[i] = Fraction(x, d)
        return tuple(out)

    def texts(self, where: str = "class") -> tuple[str, ...]:
        """Each coordinate as format_rational writes it, from the integer form."""
        d, terms = self.integer_form
        out = ["0"] * self.rank
        for i, x in terms:
            out[i] = linalg.format_ratio(x, d, where)
        return tuple(out)

    @property
    def is_integral(self) -> bool:
        return self.integer_form[0] == 1

    def _combine(self, other: "ClassVector", sign: int) -> "ClassVector":
        """self + sign * other, over the two lists of nonzero terms."""
        if self.rank != other.rank:
            raise MalformedInputError("class vectors live in different lattices")
        (da, ta), (db, tb) = self.integer_form, other.integer_form
        d = lcm(da, db)
        ma, mb = d // da, sign * (d // db)
        acc = {i: x * ma for i, x in ta}
        for i, x in tb:
            acc[i] = acc.get(i, 0) + x * mb
        return ClassVector.from_integer_form(self.rank, d, sorted(acc.items()))

    def __add__(self, other: "ClassVector") -> "ClassVector":
        return self._combine(other, 1)

    def __sub__(self, other: "ClassVector") -> "ClassVector":
        return self._combine(other, -1)

    def __neg__(self) -> "ClassVector":
        return self.scale(-1)

    def scale(self, factor) -> "ClassVector":
        f = linalg.as_fraction(factor)
        d, terms = self.integer_form
        p, q = f.numerator, f.denominator
        return ClassVector.from_integer_form(self.rank, d * q, ((i, x * p) for i, x in terms))

    def __mul__(self, factor) -> "ClassVector":
        return self.scale(factor)

    __rmul__ = __mul__


def is_negative_definite(gram: linalg.Matrix) -> bool:
    """Sylvester test: the k-th leading principal minor has sign (-1)^k.  The
    minors come lazily; the first of the wrong sign (or zero) ends it."""
    return all(
        (minor > 0 if k % 2 == 0 else minor < 0)
        for k, minor in enumerate(linalg.iter_pivot_minors(gram), start=1)
    )


class NegInverse(tuple):
    """-M^{-1} as rows of Fractions that also keep their fraction-free form:
    -M^{-1} = adjugate / det, with det a positive integer and adjugate a
    nonnegative integer matrix (det(-M) and adj(-M) when M is integral)."""

    def __new__(cls, det: int, adjugate: tuple[tuple[int, ...], ...]):
        self = super().__new__(cls, (tuple(Fraction(x, det) for x in row) for row in adjugate))
        self.det, self.adjugate = det, adjugate
        return self


def neg_inverse(gram: linalg.Matrix) -> NegInverse:
    """-gram^{-1} for a negative definite gram with nonnegative off-diagonal
    entries, from one fraction-free solve against the identity, which also
    decides definiteness (else DefinitenessError): -gram is a symmetric
    Z-matrix, positive definite iff invertible with a nonnegative inverse
    (Berman and Plemmons, Nonnegative Matrices in the Math. Sciences, ch. 6)."""
    if not linalg.is_symmetric(gram):
        raise PreconditionError("matrix is not symmetric")
    n = len(gram)
    if any(gram[i][j] < 0 for i in range(n) for j in range(n) if i != j):
        raise PreconditionError("off-diagonal entries must be nonnegative")
    try:
        D, columns = linalg.solve_columns(gram, linalg.identity(n))
    except SingularityError:
        raise DefinitenessError("matrix is not negative definite") from None
    # columns[j] is D times column j of gram^{-1}; flip to a positive det
    flip = -1 if D > 0 else 1
    adjugate = tuple(tuple(flip * col[i] for col in columns) for i in range(n))
    if any(x < 0 for row in adjugate for x in row):
        raise DefinitenessError("matrix is not negative definite")
    return NegInverse(abs(D), adjugate)


def pairing_components(pairings: Sequence[Sequence]) -> list[tuple[int, ...]]:
    """Connected components of the dual graph of a pairing matrix: positions
    i != j are joined when pairings[i][j] > 0.  Each component is sorted, and
    they come in order of their least position."""
    n = len(pairings)
    seen: set[int] = set()
    parts = []
    for start in range(n):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for i in comp:  # grows as the search reaches new positions
            for j in range(n):
                if j not in seen and pairings[i][j] > 0:
                    seen.add(j)
                    comp.append(j)
        parts.append(tuple(sorted(comp)))
    return parts


@dataclass(frozen=True)
class IntersectionLattice:
    """Integral symmetric pairing with optional canonical and reference data.

    The Gram matrix may be given in any exact rationals; it is stored as a
    tuple of tuples of int once it is checked to be square, symmetric and
    integral."""

    gram: tuple[tuple[int, ...], ...]
    basis_labels: tuple[str, ...] = ()
    canonical_class: ClassVector | None = None
    reference_class: ClassVector | None = None

    def __post_init__(self):
        gram = tuple(tuple(row) for row in self.gram)
        plain = all(type(x) is int for row in gram for x in row)
        if not plain:
            gram = linalg.as_matrix(gram)  # coerces rationals, names anything else
        elif gram and any(len(row) != len(gram[0]) for row in gram):
            raise MalformedInputError("ragged matrix")
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise MalformedInputError("Gram matrix must be square")
        # (column, entry) for every nonzero entry of each row; symmetry and
        # integrality are read off these alone
        rows = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in gram)
        if any(gram[j][i] != x for i, row in enumerate(rows) for j, x in row):
            raise ModelInconsistencyError("Gram matrix must be symmetric")
        if not plain:
            if any(x.denominator != 1 for row in rows for _, x in row):
                raise ModelInconsistencyError("Gram entries must be integers")
            gram = tuple(tuple(x.numerator for x in row) for row in gram)
            rows = tuple(tuple((j, x.numerator) for j, x in row) for row in rows)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_rows", rows)
        labels = tuple(self.basis_labels) if self.basis_labels else tuple(
            f"e{i}" for i in range(n)
        )
        if len(labels) != n:
            raise MalformedInputError("label count does not match rank")
        if len(set(labels)) != n:
            raise MalformedInputError("basis labels must be distinct")
        object.__setattr__(self, "basis_labels", labels)
        for name in ("canonical_class", "reference_class"):
            vec = getattr(self, name)
            if vec is not None and vec.rank != n:
                raise MalformedInputError(f"{name} has wrong rank")
        if self.reference_class is not None:
            if self.square(self.reference_class) <= 0:
                raise ModelInconsistencyError("reference class must have positive square")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def entry_bits(self) -> int:
        """Bit length of the largest absolute Gram entry."""
        return max((abs(x) for row in self._rows for _, x in row), default=0).bit_length()

    def scaled_pairings(self, a: ClassVector, vectors: Sequence[ClassVector]) -> list[int]:
        """The pairing kernel: d_a d_v pair(a, v) for every v, in integers,
        where d is a vector's least common denominator.  The scalings are
        positive, so each result has the sign of its pairing.  Each v takes
        its dot product with the Gram product of a over its own nonzero
        terms."""
        product = self.gram_product(a)
        n = len(product)
        out = []
        for v in vectors:
            if v.rank != n:
                raise MalformedInputError("class vector rank does not match lattice")
            out.append(sum(x * product[i] for i, x in v.integer_form[1]))
        return out

    def pairings(self, a: ClassVector, vectors: Iterable[ClassVector]) -> tuple[Fraction, ...]:
        """pair(a, v) for every v, from one Gram product of a."""
        vectors = tuple(vectors)
        da = a.integer_form[0]
        return tuple(
            Fraction(x, da * v.integer_form[0])
            for x, v in zip(self.scaled_pairings(a, vectors), vectors)
        )

    def pair(self, a: ClassVector, b: ClassVector) -> Fraction:
        if len(a.integer_form[1]) > len(b.integer_form[1]):
            a, b = b, a  # the Gram is symmetric: expand the sparser one
        return self.pairings(a, (b,))[0]

    def square(self, a: ClassVector) -> Fraction:
        return self.pair(a, a)

    def gram_product(self, a: ClassVector) -> list[int]:
        """G @ (d_a a) in integers, from a's nonzero terms alone: G is
        symmetric, so its columns are the sparse rows."""
        rows = self._rows
        if a.rank != len(rows):
            raise MalformedInputError("class vector rank does not match lattice")
        product = [0] * len(rows)
        for j, x in a.integer_form[1]:
            for i, g in rows[j]:
                product[i] += x * g
        return product

    def gram_vector(self, a: ClassVector) -> linalg.Vector:
        """G @ a, exactly."""
        return tuple(Fraction(x, a.integer_form[0]) for x in self.gram_product(a))

    def is_positive_cone(self, a: ClassVector) -> bool:
        """Positive square and positive pairing with the reference class."""
        if self.reference_class is None:
            raise ConfigurationError("positive cone needs a reference class")
        # scaled pairings have the signs of the pairings
        square, reference = self.scaled_pairings(a, (a, self.reference_class))
        return square > 0 and reference > 0

    def expected_dimension(self, e: ClassVector, genus: int) -> Fraction:
        """2(genus - 1 - K.e).  Equals 2(e^2 + 1 - genus) exactly when the
        adjunction relation holds; use adjunction_check to test that."""
        if self.canonical_class is None:
            raise ConfigurationError("expected dimension needs a canonical class")
        return 2 * (Fraction(genus) - 1 - self.pair(self.canonical_class, e))

    def adjunction_check(self, e: ClassVector, genus: int) -> bool:
        if self.canonical_class is None:
            raise ConfigurationError("adjunction check needs a canonical class")
        return 2 * Fraction(genus) - 2 == self.square(e) + self.pair(
            self.canonical_class, e
        )


@dataclass(frozen=True)
class CurveData:
    """A declared curve: label, integral homology class, nonnegative genus."""

    label: str
    vector: ClassVector
    genus: int

    def __post_init__(self):
        if not isinstance(self.genus, int) or self.genus < 0:
            raise MalformedInputError(f"genus of {self.label!r} must be a nonnegative integer")
        if not self.vector.is_integral:
            raise MalformedInputError(f"curve {self.label!r} must have integer coordinates")


@dataclass(frozen=True)
class CurveModel:
    """A lattice together with finitely many negative-square curves.

    completeness_assumed records whether the curve list is taken to cut out the
    full chamber structure; operations asserting a class is actually Kähler
    require it.
    """

    lattice: IntersectionLattice
    curves: tuple[CurveData, ...]
    completeness_assumed: bool = False

    def __post_init__(self):
        curves = tuple(self.curves)
        object.__setattr__(self, "curves", curves)
        if len(set(self.labels)) != len(curves):
            raise ModelInconsistencyError("curve labels must be distinct")
        # the square and meet checks read the curve Gram, which later uses share
        gram, lattice = self._gram, self.lattice
        for i, c in enumerate(curves):
            sq = gram[i][i]
            if sq >= 0:
                raise ModelInconsistencyError(
                    f"curve {c.label!r} has square {sq}; curves must have negative square"
                )
            if lattice.canonical_class is not None and not lattice.adjunction_check(c.vector, c.genus):
                raise ModelInconsistencyError(
                    f"curve {c.label!r} violates adjunction for genus {c.genus}"
                )
        for i, a in enumerate(curves):
            for j in range(i + 1, len(curves)):
                if gram[i][j] < 0:
                    raise ModelInconsistencyError(
                        f"curves {a.label!r} and {curves[j].label!r} pair negatively"
                    )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.curves)

    def curve(self, label: str) -> CurveData:
        return self.curves[self.index_of(label)]

    def index_of(self, label: str) -> int:
        for i, c in enumerate(self.curves):
            if c.label == label:
                return i
        raise MalformedInputError(f"no curve labelled {label!r}")

    def pairings_with(self, a: ClassVector) -> tuple[Fraction, ...]:
        """pair(a, curve) for every declared curve, via one Gram product."""
        return self.lattice.pairings(a, (c.vector for c in self.curves))

    def combination(self, indices: Iterable[int], coefficients: Iterable) -> ClassVector:
        """sum c_i e_i over the curves e_i of indices, in one integer pass: the
        curve classes are integral, so d, the lcm of the c_i's denominators,
        clears every coordinate."""
        coefficients = [linalg.as_fraction(c) for c in coefficients]
        d = lcm(*(c.denominator for c in coefficients))
        acc: dict[int, int] = {}
        for i, c in zip(indices, coefficients, strict=True):
            for j, x in self.curves[i].vector.integer_form[1]:
                acc[j] = acc.get(j, 0) + c.numerator * (d // c.denominator) * x
        return ClassVector.from_integer_form(self.lattice.rank, d, sorted(acc.items()))

    def is_interior_kahler(self, a: ClassVector) -> bool:
        """Positive cone and strictly positive on every declared curve."""
        zero = ClassVector.zero(self.lattice.rank)
        return self.first_interior_scale(a, zero, (0,))[0] is not None

    def first_interior_scale(
        self, start: ClassVector, direction: ClassVector, scales: Iterable[Fraction]
    ) -> tuple[Fraction | None, str | None]:
        """(s, None) for the first s of scales at which start - s direction
        is interior-Kähler, else (None, the check that fails at the last
        scale): "square", "reference pairing" or "pairing with <label>",
        the first failing in that order.

        Every check is a form in s read off the Gram products of start and
        direction: the square is a quadratic, each pairing a linear form.
        This asserts Kähler-ness of a class, which is only meaningful when the
        curve list is assumed complete; without that flag the answer would be
        an overclaim, so the call is refused."""
        if not self.completeness_assumed:
            raise ConfigurationError(
                "model does not assume completeness; cannot assert Kähler classes"
            )
        lat = self.lattice
        if lat.reference_class is None:
            raise ConfigurationError("positive cone needs a reference class")
        (ds, ts), (df, tf) = start.integer_form, direction.integer_form
        ps, pf = lat.gram_product(start), lat.gram_product(direction)

        def forms(terms) -> tuple[int, int]:
            # (d_s d_x start.x, d_f d_x direction.x) for x of terms
            return sum(x * ps[i] for i, x in terms), sum(x * pf[i] for i, x in terms)

        ss, sf = forms(ts)
        ff = forms(tf)[1]
        linear = [("reference pairing", *forms(lat.reference_class.integer_form[1]))]
        linear += [(f"pairing with {c.label}", *forms(c.vector.integer_form[1])) for c in self.curves]
        failing = None
        for s in scales:
            # for s = p/q the class (q d_f d_s)(start - s direction) is
            # a (d_s start) - b (d_f direction)
            a, b = s.denominator * df, s.numerator * ds
            if a * a * ss - 2 * a * b * sf + b * b * ff <= 0:
                failing = "square"
                continue
            failing = next((name for name, x, y in linear if a * x <= b * y), None)
            if failing is None:
                return s, None
        return None, failing

    @cached_property
    def coefficient_bits(self) -> int:
        """Bits of the largest sum of absolute coefficients of a declared
        curve's class: with a class's Gram product it bounds the curves'
        pairings with that class."""
        return max(
            (sum(abs(x) for _, x in c.vector.integer_form[1]).bit_length() for c in self.curves),
            default=0,
        )

    @cached_property
    def _gram(self) -> tuple[tuple[int, ...], ...]:
        # curve classes are integral, so scaled pairings are the pairings
        vectors = [c.vector for c in self.curves]
        return tuple(tuple(self.lattice.scaled_pairings(a, vectors)) for a in vectors)

    def curve_gram(self, indices: Sequence[int] | None = None) -> tuple[tuple[int, ...], ...]:
        """Integer Gram matrix of the declared curves, or of a subset by index
        in the order given.  The full Gram is built once per model, by its checks; a
        subset is a slice of it.  An index outside the curve list raises
        DomainError."""
        gram = self._gram
        if indices is None:
            return gram
        idx = tuple(indices)
        for i in idx:
            if not 0 <= i < len(gram):
                raise DomainError(f"curve index {i} out of range")
        return tuple(tuple(gram[i][j] for j in idx) for i in idx)

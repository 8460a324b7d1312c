"""Intersection lattices, class vectors, and curve models.

An IntersectionLattice is a finitely generated free module with an integral
symmetric pairing, optionally carrying a distinguished canonical class and a
reference class of positive square.  A CurveModel decorates a lattice with a
finite list of negative-square curve classes and their genera.

Classes and pairings run in integers.  A class vector is stored in integer
form: a denominator d and its nonzero (index, numerator) terms, normalized by
one gcd; its Fraction coordinates are a view derived from that.  The lattice
keeps its Gram matrix as sparse rows of its nonzero integer entries (a KK row
has at most five).  A class keeps what is computed of it in three slots, each
tagged with the lattice or model that filled it, so another recomputes it:
its Gram product G (d a), a tuple (a + 0 is a, product and all); its
positive-cone verdict; and its row, the scaled pairings with a model's
reference class and each declared curve, read off that product by
CurveModel._row alone.  A sum a + t b inherits its operands' product, and
nothing else.  A pairing is a dot product of the product over the other
class's nonzero terms, divided by the two denominators once, so the result
is a single exact Fraction; sign tests compare the integers alone.

A curve model builds the integer Gram of its declared curves once, when it
checks their squares and meets; every later square or pairing of two declared
curves reads it.  Adjunction is checked by adjunction_check alone.  A model
also keeps, per set of its curves, the facts the chamber and planner code
ask of it (definiteness, -M^{-1}, components) in one Support, so each is
decided once.  The package's records derive from Frozen, whose constructor
checks their fields; Frozen._unchecked checks none, and builds every record
whose fields are proven (a class's normalised integer form, a dead copy of
an object, ...), each call site giving the proof.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import compress, count
from math import gcd, lcm
from operator import attrgetter, index as exact_int
from typing import Iterable, NamedTuple, Sequence

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


class Frozen:
    """Base of the package's immutable records, built as a frozen dataclass
    would build them, without the cost of generating code per class.

    A subclass's fields are the names annotated in it and its bases, bases
    first; a class attribute of the same name is the field's default, and an
    unannotated attribute is no field.  The constructor takes fields by
    position or name, then runs __post_init__.  Records compare equal only
    within one class, hash their field tuple, repr as Qualname(field=value,
    ...) and refuse assignment and deletion; their __dict__ stays open to
    cached_property and to unchecked constructors such as _unchecked."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = {}
        for klass in reversed(cls.__mro__):
            fields.update(dict.fromkeys(vars(klass).get("__annotations__", ())))
        cls._fields = tuple(fields)
        cls._field_set = frozenset(fields)
        cls._defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
        # the field tuple (one field's bare value), which equality compares and hash hashes
        cls._key = attrgetter(*fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if args:  # bound to the first fields, each at most once
            if len(args) > len(fields) or kwargs and not kwargs.keys().isdisjoint(fields[: len(args)]):
                raise TypeError(f"{type(self).__qualname__}() takes {len(fields)} fields, each once")
            kwargs.update(zip(fields, args))
        if kwargs.keys() != self._field_set:
            kwargs = {**self._defaults, **kwargs}
            if kwargs.keys() != self._field_set:
                raise TypeError(
                    f"{type(self).__qualname__}() takes the fields {', '.join(fields)}; "
                    f"missing {sorted(self._field_set - kwargs.keys())}, "
                    f"unknown {sorted(kwargs.keys() - self._field_set)}"
                )
        # kwargs is a fresh dict, so it becomes the record's own; merging it
        # into __dict__ instead would leave attribute reads slower
        object.__setattr__(self, "__dict__", kwargs)
        self.__post_init__()

    def __post_init__(self):
        pass

    @classmethod
    def _unchecked(cls, *values):
        """The record of every field by position: no default, no check."""
        record = object.__new__(cls)
        object.__setattr__(record, "__dict__", dict(zip(cls._fields, values)))
        return record

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__qualname__}")


def replace(record: Frozen, /, **changes) -> Frozen:
    """A copy of record with the named fields changed, made by its class's
    constructor: every check runs again and nothing the record kept is
    carried over."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})


class ClassVector(Frozen):
    """A lattice class in basis coordinates, exact throughout.

    Its data is its integer form (d, terms): a denominator d > 0 and the
    nonzero (index, numerator) terms in index order, with coordinate i equal
    to numerator_i / d and gcd(d, numerators) = 1.  That form is unique, so
    equality and hashing compare it exactly, and +, - and scale run in
    integers.  coords is its Fraction view.  A sum keeps no row (_combine)."""

    rank: int
    integer_form: tuple[int, tuple[tuple[int, int], ...]]
    _gram_product = None  # (lattice, G @ (d a)) once a lattice multiplies it
    _positive_cone = None  # (lattice, verdict) once a lattice tests it
    _row = None  # (model, CurveModel._row of it) once a model reads it

    def __init__(self, coords: Iterable):
        values = linalg.as_vector(coords)
        d = lcm(*(c.denominator for c in values))
        terms = tuple((i, c.numerator * (d // c.denominator)) for i, c in enumerate(values) if c)
        object.__setattr__(self, "rank", len(values))
        object.__setattr__(self, "integer_form", (d, terms))

    @classmethod
    def from_integer_form(cls, rank: int, d: int, terms: Iterable[tuple[int, int]]) -> "ClassVector":
        """The class with coordinates numerator_i / d, for d > 0 and terms
        listed by index as (index, numerator) tuples; zero numerators are
        dropped."""
        terms = [term for term in terms if term[1]]
        g = gcd(d, *[x for _, x in terms])
        if g > 1:
            d //= g
            terms = [(i, x // g) for i, x in terms]
        # unchecked: the terms are nonzero, listed by index and prime to d
        return cls._unchecked(rank, (d, tuple(terms)))

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
        """Each coordinate as format_rational writes it, from the integer
        form: each numerator reduced against d by one gcd, inline."""
        d, terms = self.integer_form
        out = ["0"] * self.rank
        try:
            for i, x in terms:
                g = gcd(x, d)
                out[i] = str(x // g) if g == d else f"{x // g}/{d // g}"
        except ValueError:
            raise linalg.output_too_long(where) from None
        return tuple(out)

    @property
    def is_integral(self) -> bool:
        return self.integer_form[0] == 1

    def _combine(self, other: "ClassVector", p: int, q: int = 1) -> "ClassVector":
        """self + (p/q) other, for q > 0, in one integer pass over the two
        lists of nonzero terms, normalised once: over the lcm d of the two
        denominators, q (d/d_a) a + p (d/d_b) b over dq.  self itself, with
        what it keeps, when other or p is zero.  Where both keep a Gram
        product for one lattice, the result keeps (ma P_a + mb P_b) / g, for
        ma and mb the two multipliers and g the normalising gcd, and nothing
        else: CurveModel._row reads its row off that product.

        For q = 1 and other integral (d_b = 1), d = d_a, ma = 1 and
        mb = p d_a: the result's numerators are a's, plus p d_a x at each
        term (i, x) of b.  Each is congruent to a's numerator mod d_a, so
        gcd(d_a, numerators) = gcd(d_a, a's numerators) = 1 and g = 1:
        nothing is normalised, only b's terms change, and the kept product
        changes only where b's is nonzero."""
        if self.rank != other.rank:
            raise MalformedInputError("class vectors live in different lattices")
        (da, ta), (db, tb) = self.integer_form, other.integer_form
        if not tb or not p:
            return self
        if q == 1 and db == 1:
            mb = p * da
            acc = dict(ta)
            for i, x in tb:
                acc[i] = acc.get(i, 0) + x * mb
            terms = tuple(acc.items()) if len(acc) == len(ta) else tuple(sorted(acc.items()))
            if 0 in acc.values():  # a cancelled term
                terms = tuple(term for term in terms if term[1])
            # unchecked: the terms are nonzero and by index, and g = 1 (above)
            out = ClassVector._unchecked(self.rank, (da, terms))
            a, b = self._gram_product, other._gram_product
            if a and b and a[0] is b[0]:
                a[0]._keep_product(out, _plus_multiple(a[1], b[1], mb))
            return out
        d = lcm(da, db)
        ma, mb = q * (d // da), p * (d // db)
        acc = {i: x * ma for i, x in ta}
        for i, x in tb:
            acc[i] = acc.get(i, 0) + x * mb
        out = ClassVector.from_integer_form(self.rank, d * q, sorted(acc.items()))
        g = d * q // out.integer_form[0]
        a, b = self._gram_product, other._gram_product
        if a and b and a[0] is b[0]:
            a[0]._keep_product(out, [(ma * x + mb * y) // g for x, y in zip(a[1], b[1])])
        return out

    def __add__(self, other: "ClassVector") -> "ClassVector":
        return self._combine(other, 1)

    def __sub__(self, other: "ClassVector") -> "ClassVector":
        return self._combine(other, -1)

    def add_multiple(self, other: "ClassVector", factor) -> "ClassVector":
        """self + factor * other in one pass, with no class for factor * other."""
        f = linalg.as_fraction(factor)
        return self._combine(other, f.numerator, f.denominator)

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


def _plus_multiple(kept: tuple[int, ...], other: tuple[int, ...], m: int) -> tuple[int, ...]:
    """kept + m other, entrywise, written only where other is nonzero."""
    out = list(kept)
    for i, y in zip(compress(count(), other), filter(None, other)):
        out[i] += m * y
    return tuple(out)


def _dot(product: Sequence[int], vector: ClassVector) -> int:
    """sum product[i] x over the terms (i, x) of the vector's integer form:
    a class paired through a Gram product, the package's one sparse dot."""
    total = 0
    for i, x in vector.integer_form[1]:
        total += x * product[i]
    return total


def is_negative_definite(gram: linalg.Matrix) -> bool:
    """Sylvester test: the k-th leading principal minor has sign (-1)^k.  The
    minors come lazily; the first of the wrong sign (or zero) ends it."""
    return all(
        (minor > 0 if k % 2 == 0 else minor < 0)
        for k, minor in enumerate(linalg.iter_pivot_minors(gram), start=1)
    )


class NegInverse(NamedTuple):
    """-M^{-1} in fraction-free form: -M^{-1} = adjugate / det, with det a
    positive integer and adjugate a nonnegative integer matrix (det(-M) and
    adj(-M) when M is integral)."""

    det: int
    adjugate: tuple[tuple[int, ...], ...]


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


# how many supports a model keeps facts for; the oldest is evicted first
_SUPPORTS_BOUND = 4096
# the member types of an index tuple that CurveModel.support looks up unchecked
_INT = frozenset((int,))


class Support:
    """The facts of one set of a model's curves, keyed by its sorted
    distinct indices: the integer Gram slice, and, each computed by the free
    function on first read and kept, whether it is admissible (negative
    definite, by Sylvester's rule), -M^{-1} and the connected components.
    A computation that raises keeps nothing.  obstruction holds the Witness
    planner.component_obstruction found for a connected support that is not
    admissible, and sweep what chambers._far keeps for an admissible one:
    its far class and N 1, the one place N 1 is kept."""

    def __init__(self, indices: tuple[int, ...], gram: tuple[tuple[int, ...], ...]):
        self.indices = indices
        self.gram = gram
        self.obstruction = None
        self.sweep = None
        self._components = None

    @cached_property
    def admissible(self) -> bool:
        return is_negative_definite(self.gram)

    @cached_property
    def inverse(self) -> NegInverse:
        return neg_inverse(self.gram)

    def components(self) -> tuple[tuple[int, ...], ...]:
        """The dual graph's components as sorted tuples of curve indices, in
        order (the indices are sorted, so pairing_components keeps it)."""
        if self._components is None:
            self._components = tuple(tuple(self.indices[i] for i in p) for p in pairing_components(self.gram))
        return self._components


def pairing_components(pairings: Sequence) -> list[tuple[int, ...]]:
    """Connected components of the dual graph of a pairing matrix: positions
    i != j are joined when pairings[i][j] > 0.  A row is a sequence, or a
    dict of its entries that may be nonzero, so a sparse matrix is searched
    along its entries alone.  Each component is sorted, and they come in
    order of their least position."""
    seen: set[int] = set()
    parts = []
    for start in range(len(pairings)):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for i in comp:  # grows as the search reaches new positions
            row = pairings[i]
            for j, x in row.items() if isinstance(row, dict) else enumerate(row):
                if x > 0 and j not in seen:
                    seen.add(j)
                    comp.append(j)
        parts.append(tuple(sorted(comp)))
    return parts


class IntersectionLattice(Frozen):
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
            raise ModelInconsistencyError("Gram matrix must be symmetric", part="gram")
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
            raise MalformedInputError("basis labels must be distinct", part="labels")
        object.__setattr__(self, "basis_labels", labels)
        for name in ("canonical_class", "reference_class"):
            vec = getattr(self, name)
            if vec is not None and vec.rank != n:
                raise MalformedInputError(f"{name} has wrong rank")
        if self.reference_class is not None:
            if self.square(self.reference_class) <= 0:
                raise ModelInconsistencyError("reference class must have positive square", part="reference")

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
            out.append(_dot(product, v))
        return out

    def pair(self, a: ClassVector, b: ClassVector) -> Fraction:
        if len(a.integer_form[1]) > len(b.integer_form[1]):
            a, b = b, a  # the Gram is symmetric: expand the sparser one
        return Fraction(self.scaled_pairings(a, (b,))[0], a.integer_form[0] * b.integer_form[0])

    def square(self, a: ClassVector) -> Fraction:
        return self.pair(a, a)

    def gram_product(self, a: ClassVector) -> tuple[int, ...]:
        """G @ (d_a a) in integers, from a's nonzero terms alone: G is
        symmetric, so its columns are the sparse rows.  The class keeps it,
        for this lattice only, so each class is multiplied once."""
        kept = a._gram_product
        if kept is not None and kept[0] is self:
            return kept[1]
        rows = self._rows
        if a.rank != len(rows):
            raise MalformedInputError("class vector rank does not match lattice")
        product = [0] * len(rows)
        for j, x in a.integer_form[1]:
            for i, g in rows[j]:
                product[i] += x * g
        return self._keep_product(a, product)

    def _keep_product(self, a: ClassVector, product: Iterable[int]) -> tuple[int, ...]:
        """Fill a's one product slot with G @ (d_a a) in this lattice."""
        product = tuple(product)
        vars(a)["_gram_product"] = (self, product)
        return product

    def gram_vector(self, a: ClassVector) -> linalg.Vector:
        """G @ a, exactly."""
        return tuple(Fraction(x, a.integer_form[0]) for x in self.gram_product(a))

    def is_positive_cone(self, a: ClassVector) -> bool:
        """Positive square and positive pairing with the reference class.
        The class keeps the verdict, for this lattice only."""
        kept = a._positive_cone
        if kept is not None and kept[0] is self:
            return kept[1]
        if self.reference_class is None:
            raise ConfigurationError("positive cone needs a reference class")
        # scaled pairings have the signs of the pairings
        square, reference = self.scaled_pairings(a, (a, self.reference_class))
        verdict = square > 0 and reference > 0
        vars(a)["_positive_cone"] = self, verdict
        return verdict

    def adjunction_check(self, e: ClassVector, genus: int) -> bool:
        if self.canonical_class is None:
            raise ConfigurationError("adjunction check needs a canonical class")
        return 2 * Fraction(genus) - 2 == self.square(e) + self.pair(
            self.canonical_class, e
        )


class CurveData(Frozen):
    """A declared curve: label, integral homology class, nonnegative genus."""

    label: str
    vector: ClassVector
    genus: int

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise MalformedInputError(f"curve label {self.label!r} must be a string", part="label")
        if isinstance(self.genus, bool) or not isinstance(self.genus, int) or self.genus < 0:
            raise MalformedInputError(f"genus of {self.label!r} must be a nonnegative integer", part="genus")
        if not self.vector.is_integral:
            raise MalformedInputError(f"curve {self.label!r} must have integer coordinates")


class CurveModel(Frozen):
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
            raise ModelInconsistencyError("curve labels must be distinct", part="curves")
        # the square and meet checks read the curve Gram, which later uses share
        gram, lattice = self._gram, self.lattice
        for i, c in enumerate(curves):
            sq = gram[i][i]
            if sq >= 0:
                raise ModelInconsistencyError(
                    f"curve {c.label!r} has square {sq}; curves must have negative square", part=f"curves[{i}]"
                )
            if lattice.canonical_class is not None and not lattice.adjunction_check(c.vector, c.genus):
                raise ModelInconsistencyError(
                    f"curve {c.label!r} violates adjunction for genus {c.genus}", part=f"curves[{i}]"
                )
        for i, a in enumerate(curves):
            for j in range(i + 1, len(curves)):
                if gram[i][j] < 0:
                    raise ModelInconsistencyError(
                        f"curves {a.label!r} and {curves[j].label!r} pair negatively", part=f"curves[{j}]"
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
        """pair(a, curve) for every declared curve."""
        return tuple(self.lattice.pair(a, c.vector) for c in self.curves)

    def _shifted(self, start: ClassVector, numerators: Iterable[tuple[int, int]], d: int) -> ClassVector:
        """start + sum (n_i / d) e_i over the pairs (i, n_i), for d a
        multiple of start's denominator, in one integer pass normalised
        once: the curve classes are integral."""
        ds, terms = start.integer_form
        acc = {j: x * (d // ds) for j, x in terms}
        for i, n in numerators:
            for j, x in self.curves[i].vector.integer_form[1]:
                acc[j] = acc.get(j, 0) + n * x
        return ClassVector.from_integer_form(start.rank, d, sorted(acc.items()))

    def is_interior_kahler(self, a: ClassVector) -> bool:
        """Positive cone and strictly positive on every declared curve, read
        off the class's kept verdict and row; refused as first_interior_scale is."""
        if not self.completeness_assumed:
            raise ConfigurationError("model does not assume completeness; cannot assert Kähler classes")
        return self.lattice.is_positive_cone(a) and min(self._row(a)) > 0

    def first_interior_scale(
        self, start: ClassVector, direction: ClassVector, scales: Iterable[Fraction]
    ) -> tuple[Fraction | None, str | None]:
        """(s, None) for the first s of scales at which start - s direction
        is interior-Kähler, else (None, the check that fails at the last
        scale): "square", "reference pairing" or "pairing with <label>",
        the first failing in that order.

        Every check is a form in s: the square a quadratic read off the Gram
        products of start and direction, each pairing a linear form read off
        their rows.
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
        (ss,) = lat.scaled_pairings(start, (start,))
        sf, ff = lat.scaled_pairings(direction, (start, direction))
        # (d_s start.x, d_f direction.x) for x the reference class and each curve
        rows = tuple(zip(self._row(start), self._row(direction)))
        ds, df = start.integer_form[0], direction.integer_form[0]
        failing = None
        for s in scales:
            # for s = p/q the class (q d_f d_s)(start - s direction) is
            # a (d_s start) - b (d_f direction)
            a, b = s.denominator * df, s.numerator * ds
            if a * a * ss - 2 * a * b * sf + b * b * ff <= 0:
                failing = "square"
                continue
            failing = next((j for j, (x, y) in enumerate(rows) if a * x <= b * y), None)
            if failing is None:
                return s, None
        if isinstance(failing, int):  # a position in the rows
            failing = f"pairing with {self.curves[failing - 1].label}" if failing else "reference pairing"
        return None, failing

    def _row(self, a: ClassVector) -> tuple[int, ...]:
        """(d_a d_w a.w, d_a a.e_1, ..., d_a a.e_n), w the reference class
        and e_i the declared curves: the scaled_pairings of a with them,
        read off a's Gram product in one pass over _row_terms.  The class
        keeps it, for this model only, so each class is paired with the
        curves once.  It alone writes a row: a sum inherits none."""
        kept = a._row
        if kept is not None and kept[0] is self:
            return kept[1]
        product = self.lattice.gram_product(a)
        row = [0] * (len(self.curves) + 1)
        for k, i, x in self._row_terms:
            row[k] += x * product[i]
        row = tuple(row)
        vars(a)["_row"] = self, row
        return row

    @cached_property
    def _row_terms(self) -> tuple[tuple[int, int, int], ...]:
        """(k, i, x) for each term (i, x) of the k-th of w, e_1, ..., e_n."""
        vectors = (self.lattice.reference_class, *(c.vector for c in self.curves))
        return tuple((k, i, x) for k, v in enumerate(vectors) for i, x in v.integer_form[1])

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

    def _checked_indices(self, indices: Iterable[int]) -> tuple[int, ...]:
        """The indices as exact ints, each a declared curve's: anything but
        an int (a bool included) raises MalformedInputError, an index outside
        the curve list DomainError.  A plain int in range passes one test;
        only an index that fails it meets the checks that name the failure.
        An int subclass (an IntEnum member, say) is read as its int value, so
        a kept Support never hands one on."""
        idx = tuple(indices)
        n = len(self.curves)
        exact = True
        for i in idx:
            if not (type(i) is int and 0 <= i < n):
                if isinstance(i, bool) or not isinstance(i, int):
                    raise MalformedInputError(f"curve index {i!r} is not an integer")
                if not 0 <= i < n:
                    raise DomainError(f"curve index {i} out of range")
                exact = False
        return idx if exact else tuple(map(exact_int, idx))

    def curve_gram(self, indices: Sequence[int] | None = None) -> tuple[tuple[int, ...], ...]:
        """Integer Gram matrix of the declared curves, or of a subset by index
        in the order given.  The full Gram is built once per model, by its checks; a
        subset is a slice of it.  Indices are checked as _checked_indices says."""
        gram = self._gram
        if indices is None:
            return gram
        idx = self._checked_indices(indices)
        return tuple(tuple(gram[i][j] for j in idx) for i in idx)

    @cached_property
    def _supports(self) -> dict[tuple[int, ...], Support]:
        return {}

    def support(self, indices: Iterable[int]) -> Support:
        """The Support of a set of curve indices, shared by every call on
        this model with the same set in any order or multiplicity.  The model
        keeps the last _SUPPORTS_BOUND supports made.

        A plain tuple of exact ints is first looked up as it stands: only
        sorted, distinct keys in range are kept, so a hit is one.  The type
        test comes before the hash, so a tuple holding a bool, an IntEnum, a
        float or an unhashable member is answered or refused by the checks."""
        if type(indices) is tuple and set(map(type, indices)) <= _INT:
            found = self._supports.get(indices)
            if found is not None:
                return found
        return self._support(tuple(sorted(set(self._checked_indices(indices)))))

    def _support(self, key: tuple[int, ...]) -> Support:
        """support of a key that is already sorted, distinct and in range,
        as the index tuples the package builds itself are."""
        supports = self._supports
        found = supports.get(key)
        if found is None:
            found = supports[key] = Support(key, self.curve_gram(key))
            if len(supports) > _SUPPORTS_BOUND:
                del supports[next(iter(supports))]
        return found

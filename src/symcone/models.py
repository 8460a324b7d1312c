"""Built-in datasets: ruled-surface cone models, the dual-Hesse arrangement,
and the 21-curve Kharlamov-Kulikov lattice with its replay certificate.

Each numeric claim is asserted once, at construction time, so a slip in
``TRIPLES`` fails fast: ``CurveModel``'s adjunction check asserts the KK meet
counts and K^2 = 333 = 3 * 111 (see ``build_kk_model``), and one curve-Gram
comparison apiece asserts the dual-Hesse incidences and the kk-gamma0 path.
``builtin_model`` hands out one shared immutable instance per name, so for a
built-in those assertions run once per process, on its first lookup.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import (
    MalformedInputError,
    ModelInconsistencyError,
    PreconditionError,
    PropertyViolationError,
)
from .lattice import ClassVector, CurveData, CurveModel, Frozen, IntersectionLattice
from .moves import (
    Certificate,
    Inflate,
    SmoothAndReinstate,
    h_param,
    verify_certificate,
)

# the 12 triples of the dual Hesse arrangement: each of 1..9 lies in exactly 4,
# each pair {i,j} in exactly one
TRIPLES = (
    "123", "147", "159", "168", "249", "258",
    "267", "348", "357", "369", "456", "789",
)

GAMMA0_GRAM = ((-3, 1, 0, 0), (1, -1, 1, 0), (0, 1, -3, 1), (0, 0, 1, -1))


# ---------------------------------------------------------------------------
# ruled-surface models


class RuledModel(Frozen):
    """Rank-2 section lattice of a ruled surface: basis {s+k, s-k}."""

    base_genus: int
    parity: str
    k: int
    model: CurveModel

    @property
    def fiber_class(self) -> ClassVector:
        k = self.k
        return ClassVector((Fraction(1, k), Fraction(-1, k)))


def ruled_model(base_genus: int, k: int, parity: str) -> RuledModel:
    if not isinstance(k, int) or k <= 0:
        raise MalformedInputError("k must be a positive integer")
    if not isinstance(base_genus, int) or base_genus < 0:
        raise MalformedInputError("base genus must be a nonnegative integer")
    if parity not in ("trivial", "nontrivial"):
        raise MalformedInputError("parity must be 'trivial' or 'nontrivial'")
    if (parity == "nontrivial") != (k % 2 == 1):
        raise ModelInconsistencyError(
            f"parity {parity!r} is incompatible with section square -{k}"
        )
    lattice = IntersectionLattice(
        gram=((k, 0), (0, -k)),
        basis_labels=("s+", "s-"),
        reference_class=ClassVector.basis(2, 0),
    )
    section = CurveData(label="s-", vector=ClassVector.basis(2, 1), genus=base_genus)
    model = CurveModel(lattice=lattice, curves=(section,), completeness_assumed=True)
    # the fibre (1/k, -1/k) has square 0 and pairs 1 with s+ for every k
    return RuledModel(base_genus=base_genus, parity=parity, k=k, model=model)


def ruled_symplectic_predicate(rm: RuledModel, alpha: ClassVector) -> bool:
    """Whether a class in section coordinates (c+, c-) carries symplectic forms.

    For the sphere-base nontrivial bundle the wall is the ratio
    c-(k+1) < c+(k-1); in every case the class must also have positive square
    in the forward cone (c+ > 0 and c+ + c- > 0), which for k = 1 reduces to
    the familiar c+ > -c- > 0."""
    cplus, cminus = alpha.coords
    if rm.base_genus == 0 and rm.k % 2 == 1:
        return cplus > 0 and cplus + cminus > 0 and cminus * (rm.k + 1) < cplus * (rm.k - 1)
    return cplus > abs(cminus)


def ruled_inflation_interval(rm: RuledModel, a) -> tuple[Fraction, Fraction]:
    """Open t-interval on which (a/k) s+ + (t - a/k) s- is symplectic.

    Computed as 2a/h and cross-checked against the predicate along the line.
    """
    a = linalg.as_fraction(a)
    if a <= 0:
        raise PreconditionError("area a must be positive")
    k = rm.k
    top = 2 * a / h_param(k, rm.base_genus)

    def on_line(t: Fraction) -> bool:
        alpha = ClassVector((a / k, t - a / k))
        return ruled_symplectic_predicate(rm, alpha)

    checks = (
        on_line(top / 2),
        on_line(top / 1000),
        not on_line(top),
        not on_line(top + 1),
        not on_line(Fraction(0)),
    )
    if not all(checks):
        raise PropertyViolationError("inflation interval does not match the predicate")
    return (Fraction(0), top)


# ---------------------------------------------------------------------------
# dual Hesse arrangement


def build_hesse_dual() -> CurveModel:
    """Blowup lattice of the dual Hesse arrangement: 9 strict-transform lines
    of square -3 through the 12 triple points."""
    rank = 1 + len(TRIPLES)
    gram = [[0] * rank for _ in range(rank)]
    gram[0][0] = 1
    for idx in range(1, rank):
        gram[idx][idx] = -1
    labels = ("H",) + tuple(f"E{t}" for t in TRIPLES)
    canonical = ClassVector((Fraction(-3),) + (Fraction(1),) * len(TRIPLES))
    lattice = IntersectionLattice(
        gram=gram,
        basis_labels=labels,
        canonical_class=canonical,
        reference_class=ClassVector.basis(rank, 0),
    )
    curves = []
    for i in "123456789":
        coords = [Fraction(1)] + [Fraction(0)] * len(TRIPLES)
        for pos, t in enumerate(TRIPLES, start=1):
            if i in t:
                coords[pos] = Fraction(-1)
        curves.append(CurveData(label=f"L{i}", vector=ClassVector(tuple(coords)), genus=0))
    model = CurveModel(lattice=lattice, curves=tuple(curves), completeness_assumed=True)
    # L_i^2 = 1 - #{t : i in t}, L_i.L_j = 1 - #{t : i, j in t}; adjunction
    # cannot see a slip, since L_i^2 + K.L_i = -2 for any TRIPLES
    if model.curve_gram() != tuple(tuple(-3 if a == b else 0 for b in range(9)) for a in range(9)):
        raise ModelInconsistencyError("strict transform Gram is not -3 I")
    return model


# ---------------------------------------------------------------------------
# Kharlamov-Kulikov model


def _kk_lattice_and_curves(extended: bool):
    c_labels = tuple(f"C{i}" for i in range(1, 10))
    d_labels = tuple(f"D{t}" for t in TRIPLES)
    curve_labels = c_labels + d_labels
    offset = 1 if extended else 0
    rank = offset + 21
    gram = [[0] * rank for _ in range(rank)]
    if extended:
        gram[0][0] = 100
    for a in range(9):
        gram[offset + a][offset + a] = -3
    for b in range(12):
        gram[offset + 9 + b][offset + 9 + b] = -1
    for a in range(9):
        for b, t in enumerate(TRIPLES):
            if str(a + 1) in t:
                gram[offset + a][offset + 9 + b] = 1
                gram[offset + 9 + b][offset + a] = 1
    k_coords = [Fraction(0)] * rank
    for a in range(9):
        k_coords[offset + a] = Fraction(7, 3)
    for b in range(12):
        k_coords[offset + 9 + b] = Fraction(4)
    labels = (("w0",) if extended else ()) + curve_labels
    lattice = IntersectionLattice(
        gram=gram,
        basis_labels=labels,
        canonical_class=ClassVector(tuple(k_coords)),
        reference_class=ClassVector.basis(rank, 0) if extended else None,
    )
    curves = tuple(
        CurveData(
            label=label,
            vector=ClassVector.basis(rank, offset + i),
            genus=4 if label.startswith("C") else 2,
        )
        for i, label in enumerate(curve_labels)
    )
    return lattice, curves


def build_kk_model(extended: bool = False) -> CurveModel:
    """The 21-curve lattice: nine square -3 genus-4 curves, twelve square -1
    genus-2 curves, incidence given by the triples.  The extended variant adds
    an ambient direction w0 of square 100, orthogonal to every curve, used as
    the positive-cone reference.

    The surface is a rigid ball quotient of Euler characteristic 111 with
    ample canonical class; the curve list is assumed complete."""
    lattice, curves = _kk_lattice_and_curves(extended)
    # adjunction fixes K.C = -7 + 4 #{D meeting C} = 9 and K.D = -4 + 7/3
    # #{C meeting D} = 3, so K^2 = sum K_a (K.e_a) = 9 (7/3) 9 + 12 (4) 3 = 333
    return CurveModel(lattice=lattice, curves=curves, completeness_assumed=True)


def kk_gamma0_model() -> CurveModel:
    """The extended KK lattice with only the four-curve path C1-D123-C2-D249
    declared.  The certificate below replays inside this sub-model, whose base
    class is genuinely interior-Kähler."""
    lattice, curves = _kk_lattice_and_curves(extended=True)
    chosen = tuple(c for c in curves if c.label in ("C1", "D123", "C2", "D249"))
    order = {"C1": 0, "D123": 1, "C2": 2, "D249": 3}
    chosen = tuple(sorted(chosen, key=lambda c: order[c.label]))
    model = CurveModel(lattice=lattice, curves=chosen, completeness_assumed=True)
    if model.curve_gram() != GAMMA0_GRAM:
        raise ModelInconsistencyError("path sub-model Gram does not match")
    return model


def kk_gamma0_certificate(t_scale=1) -> Certificate:
    """The four-curve replay: from w0 - (8 C1 + 21 D123 + 12 C2 + 14 D249), the
    model's curves in order, two smoothings build a square -1 genus-14 surface;
    inflating it and the follow-up genus-8 surface walks back to w0 exactly."""
    t = linalg.as_fraction(t_scale)
    if t <= 0:
        raise PreconditionError("t_scale must be positive")
    model = builtin_model("kk-gamma0")
    w0 = ClassVector.basis(model.lattice.rank, 0)
    base = model._shifted(w0, ((i, -c * t.numerator) for i, c in enumerate((8, 21, 12, 14))), t.denominator)
    if not model.is_interior_kahler(base):
        raise PreconditionError(
            f"base class is not interior-Kähler at t_scale {t}"
        )
    moves = (
        SmoothAndReinstate(("D123", "C1"), ("D123",), "Ctilde"),
        SmoothAndReinstate(("C2", "Ctilde", "D123", "D249"), ("C2", "D123", "D249"), "S"),
        Inflate("S", 8 * t),
        SmoothAndReinstate(("D123", "C2", "D249"), ("D123", "D249"), "Sprime"),
        Inflate("Sprime", 4 * t),
        Inflate("D123", t),
        Inflate("D249", 2 * t),
    )
    cert = Certificate(
        model=model,
        base_class=base,
        moves=moves,
        target_class=w0,
        annotations=("iterated-disjoin",),
    )
    report = verify_certificate(cert)
    if not report.passed:
        raise PropertyViolationError(
            f"built-in certificate failed verification: {report.first_failure}"
        )
    return cert


# ---------------------------------------------------------------------------
# small test fixture: an E6 tree of -2 spheres under an ambient direction


def e6_model() -> CurveModel:
    """Six -2 spheres in the E6 tree (path 1-2-3-4-5 with 6 hanging off the
    middle), plus an orthogonal ambient class of square 100."""
    rank = 7
    edges = ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6))
    gram = [[0] * rank for _ in range(rank)]
    gram[0][0] = 100
    for i in range(1, rank):
        gram[i][i] = -2
    for a, b in edges:
        gram[a][b] = gram[b][a] = 1
    lattice = IntersectionLattice(
        gram=gram,
        basis_labels=("w",) + tuple(f"e{i}" for i in range(1, 7)),
        reference_class=ClassVector.basis(rank, 0),
    )
    curves = tuple(
        CurveData(label=f"e{i}", vector=ClassVector.basis(rank, i), genus=0)
        for i in range(1, 7)
    )
    return CurveModel(lattice=lattice, curves=curves, completeness_assumed=True)


_BUILDERS = {
    "kk": build_kk_model,
    "kk-extended": lambda: build_kk_model(extended=True),
    "kk-gamma0": kk_gamma0_model,
    "hesse": build_hesse_dual,
    "e6": e6_model,
}
BUILTIN_MODEL_NAMES = tuple(_BUILDERS)

_SHARED: dict[str, CurveModel] = {}


def builtin_model(name: str) -> CurveModel:
    """Look up a built-in model by its stable name.

    Every call with the same name returns the same immutable instance, built
    and checked on the first call.  An unknown name raises on every call."""
    if name not in BUILTIN_MODEL_NAMES:
        raise MalformedInputError(
            f"unknown built-in model {name!r}; choices: {', '.join(BUILTIN_MODEL_NAMES)}"
        )
    model = _SHARED.get(name)
    if model is None:
        model = _SHARED[name] = _BUILDERS[name]()
    return model

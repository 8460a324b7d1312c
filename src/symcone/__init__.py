"""Exact-arithmetic chamber decompositions and replayable inflation
certificates for negative-square curve configurations in 4-manifold
intersection lattices.

The floating-point lab ``perturb`` is imported on first use: its names are
resolved by the module ``__getattr__`` below.
"""

import importlib

from .chambers import (
    Classification,
    ChamberDescriptor,
    Membership,
    boundary_to_interior,
    chamber_point,
    classify,
    corner_point,
    descriptor_for,
    reflect,
    single_curve_shift,
)
from .documents import (
    canonical_json,
    certificate_from_doc,
    certificate_to_doc,
    format_rational,
    model_from_doc,
    model_to_doc,
    parse_rational,
    report_to_doc,
    unsupported_to_doc,
)
from .errors import (
    BoundViolationError,
    ConfigurationError,
    ConnectivityError,
    DefinitenessError,
    DocumentError,
    DomainError,
    LivenessError,
    MalformedInputError,
    ModelInconsistencyError,
    MoveError,
    NumericalFailureError,
    PositivityError,
    PreconditionError,
    PropertyViolationError,
    RangeError,
    SearchFailureError,
    SingularityError,
    SymconeError,
    WrongMoveError,
)
from .lattice import (
    ClassVector,
    CurveData,
    CurveModel,
    IntersectionLattice,
    is_negative_definite,
    neg_inverse,
)
from .models import (
    BUILTIN_MODEL_NAMES,
    build_hesse_dual,
    build_kk_model,
    builtin_model,
    e6_model,
    kk_gamma0_certificate,
    kk_gamma0_model,
    ruled_inflation_interval,
    ruled_model,
    ruled_symplectic_predicate,
)
from .moves import (
    Certificate,
    ConfigurationState,
    Inflate,
    InflateNonneg,
    MoveRecord,
    SmoothAndReinstate,
    SurfaceObject,
    VerificationReport,
    apply_move,
    h_param,
    initial_state,
    verify_certificate,
)
from .planner import (
    Admissible,
    DualGraph,
    DynkinType,
    Unsupported,
    Witness,
    component_obstruction,
    dual_graph,
    dynkin_classify,
    plan,
    reflected_chamber_certificate,
)

__version__ = "0.1.0"

_PERTURB_NAMES = frozenset((
    "IntersectionRecord",
    "LocalCurveModel",
    "SlopeReport",
    "order_of_contact_study",
    "perturbed_intersections",
    "r_epsilon",
))


def __getattr__(name):
    # importlib, not "from . import perturb", which would call back in here
    if name == "perturb" or name in _PERTURB_NAMES:
        module = importlib.import_module(".perturb", __name__)
        return module if name == "perturb" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

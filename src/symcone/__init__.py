"""Exact-arithmetic chamber decompositions and replayable inflation
certificates for negative-square curve configurations in 4-manifold
intersection lattices.

The modules ``chambers``, ``planner`` and ``perturb`` are registered in
``sys.modules`` at import but run on the first attribute read, so a process
that never classifies, plans or perturbs never compiles them.  The names this
package serves from them are resolved by the module ``__getattr__`` below.
"""

import sys as _sys
from importlib import util as _util


def _register(module: str):
    """symcone.<module>, put in sys.modules now and run on its first
    attribute read.  The caller binds it on the package too, so that ``from
    . import <module>`` finds it there; the import system, which reads the
    module's __spec__, would run it."""
    spec = _util.find_spec(f"{__name__}.{module}")
    spec.loader = _util.LazyLoader(spec.loader)
    lazy = _util.module_from_spec(spec)
    _sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


# registered before the eager imports below, so that an eager module which
# imports one of these runs this lazy module, not a second, eager copy
chambers = _register("chambers")
planner = _register("planner")
perturb = _register("perturb")

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
    Support,
    is_negative_definite,
    neg_inverse,
    replace,
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

__version__ = "0.1.0"

# each lazily run module, with the public names this package serves from it
_LAZY = {
    "chambers": (
        "Classification", "Membership", "chamber_point", "classify", "corner_point",
        "descriptor_for", "reflect",
    ),
    "planner": (
        "DynkinType", "Unsupported", "Witness", "component_obstruction", "dual_graph",
        "dynkin_classify", "plan", "reflected_chamber_certificate",
    ),
    "perturb": (
        "IntersectionRecord", "LocalCurveModel", "SlopeReport", "intersection_table",
        "order_of_contact_study", "perturbed_intersections", "r_epsilon",
    ),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [name for name in globals() if not name.startswith("_")] + [*_OWNER]


def __getattr__(name):
    """A name served from a lazy module, which its first read runs; the name
    is then bound here, as an eager import would have bound it, so later
    reads do not come back."""
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[module], name)
    return value

"""Exception taxonomy for the toolkit.

Every exception raised by the package derives from SymconeError so callers can
catch the whole family at once.  Verification failures are reported as data
(see moves.VerificationReport), not exceptions; exceptions mark operations that
cannot proceed at all.
"""


class SymconeError(Exception):
    """Base class for all package errors.  part, where a model's constructors
    give it, names the field at fault as a model document names it, such as
    "gram" or "curves[0]"."""

    def __init__(self, *args, part: str | None = None):
        super().__init__(*args)
        self.part = part


class MalformedInputError(SymconeError):
    """Input does not parse or violates a structural schema."""


class ConfigurationError(SymconeError):
    """An operation requires a model feature that is absent or disabled."""


class DefinitenessError(SymconeError):
    """A restricted Gram matrix fails the required definiteness."""


class PreconditionError(SymconeError):
    """An operation's mathematical precondition does not hold."""


class DomainError(SymconeError):
    """A value lies outside the domain an operation is defined on."""


class ModelInconsistencyError(SymconeError):
    """Declared model data contradicts itself."""


class SingularityError(SymconeError):
    """A matrix that must be invertible is singular."""


class SearchFailureError(SymconeError):
    """A bounded search exhausted its budget without a result."""


class MoveError(SymconeError):
    """Base class for errors raised while applying a move."""


class BoundViolationError(MoveError):
    """A move rate falls outside its strict admissible bound."""


class LivenessError(MoveError):
    """A move refers to an object in the wrong alive/dead state."""


class WrongMoveError(MoveError):
    """The move kind does not match the object (e.g. sign of the square)."""


class ConnectivityError(MoveError):
    """Constituents of a smoothing do not form a connected configuration."""


class PositivityError(MoveError):
    """A class left the positive cone, or a required pairing is not positive."""


class RangeError(SymconeError):
    """A numeric parameter lies outside its admitted range."""


class NumericalFailureError(SymconeError):
    """An iterative numeric procedure failed to converge."""


class PropertyViolationError(SymconeError):
    """A computed result contradicts a property it must satisfy."""


class DocumentError(MalformedInputError):
    """A serialized document fails schema or round-trip requirements."""

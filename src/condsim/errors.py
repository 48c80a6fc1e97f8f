"""Exception types shared across the simulator."""


class CondsimError(Exception):
    """Base class for all condsim errors."""


class DimensionMismatchError(CondsimError, ValueError):
    """Vector or matrix dimensions do not agree."""


class NotPositiveDefiniteError(CondsimError):
    """A matrix required to be SPD has a non-positive pivot."""


class CapacityError(CondsimError):
    """Problem exceeds the dense-baseline size limit."""


class InvalidStateError(CondsimError):
    """System state contains non-finite or otherwise invalid values."""


class DegenerateConstraintError(CondsimError):
    """Constraint geometry is degenerate (e.g. coincident spring endpoints)."""


class InvalidMatrixError(CondsimError):
    """Matrix violates a structural requirement (zero row, broken node tie)."""


class DivergenceError(CondsimError):
    """Fixed-point iteration produced a non-finite iterate.

    Carries the residual trace up to the point of failure.
    """

    def __init__(self, message, residual_trace=None):
        super().__init__(message)
        self.residual_trace = list(residual_trace) if residual_trace is not None else []


class ScenarioValidationError(CondsimError, ValueError):
    """Scenario file failed schema validation."""


class UnsupportedRegimeError(CondsimError):
    """Analytic oracle asked for a regime it does not model (e.g. lift-off)."""

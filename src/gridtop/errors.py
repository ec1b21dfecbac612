"""Exception types shared across the package."""


class GridTopError(Exception):
    """Base class for every error raised by this package."""


class StructureError(GridTopError):
    """Grid or forest data violates a structural invariant."""


class DomainError(GridTopError):
    """An operation was called with arguments outside its domain."""


class ConvergenceError(GridTopError):
    """An iterative solve did not converge within its iteration budget."""

    def __init__(self, message: str, residual: float | None = None, iterations: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class InfeasibleStateError(GridTopError):
    """A power-flow iterate left the physically meaningful region (v^2 <= 0)."""


class ModelError(GridTopError):
    """An injection model is inconsistent (e.g. joint covariance not PSD)."""


class ParseError(GridTopError):
    """A grid, model, or plan document could not be parsed or fails its schema."""

    def __init__(self, message: str, location: str | None = None):
        super().__init__(message if location is None else f"{location}: {message}")
        self.location = location

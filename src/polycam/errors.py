"""Exception hierarchy shared by all polycam modules."""

from __future__ import annotations


class PolycamError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(PolycamError):
    """Mismatched algebra dimensions, bad schedules, invalid settings."""


class DomainError(PolycamError):
    """Intrinsic function evaluated outside its domain."""

    def __init__(self, message: str, value: float | None = None):
        super().__init__(message)
        self.value = value


class PropagationError(PolycamError):
    """Numerical propagation failed; carries the time of failure."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class FrameError(PolycamError):
    """Degenerate geometry prevents building a local orbital frame."""


class CovarianceError(PolycamError):
    """Covariance matrix is not positive (semi)definite."""


class GeometryError(PolycamError):
    """Encounter geometry violates the short-term assumptions."""


class NumericError(PolycamError):
    """Series evaluation overflowed or produced non-finite values."""


class DegenerateGradientError(PolycamError):
    """Control has no first-order authority over collision probability."""


class NonConvergenceError(PolycamError):
    """Fixed-point iteration exceeded the iteration budget.

    Carries the last iterate so callers can inspect partial progress.
    """

    def __init__(self, message: str, last_iterate=None,
                 iterations: int | None = None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.iterations = iterations


class InfeasibleWithBoundError(PolycamError):
    """Thrust bound cannot close the probability gap; carries residual PoC."""

    def __init__(self, message: str, residual_poc: float | None = None):
        super().__init__(message)
        self.residual_poc = residual_poc


class GenerationError(PolycamError):
    """Synthetic scenario rejection sampling exhausted its attempts."""


class ScenarioParseError(PolycamError):
    """Scenario file missing fields or carrying wrong types."""


class ValidationError(PolycamError):
    """Scenario contents violate a documented invariant."""

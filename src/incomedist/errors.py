"""Exception types shared across the package.

Everything raised deliberately by this package derives from
:class:`IncomeDistError`, so callers can catch one type at an API
boundary.  The subclasses separate bad inputs from numerical failures:
the command line maps input problems to exit code 2 and convergence
problems to exit code 3.
"""

from __future__ import annotations


class IncomeDistError(Exception):
    """Base class for every error raised by this package."""


class DomainError(IncomeDistError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidParamsError(IncomeDistError):
    """Distribution parameters or drift/diffusion coefficients violate an invariant."""


class NonNormalizableError(InvalidParamsError):
    """The requested density has infinite mass and cannot be normalized."""


class ConfigError(IncomeDistError):
    """A configuration value is unusable (non-positive rate, unstable step size, ...)."""


class QuadratureError(IncomeDistError):
    """Numerical integration failed to reach the requested tolerance.

    Attributes
    ----------
    achieved_tol : float
        Relative error estimate actually reached before giving up.
    """

    def __init__(self, message: str, achieved_tol: float = float("nan")):
        super().__init__(message)
        self.achieved_tol = achieved_tol


class DataFormatError(IncomeDistError):
    """An input file does not match the expected layout."""


class EmptyDatasetError(IncomeDistError):
    """No usable observations remain after validation."""


class InsufficientDataError(IncomeDistError):
    """Too few points, or too narrow a range, to run an estimation step."""


class UnreliableErrorsError(IncomeDistError):
    """Bootstrap error bars are untrustworthy (most resamples failed to converge)."""


class NumericalBlowupError(IncomeDistError):
    """An ensemble simulation produced a non-finite state.

    Attributes
    ----------
    step : int
        Index of the time step at which the state stopped being finite.
    """

    def __init__(self, message: str, step: int = -1):
        super().__init__(message)
        self.step = step

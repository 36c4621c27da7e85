"""Exception types shared across the package.

Everything raised deliberately by this package derives from
:class:`IncomeDistError`, so callers can catch one type at an API
boundary.  The subclasses separate bad inputs from numerical failures:
the command line maps input problems to exit code 2 and convergence
problems to exit code 3.

The package's one set of input checks lives here too: :func:`_real`,
:func:`_integer` and :func:`_nonnegative_array` each raise the class their
caller names, and none takes a ``bool`` for a number.  A batched
computation returns a failed item's error in place of its result;
:func:`_raised` raises it where one item is asked for.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


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
    """Numerical integration failed to reach the requested tolerance."""


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


_FLOAT = np.dtype(float)


def _real(value, what: str, error, lo: float = -math.inf, hi: float = math.inf,
          closed: str = "neither") -> float:
    """``value`` as a float if it is a finite real number (Python, numpy or fractions; not a
    bool) between ``lo`` and ``hi``, each end excluded unless ``closed`` is "left", "right" or
    "both"; otherwise ``error`` naming ``what``."""
    try:  # float first: numbers.Real is an abstract class, slower to test
        x = float(value) if isinstance(value, (float, numbers.Real)) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int or fraction beyond float range
        x = math.nan
    if lo < x < hi:
        return x
    left, right = closed in ("left", "both"), closed in ("right", "both")
    if math.isfinite(x) and (left and x == lo or right and x == hi):
        return x
    raise error(f"{what} must be a finite number in {'([' [left]}{lo!r}, {hi!r}{')]' [right]}, "
                f"got {value!r}")


def _integer(value, what: str, error, least: int) -> int:
    """``value`` as an int if it is a Python or numpy integer (not a bool) >= ``least``;
    otherwise ``error`` naming ``what``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least:
        return int(value)
    raise error(f"{what} must be an integer >= {least}, got {value!r}")


def _holds_non_number(values) -> bool:
    """Whether a sequence, or a list or tuple nested in it, holds a bool, a str or bytes."""
    return any(isinstance(x, (bool, np.bool_, str, bytes))
               or isinstance(x, (list, tuple)) and _holds_non_number(x) for x in values)


def _nonnegative_array(values, what: str, error) -> np.ndarray:
    """``values`` as a float array whose entries are finite and >= 0; otherwise ``error``
    naming ``what``.  A bool or a string, of digits too, alone, as an array or among numbers
    is refused.  numpy reads ``[1.0, True]`` as two floats and an object array's ``"2"`` as
    2.0, so input that is neither a number array nor a scalar is scanned for bools and
    strings, one check per entry.  A float64 array is not copied."""
    try:
        arr = np.asarray(values)
        if arr.dtype is not _FLOAT:
            if arr.dtype.kind not in "iufO":  # no bools, strings, complex numbers or dates
                raise TypeError(f"got {arr.dtype} values")
            if arr.dtype.kind == "O":
                values = arr.ravel().tolist()
            arr = arr.astype(float)
        if (not isinstance(values, (np.ndarray, float, np.generic, numbers.Number))
                and _holds_non_number(values)):
            raise TypeError("got a bool or a string among the values")
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} must be numbers: {exc}") from None
    if arr.size and not (np.isfinite(arr).all() and (arr >= 0.0).all()):
        raise error(f"{what} must be finite and >= 0")
    return arr


def _raised(result):
    """An entry of a batch that holds an error in place of a failed item's result, as the item
    alone gives it: the result, or that error raised."""
    if isinstance(result, IncomeDistError):
        raise result
    return result

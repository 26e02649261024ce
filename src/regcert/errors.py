"""Exception types shared across the toolkit, its six input checks, and the
one tolerance factor of its bound checks and pass rule (``Bracket``).

Each input rule has one definition: ``positive_finite`` (0 < x < inf),
``within`` (an interval), ``count`` (an integer >= 1; a sequence is
non-empty when ``count(len(seq))`` passes), ``choice`` (one of a tuple),
``vector`` (shape (n,), every entry finite) and its stack form ``vectors``
(shape (..., n)).  A check takes the value, the parameter's name and the
error class to raise, and returns the value.
"""

import numpy as np

# A value passes a bound check when it is at most bound * BOUND_TOL: the
# factor absorbs float round-off on boundary members without accepting
# genuinely out-of-class candidates.  The admissibility and pass tests of
# all three constructions scale their bounds by it.
BOUND_TOL = 1.0 + 1e-9


class Bracket:
    """The verdict of a certificate with an ``empirical_lower`` field and the
    upper bound's field named in ``UPPER``: it passes when the lower bound
    is at most the upper one times BOUND_TOL."""

    UPPER: str

    @property
    def passed(self) -> bool:
        return bool(self.empirical_lower <= getattr(self, self.UPPER) * BOUND_TOL)


class RegcertError(Exception):
    """Base class for all toolkit errors."""


class InvalidGridError(RegcertError):
    """Grid has too few nodes or values do not match the grid."""


class GridMismatchError(RegcertError):
    """Two sampled functions live on different grids."""


class InvalidExponentError(RegcertError):
    """Smoothness exponent outside the supported range [0, 2]."""


class InvalidModelError(RegcertError):
    """Unknown noise model tag."""


class UnsupportedExponentError(RegcertError):
    """Difference regularizer asked for an exponent a <= 1."""


class StepTooLargeError(RegcertError):
    """Snapped differentiation step too large for the stencil to fit the interval."""


class ResolutionError(RegcertError):
    """Grid too coarse to resolve the requested bump width."""


class EmptyAdmissibleSetError(RegcertError):
    """No candidate passed the admissibility test."""


class InvalidSourceError(RegcertError):
    """Source-set parameters outside their domain."""


class InvalidParameterError(RegcertError):
    """Regularization parameter or other scalar input out of range."""


class InvalidMatrixError(RegcertError):
    """Matrix input rejected (non-finite entries, wrong shape, too large)."""


class InfeasibleError(RegcertError):
    """Constraint set is empty for the given data."""


class DegenerateProblemError(RegcertError):
    """Operator has no usable spectrum (all singular values zero)."""


class UsageError(RegcertError):
    """Bad command line or config file input."""


def positive_finite(value, name: str, error=InvalidParameterError):
    """Return value; raise ``error`` unless 0 < value < inf, so NaN fails too."""
    if not 0.0 < value < np.inf:
        raise error(f"{name} must be positive and finite, got {value}")
    return value


def within(value, lo, hi, name: str, error=InvalidParameterError, ends="[]"):
    """Return value; raise ``error`` unless it lies in the interval lo, hi with
    the ends ``ends`` writes ("[", "]" closed, "(", ")" open), so NaN fails too."""
    if not ((lo <= value if ends[0] == "[" else lo < value)
            and (value <= hi if ends[1] == "]" else value < hi)):
        raise error(f"{name} must lie in {ends[0]}{lo}, {hi}{ends[1]}, got {value}")
    return value


def count(value, name: str, error=InvalidParameterError):
    """Return value; raise ``error`` unless it is an integer (int or np.integer, not bool) >= 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise error(f"{name} must be an integer >= 1, got {value}")
    return value


def choice(value, options: tuple, name: str, error=InvalidParameterError):
    """Return value; raise ``error`` unless it is one of ``options``."""
    if value not in options:
        raise error(f"unknown {name} {value!r}; choose one of {options}")
    return value


def vector(value, n: int, name: str, error=InvalidParameterError) -> np.ndarray:
    """Return value as a float array; raise ``error`` unless its shape is (n,)
    and every entry is finite."""
    value = np.asarray(value, dtype=float)
    if value.shape != (n,):
        raise error(f"{name} has shape {value.shape}, expected ({n},)")
    return vectors(value, n, name, error)


def vectors(value, n: int, name: str, error=InvalidParameterError) -> np.ndarray:
    """Return value as a float array; raise ``error`` unless its shape is
    (..., n), one vector or a stack of them, and every entry is finite."""
    value = np.asarray(value, dtype=float)
    if value.shape[-1:] != (n,):
        raise error(f"{name} has shape {value.shape}, expected (..., {n})")
    if not np.isfinite(value).all():
        raise error(f"{name} must have finite entries")
    return value

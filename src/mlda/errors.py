"""Exception types shared across the library, and the two routes that raise them.

Every error raised on purpose by this package derives from ``MldaError``,
so callers can catch the whole family with one clause. ``count`` checks
every count argument (r, n, L, max_iter, a seed) and ``real`` every real one
(a ridge, a level, a gap, a scale, a probability); ``check`` every runtime
comparison of two computed numbers. Array arguments take their one route,
``spectral._array``.
"""

import math
import sys
from numbers import Integral, Real

# The largest double: ``real(..., high=FLOAT_MAX)`` asks for a finite number.
FLOAT_MAX = sys.float_info.max


class MldaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(MldaError):
    """Malformed input: wrong shape, non-finite entries, empty matrix, ..."""


class RankDeficient(MldaError):
    """A full-column-rank matrix was required but not supplied."""


class MissingLabel(MldaError):
    """A label column has no positive sample (or zero marginal probability)."""


class UnlabeledSample(MldaError):
    """A sample row carries no label at all."""


class InvalidScheme(MldaError):
    """A label-generation scheme is internally inconsistent."""


class InvalidCovariance(MldaError):
    """A noise covariance is not symmetric positive (semi-)definite."""


class SingularTotalScatter(MldaError):
    """Total-scatter whitening was requested but the matrix is singular."""


class DegenerateNoise(MldaError):
    """A signal-to-noise quantity was requested with zero noise floor."""


class InvalidGap(MldaError):
    """A spectral gap must be positive for the requested bound."""


class NotConverged(MldaError):
    """An iterative solver hit its iteration cap.

    The last iterate is attached so callers can inspect how far it got.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class ConfigError(MldaError):
    """An experiment configuration is infeasible or malformed."""


class InvariantViolation(MldaError, ArithmeticError):
    """A runtime cross-check of an algebraic identity failed.

    This means a numerical fault inside the library, not bad input. It stays
    an ``ArithmeticError`` so that callers catching that still see it.
    """


def check(name, value, limit):
    """Raise InvariantViolation unless ``value <= limit``.

    Every runtime check that compares two numbers goes through here:
    ``value`` is a computed defect (or one side of an inequality) and
    ``limit`` its tolerance (or the other side). A NaN on either side
    compares false, so it fails. The message holds ``name`` and both numbers.
    """
    if not value <= limit:
        raise InvariantViolation(f"{name}: {float(value)!r} is not <= {float(limit)!r}")


def count(name, value, low=1, high=None, error=InvalidInput):
    """``int(value)`` for a Python or numpy integer in [low, high] (``high``
    None: no upper end). Anything else, a bool or a whole float included,
    raises ``error``; the message holds ``name``, the range and the value."""
    integer = isinstance(value, Integral) and not isinstance(value, bool)
    if not (integer and low <= value and (high is None or value <= high)):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise error(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def real(name, value, low=-math.inf, high=math.inf, error=InvalidInput, strict=False):
    """``float(value)`` for a Python or numpy real number in [low, high];
    ``strict`` opens the finite ends. Anything else, a bool, None, a string,
    an array, a NaN or an int beyond the double range included, raises
    ``error``; the message holds ``name``, the range and the value."""
    number = isinstance(value, Real) and not isinstance(value, bool)
    try:
        x = float(value) if number else math.nan
    except OverflowError:
        x = math.nan
    if low <= x <= high and not (strict and math.isfinite(x) and x in (low, high)):
        return x
    ops = (">", "<") if strict else (">=", "<=")
    span = ["finite"] if FLOAT_MAX in (-low, high) else []
    span += [f"{op} {end:g}" for op, end in zip(ops, (low, high)) if abs(end) < FLOAT_MAX]
    got = f"non-finite {value!r}" if number and not math.isfinite(x) else repr(value)
    raise error(f"{name} must be a real number ({' and '.join(span) or 'not NaN'}), got {got}")

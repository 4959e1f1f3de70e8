"""Exception types shared across the package, and its one rule for number arguments."""

import math
import numbers

MAX_COUNT = 2**60 - 1  # the most float64s numpy can index: above it, ValueError


class CurveCoverError(Exception):
    """Base class for all curvecover errors."""


class DimensionMismatch(CurveCoverError):
    """Input points do not all have the same dimension, or d < 2."""


class DegenerateCurve(CurveCoverError):
    """Fewer than 3 distinct vertices, or a non-finite total length."""


class NotNormalized(CurveCoverError):
    """Operation requires a unit-length curve."""


class OutOfRange(CurveCoverError):
    """A scalar argument lies outside its admissible interval."""


class KTooSmall(CurveCoverError):
    """The piece count k is below the minimum for this operation."""


class EmptyInput(CurveCoverError):
    """A nonempty sequence was required."""


class NonPositiveSpeed(CurveCoverError):
    """Agent speeds must be strictly positive."""


class BadSpec(CurveCoverError):
    """Invalid curve-generation parameters."""


class NotAPartition(CurveCoverError):
    """Cover arcs do not tile the curve."""


class BadFlag(CurveCoverError):
    """Inconsistent or out-of-range command-line flags."""


class FileError(CurveCoverError):
    """A file could not be read, parsed or written."""


def _number(v, name, integer=False, error=OutOfRange):
    """``v`` as a float, or as an int if ``integer`` (3, np.int64(3) and 3.0 alike);
    ``error`` unless it is a real, not a bool, that fits a float, is finite,
    and is integral if ``integer``."""
    if type(v) is float and not integer and v - v == 0.0:  # a finite float, as covers pass
        return v
    # an int or float first: the ABC check is slow; np.bool_ is no Real
    real = type(v) in (int, float) or isinstance(v, numbers.Real) and not isinstance(v, bool)
    try:
        x = float(v) if real else math.nan
    except OverflowError:
        raise error(f"{name} does not fit a float") from None
    if not math.isfinite(x) or integer and not x.is_integer():
        what = "an integer" if integer else "a finite number" if real else "a real number"
        raise error(f"{name} must be {what}, got {v!r}")
    return int(v) if integer else x


def _count(k, least, name="k"):
    """The count ``k`` as an int: ``_number``'s OutOfRange unless it is an
    integer, KTooSmall below ``least``, OutOfRange above ``MAX_COUNT``."""
    k = _number(k, name, integer=True)
    if k < least:
        raise KTooSmall(f"{name} must be >= {least}")
    if k > MAX_COUNT:
        raise OutOfRange(f"{name} must be <= {MAX_COUNT}, got {k}")
    return k

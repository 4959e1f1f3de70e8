"""Exception types shared across the package."""


class CurveCoverError(Exception):
    """Base class for all curvecover errors."""


class DimensionMismatch(CurveCoverError):
    """Input points do not all have the same dimension, or d < 2."""


class DegenerateCurve(CurveCoverError):
    """Fewer than 3 distinct vertices, or a zero or non-finite total length."""


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

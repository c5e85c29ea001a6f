"""Exception types shared across the calibration library."""


class CalibError(Exception):
    """Base class for all library errors."""


class ParseError(CalibError):
    """A file could not be parsed as the documented format."""


class ValidationError(CalibError):
    """Parsed data violates a structural invariant (names the offending entry)."""


class IoError(CalibError):
    """A file could not be read or written."""


class DimensionMismatch(CalibError):
    """A threshold vector or score vector has the wrong length."""


class MonotonicityViolation(CalibError):
    """An edge tried to raise a threshold; the search tree only lowers them."""


class EmptyJournal(CalibError):
    """undo was called with no pending apply to reverse."""


class TooLarge(CalibError):
    """The brute-force candidate grid exceeds the configured cap."""


class InfeasibleSolution(CalibError):
    """A solution does not cover every positive sample."""


class DegenerateVariance(CalibError):
    """Scores leave a calibration fit undefined: constant, or overflowing its moments."""


class UnreachableRecall(CalibError):
    """No operating threshold reaches the requested recall."""


class InvalidSpec(CalibError):
    """A generator spec has out-of-range parameters."""

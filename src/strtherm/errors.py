"""Exception types raised across strtherm.

All inherit ValueError so callers that don't care about the distinction
can catch the usual built-in.
"""


class StrthermError(ValueError):
    """Base class for all strtherm errors."""


class EmptyInput(StrthermError):
    """Raised when a byte stream with no bytes is offered for analysis."""


class InvalidLength(StrthermError):
    """Raised for bit-length arguments outside the valid range."""


class InvalidShift(StrthermError):
    """Raised when a shift offset is not in [0, nbits)."""


class InvalidEnsembleSize(StrthermError):
    """Raised when the requested number of shifts is not in [1, L], L the
    ensemble length: the bit length, or the lcm of a pair's lengths."""


class DegenerateModel(StrthermError):
    """Raised when an operation needs a non-degenerate equilibrium model."""


class ExactnessCheckFailed(StrthermError):
    """Raised when a computed ensemble breaks one of its exact integer identities."""

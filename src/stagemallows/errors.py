"""Exception types shared across the package."""

import math


class StageMallowsError(Exception):
    """Base class for errors raised by this package."""


class CapacityError(StageMallowsError):
    """The requested ranking space exceeds the enumeration guard or byte budget."""

    #: Longest l^n, in decimal digits, that the message writes out in full.
    _MAX_DIGITS = 30

    def __init__(self, n: int, l: int, guard: int, reason: str | None = None):
        self.n = n
        self.l = l
        self.guard = guard
        size = f"{l}^{n}"
        if n * math.log10(max(l, 1)) < self._MAX_DIGITS:
            size += f" = {l**n}"
        reason = reason or f"exceeds the enumeration guard of {guard}"
        super().__init__(f"ranking space has l^n = {size} points, which {reason}")


class FormatError(StageMallowsError):
    """A dataset or ranking file violates the expected format."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class InitializationError(StageMallowsError):
    """The MCMC chain could not be started from a finite log-posterior."""

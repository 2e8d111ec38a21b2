"""Exception types shared across the package."""

import math


class StageMallowsError(Exception):
    """Base class for errors raised by this package."""


class CapacityError(StageMallowsError):
    """The ranking space {1..l}^n is past the capacity rule (mallows.check_capacity)."""

    #: Longest l^n, in decimal digits, that the message writes out in full.
    _MAX_DIGITS = 30

    def __init__(self, n: int, l: int, reason: str):
        self.n = n
        self.l = l
        size = f"{l}^{n}"
        if n * math.log10(max(l, 1)) < self._MAX_DIGITS:
            size += f" = {l**n}"
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

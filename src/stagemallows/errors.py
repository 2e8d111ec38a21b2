"""Exception types shared across the package."""


class StageMallowsError(Exception):
    """Base class for errors raised by this package."""


class CapacityError(StageMallowsError):
    """The requested ranking space exceeds the enumeration guard or byte budget."""

    def __init__(self, n: int, l: int, guard: int, reason: str | None = None):
        self.n = n
        self.l = l
        self.guard = guard
        self.space_size = l**n
        reason = reason or f"exceeds the enumeration guard of {guard}"
        super().__init__(
            f"ranking space has l^n = {l}^{n} = {self.space_size} points, "
            f"which {reason}"
        )


class FormatError(StageMallowsError):
    """A dataset or ranking file violates the expected format."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class InitializationError(StageMallowsError):
    """The MCMC chain could not be started from a finite log-posterior."""

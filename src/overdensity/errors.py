"""Exception types shared across the package.

The CLI exits 1 on InputError and FitError, and 2 on ConfigError.
"""


class InputError(ValueError):
    """Bad input data: non-finite values, malformed rows, missing files."""


class ConfigError(ValueError):
    """Inconsistent or out-of-range configuration."""


class FitError(RuntimeError):
    """Fitting cannot proceed (degenerate samples, underpopulated bins)."""


class EventRejected(Exception):
    """An event cannot be reduced to features; carries a reason code."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason

"""Exception types shared across the package."""


class HmsError(Exception):
    """Base class for all package errors."""


class DegenerateLineError(HmsError):
    """A line construction collapsed (coincident points, zero restriction)."""


class NotOnSurfaceError(HmsError):
    """A point or line fails a required containment check."""


class PrecisionError(HmsError):
    """A p-adic quantity is indeterminate at the working precision.

    `needed` carries a lower bound on the precision that would be
    required to decide the question, when one is known.
    """

    def __init__(self, message, needed=None):
        super().__init__(message)
        self.needed = needed


class ConfigError(HmsError):
    """Search configuration is malformed or inconsistent."""


class SearchExhausted(HmsError):
    """Height bound hit without a certified line; carries rejection stats."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats or {}

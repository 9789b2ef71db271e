"""Exception types shared across the package."""


class HmsError(Exception):
    """Base class for all package errors."""


class RationalityError(HmsError):
    """A coefficient that must be rational has a nonzero omega part."""


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


class ConicPointError(HmsError):
    """No rational point of small height on a conic."""


class BadLocusError(HmsError):
    """The point sits on a locus where the requested invariant degenerates."""


class SingularPointError(HmsError):
    """The tangent-cone construction needs a smooth point of the quadric."""


class RegimeError(HmsError):
    """Valuation regime parameters too small to separate leading terms."""


class ConfigError(HmsError):
    """Search configuration is malformed or inconsistent."""


class SearchExhausted(HmsError):
    """Height bound hit without a certified line; carries rejection stats."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats or {}

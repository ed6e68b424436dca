"""Exception types shared across the package."""


class TropFWError(Exception):
    """Base class for all package errors."""


class ParseError(TropFWError):
    """Malformed input file or string."""


class DimensionError(TropFWError):
    """Mismatched or invalid dimensions; never broadcast."""


class ValidationError(TropFWError):
    """Invalid values (weights, ultrametrics, leaf sets, ...)."""


class InfeasibleError(TropFWError):
    """A requested object does not exist (empty cell, unrealizable target)."""


class ScaleGuardError(TropFWError):
    """Desk-scale guard exceeded (enumeration requested beyond m*n limit)."""


class InternalError(TropFWError):
    """A broken internal invariant: a bug in this package, not bad input."""

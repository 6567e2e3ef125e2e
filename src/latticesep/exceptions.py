"""Exception types shared across the package, and its one integer check."""

import numbers


class LatticeSepError(Exception):
    """Base class for all package-specific errors."""


class ConvergenceError(LatticeSepError):
    """An iterative numerical routine failed to converge within its budget."""


class BudgetError(LatticeSepError):
    """A requested computation exceeds a hard size or enumeration budget."""


class InternalCheckError(LatticeSepError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def check_integer(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """A Python or numpy integer (not a ``bool``) in ``[minimum, maximum]`` as an ``int``,
    else a ``ValueError`` naming ``name``; ``maximum=None`` sets no upper end."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be at most {maximum}, got {value}")
    return value

"""Exception types shared across the package."""

from __future__ import annotations

import operator

__all__ = [
    "GroupApproxError",
    "ParameterError",
    "FormatError",
    "GroupAxiomError",
    "CapacityError",
    "ScopeError",
]


class GroupApproxError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(GroupApproxError, ValueError):
    """An argument is outside the documented domain (bad n, non-prime p, ...)."""


class FormatError(GroupApproxError, ValueError):
    """Malformed textual input (Cayley tables, group spec strings)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GroupAxiomError(GroupApproxError, ValueError):
    """A supplied multiplication table violates the group axioms."""


class CapacityError(GroupApproxError, RuntimeError):
    """The request is well-formed but exceeds a documented capacity limit."""


class ScopeError(GroupApproxError, RuntimeError):
    """The operation is only defined for a restricted parameter range."""


def _integer(name: str, value, low: int | None = None,
             high: int | None = None) -> int:
    """value as a Python int, refused with ParameterError unless it is at
    least low and at most high (None for no bound; a high needs a low): the
    one check of every integer argument of the public API.  An integer is
    what operator.index accepts (an int, a numpy integer), except a bool;
    nothing is coerced, so 1.5 or '1' is not read as 1."""
    try:
        if isinstance(value, bool):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if high is not None and not low <= n <= high:
        raise ParameterError(f"{name} must lie in {low}..{high}, got {n}")
    if low is not None and n < low:
        raise ParameterError(f"{name} must be >= {low}, got {n}")
    return n

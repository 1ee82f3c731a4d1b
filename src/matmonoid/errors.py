"""Exception types, the shared integer check, and the enumeration cap."""
from __future__ import annotations

import os

__all__ = [
    "IndexOutOfRange",
    "InvalidParams",
    "LimitExceeded",
    "MatMonoidError",
    "NotInMonoid",
    "WitnessMismatch",
]

# Overrides the default cap of every brute-force enumeration.
ENUM_LIMIT_ENV = "MATMONOID_ENUM_LIMIT"


class MatMonoidError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidParams(MatMonoidError, ValueError):
    """Parameter validation failed (e.g. nonpositive u/v, composite modulus)."""


class NotInMonoid(MatMonoidError, ValueError):
    """A matrix is not a product of the L/R generators."""


class IndexOutOfRange(MatMonoidError, IndexError):
    """A tree cell index is outside 1..2^depth."""


class LimitExceeded(MatMonoidError):
    """A brute-force enumeration would exceed the configured cap."""


class WitnessMismatch(MatMonoidError):
    """A constructed extremal witness failed its runtime check.

    This should never happen; it signals an index-convention bug in the
    witness word construction and must not be silenced.
    """


def require_int(name: str, value: object, low: int) -> None:
    """Raise InvalidParams unless value is an int (not a bool) and at least low."""
    if type(value) is not int or value < low:
        kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(
            low, f"an integer >= {low}"
        )
        raise InvalidParams(f"{name} must be {kind}, got {value!r}")


def enum_limit(limit: int | None, default: int) -> int:
    """The enumeration cap: limit if given, else MATMONOID_ENUM_LIMIT, else default."""
    if limit is not None:
        return limit
    env = os.environ.get(ENUM_LIMIT_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise LimitExceeded(
                f"{ENUM_LIMIT_ENV} must be an integer, got {env!r}"
            ) from None
    return default

"""Exception types, the shared integer check, the enumeration cap, and the two
renderers that know the int digit cap: show for messages, decimal_str for answers."""
from __future__ import annotations

import os
import sys

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
    """A brute-force enumeration would exceed the configured cap, or an
    answer would be too long to build (a word past sys.maxsize letters)."""


class WitnessMismatch(MatMonoidError):
    """A constructed extremal witness failed its runtime check.

    This should never happen; it signals an index-convention bug in the
    witness word construction and must not be silenced.
    """


def show(value: object) -> str:
    """repr(value) for an error message; an int too long to print in decimal
    (CPython's int_max_str_digits) is written as e.g. <16610-bit integer>."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):
            raise
        sign = "negative " if value < 0 else ""
        return f"<{sign}{value.bit_length()}-bit integer>"


def decimal_str(value: int) -> str:
    """str(value) for an exact answer at any size. The digit cap guards untrusted
    input, not computed answers: only if str refuses is the cap lifted for this
    one conversion, then restored. The lift is process-wide while the call runs."""
    try:
        return str(value)
    except ValueError:
        cap = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(cap)


def require_int(name: str, value: object, low: int) -> None:
    """Raise InvalidParams unless value is an int (not a bool) and at least low."""
    if type(value) is not int or value < low:
        kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(
            low, f"an integer >= {low}"
        )
        raise InvalidParams(f"{name} must be {kind}, got {show(value)}")


def require_enum_size(what: str, k: int, noun: str, limit: int | None, default: int) -> None:
    """Raise LimitExceeded if 2^k is above the cap: limit, else MATMONOID_ENUM_LIMIT, else default.

    2^k > cap exactly when cap < 1 or k >= cap.bit_length(), so 2^k is never built.
    """
    cap = limit
    if limit is None:
        env = os.environ.get(ENUM_LIMIT_ENV)
        try:
            cap = default if env is None else int(env)
        except ValueError:
            raise LimitExceeded(f"{ENUM_LIMIT_ENV} must be an integer, got {env!r}") from None
    elif type(limit) is not int:
        raise InvalidParams(f"limit must be an integer, got {limit!r}")
    if cap < 1 or k >= cap.bit_length():
        raise LimitExceeded(
            f"{what} 2^{show(k)} {noun}, above the limit of {show(cap)}; "
            f"raise it with limit= or {ENUM_LIMIT_ENV}"
        )

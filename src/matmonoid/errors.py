"""Exception types, the shared integer check, the enumeration and output caps,
and the two renderers that know the int digit cap: show for messages,
decimal_str for answers."""
from __future__ import annotations

import os
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded, localcontext

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
# Overrides DEFAULT_OUTPUT_LIMIT, the cap on the size of one exact answer.
OUTPUT_LIMIT_ENV = "MATMONOID_OUTPUT_LIMIT"
# In bytes: an integer of 2^28 bits (about 80 million decimal digits), or a
# word of 2^25 letters.
DEFAULT_OUTPUT_LIMIT = 2**25
# The output cap is never below this many bytes. An answer this small costs
# microseconds, and its check returns without reading the environment,
# which would cost more than many such answers.
OUTPUT_FLOOR = 2**16


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
    input, not computed answers, so a value past it is still converted, in
    subquadratic time, by _decimal_digits."""
    try:
        return str(value)
    except ValueError:
        pass
    with localcontext(_EXACT):
        digits = str(_decimal_digits(abs(value), value.bit_length(), {}))
    return "-" + digits if value < 0 else digits


# Every Decimal built by _decimal_digits is an exact integer: a rounded
# result would trap rather than print wrong digits.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])


def _decimal_digits(n: int, w: int, powers: dict[int, Decimal]) -> Decimal:
    """n >= 0 of at most w bits as a Decimal, by divide and conquer: n is split
    at 2^(w//2) and the high half scaled by that power, so the work is in a few
    large Decimal products, which libmpdec takes by a number-theoretic
    transform. powers caches 2^h as a Decimal by h. This is the algorithm of
    CPython 3.12's _pylong.int_to_decimal_string, which str itself runs
    there."""
    if w <= 128:
        return Decimal(n)
    h = w >> 1
    high = n >> h
    low = n - (high << h)
    power = powers.get(h)
    if power is None:
        power = powers[h] = Decimal(2) ** h
    return _decimal_digits(low, h, powers) + _decimal_digits(high, w - h, powers) * power


def require_int(name: str, value: object, low: int) -> None:
    """Raise InvalidParams unless value is an int (not a bool) and at least low."""
    if type(value) is not int or value < low:
        kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(
            low, f"an integer >= {low}"
        )
        raise InvalidParams(f"{name} must be {kind}, got {show(value)}")


def _cap(env: str, default: int) -> int:
    """The integer in the environment variable env, else default."""
    value = os.environ.get(env)
    try:
        return default if value is None else int(value)
    except ValueError:
        raise LimitExceeded(f"{env} must be an integer, got {value!r}") from None


def require_enum_size(what: str, k: int, noun: str, limit: int | None, default: int) -> None:
    """Raise LimitExceeded if 2^k is above the cap: limit, else MATMONOID_ENUM_LIMIT, else default.

    2^k > cap exactly when cap < 1 or k >= cap.bit_length(), so 2^k is never built.
    """
    cap = limit
    if limit is None:
        cap = _cap(ENUM_LIMIT_ENV, default)
    elif type(limit) is not int:
        raise InvalidParams(f"limit must be an integer, got {limit!r}")
    if cap < 1 or k >= cap.bit_length():
        raise LimitExceeded(
            f"{what} 2^{show(k)} {noun}, above the limit of {show(cap)}; "
            f"raise it with limit= or {ENUM_LIMIT_ENV}"
        )


def require_output_size(size: int, noun: str, what: str, *args: int) -> None:
    """Raise LimitExceeded if an answer of size bytes (one a letter of a word)
    is above the cap: MATMONOID_OUTPUT_LIMIT, else DEFAULT_OUTPUT_LIMIT, but
    never below OUTPUT_FLOOR nor above sys.maxsize, past which no str or int
    can be built. Callers check before any work, on a size estimated from
    their inputs. The message opens with what.format(*args), each arg shown
    by show; it is built only on refusal."""
    if size <= OUTPUT_FLOOR:
        return
    cap = min(max(_cap(OUTPUT_LIMIT_ENV, DEFAULT_OUTPUT_LIMIT), OUTPUT_FLOOR), sys.maxsize)
    if size > cap:
        raise LimitExceeded(
            f"{what.format(*map(show, args))} {show(size)} {noun}, "
            f"more than the limit of {show(cap)} bytes; raise it with {OUTPUT_LIMIT_ENV}"
        )

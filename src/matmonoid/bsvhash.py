"""Matrix product hash over SL2(F_p) with a provable collision horizon.

A bit string maps to a matrix product (bit 0 applies the lower shear,
bit 1 the upper shear) reduced mod a prime p. Because the unreduced
products form a free monoid and their entries stay below p up to a
computable depth n0, distinct strings of length <= n0 can never collide;
the horizon comes straight from the exact maximal-entry sequence.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Iterable, Iterator, Sequence

from .errors import InvalidParams, require_enum_size, require_int, show
from .extremal import _ladder, collision_horizon
from .matrix import Mat2, MonoidParams, _Quad

__all__ = [
    "DEFAULT_COLLISION_LIMIT",
    "Digest",
    "HashParams",
    "HashState",
    "bits_from_ascii01",
    "bits_from_bytes_msb",
    "bound_n0",
    "digest_hex",
    "exhaustive_collision_check",
    "hash_string",
    "is_probable_prime",
    "parse",
    "serialize",
]

# Exhaustively enumerating all strings of length <= m visits 2^{m+1}-1
# states; refuse past this many rather than running away. Overridable via
# the same environment knob as row enumeration.
DEFAULT_COLLISION_LIMIT = 2**22

# Bit values 0/1 to the digit characters "0"/"1", and back.
_BITS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# Miller-Rabin with these fixed bases is a proven deterministic primality
# test for all n below 3317044064679887385961981 (~3.3e24).
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DETERMINISTIC_LIMIT = 3317044064679887385961981


def _split_two(m: int) -> tuple[int, int]:
    """(d, s) with m = d * 2^s and d odd, for m > 0."""
    s = (m & -m).bit_length() - 1
    return m >> s, s


def _miller_rabin_witness(n: int, d: int, r: int, a: int) -> bool:
    """True if a witnesses that n is composite (n-1 = d * 2^r, d odd)."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0; 0 when gcd(a, n) > 1."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _extra_strong_lucas(n: int) -> bool:
    """Baillie's extra strong Lucas probable-prime test for odd n > 1.

    Q = 1 and P is the first value from 3 up with Jacobi(P^2-4, n) = -1,
    so the chain is extremal._ladder, the ladder of lucas, reduced mod n. A
    perfect square has no such P and is refused before the search, which
    therefore ends; a Jacobi value of 0 while n does not divide P^2-4
    exposes a factor. With n+1 = d*2^s, d odd, n passes when U_d = 0 and
    V_d = +-2 (mod n), or V_{d*2^r} = 0 for some r < s-1.
    """
    if isqrt(n) ** 2 == n:
        return False
    P = 3
    while (j := _jacobi(P * P - 4, n)) != -1:
        if j == 0 and (P * P - 4) % n:
            return False
        P += 1
    d, s = _split_two(n + 1)
    U, V = _ladder(P, d, n)
    if U == 0 and V in (2, n - 2):
        return True
    for _ in range(s - 1):
        if V == 0:
            return True
        V = (V * V - 2) % n
    return False


def is_probable_prime(n: int) -> bool:
    """Primality test with a deterministic verdict for every integer n.

    After trial division by the primes up to 47: below ~3.3e24, strong
    Miller-Rabin rounds to the 13 prime bases 2..41, a proven test in that
    range; above it, Baillie-PSW (one strong base-2 round and Baillie's
    extra strong Lucas test). No Baillie-PSW pseudoprime is known, and
    none exists below 2^64. The cost is about that of three modular
    exponentiations of n's size: some 0.1 s for a 2048-bit n.
    """
    if not isinstance(n, int):
        raise InvalidParams(f"primality test needs an integer, got {n!r}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = _split_two(n - 1)
    if n < _DETERMINISTIC_LIMIT:
        return not any(_miller_rabin_witness(n, d, r, a) for a in _DETERMINISTIC_BASES)
    return not _miller_rabin_witness(n, d, r, 2) and _extra_strong_lucas(n)


@dataclass(frozen=True, slots=True)
class HashParams:
    """Shear multipliers u, v and the prime modulus p."""

    u: int
    v: int
    p: int

    def __post_init__(self) -> None:
        require_int("u", self.u, 1)
        require_int("v", self.v, 1)
        require_int("p", self.p, 2)
        if not is_probable_prime(self.p):
            raise InvalidParams(f"p must be prime, got {show(self.p)}")

    @property
    def byte_width(self) -> int:
        """Bytes needed per residue: the byte length of p-1."""
        return ((self.p - 1).bit_length() + 7) // 8

    @property
    def monoid_params(self) -> MonoidParams:
        return MonoidParams(self.u, self.v)


@dataclass(frozen=True, slots=True)
class Digest:
    """The hash output: a matrix over F_p, row-major residues."""

    a: int
    b: int
    c: int
    d: int

    to_json = Mat2.to_json


def _as_bytes(data: Iterable[int]) -> bytes:
    """bytes(data), refusing values outside range(0, 256) and an int (not a length here)."""
    if isinstance(data, int):
        raise TypeError(f"expected bytes or an iterable of ints, got {show(data)}")
    return bytes(data)


class HashState:
    """Running product state; feed bits, then read the digest.

    Single-stream: sequential updates only. Distinct states are fully
    independent.
    """

    __slots__ = ("params", "a", "b", "c", "d", "bits_consumed")

    def __init__(self, params: HashParams) -> None:
        self.params = params
        p = params.p
        self.a, self.b, self.c, self.d = 1 % p, 0, 0, 1 % p
        self.bits_consumed = 0

    def update_bit(self, bit: int) -> "HashState":
        """Right-multiply the accumulator by the bit's shear, mod p."""
        p = self.params.p
        if bit == 0:
            self.a = (self.a + self.params.u * self.b) % p
            self.c = (self.c + self.params.u * self.d) % p
        elif bit == 1:
            self.b = (self.b + self.params.v * self.a) % p
            self.d = (self.d + self.params.v * self.c) % p
        else:
            raise ValueError(f"bit must be 0 or 1, got {show(bit)}")
        self.bits_consumed += 1
        return self

    def update(self, bits: Iterable[int]) -> "HashState":
        """Consume bits in order; a list or tuple of 0/1 goes a byte at a time."""
        if type(bits) in (list, tuple):
            try:
                raw = bytes(bits)
            except (TypeError, ValueError):
                raw = None
            # Anything but 0/1 elements takes the per-bit path, which
            # raises at the first bad element with the same partial state.
            if raw is not None and not raw.strip(b"\x00\x01"):
                return self._update_digits(raw.translate(_BITS_TO_DIGITS))
        for bit in bits:
            self.update_bit(bit)
        return self

    def update_bytes(self, data: bytes) -> "HashState":
        """Consume whole bytes, most significant bit first.

        Equal to update(bits_from_bytes_msb(data)): the hash is a monoid
        homomorphism, so each byte's eight shear steps are one
        precomputed matrix, applied as a single 2x2 product mod p.
        """
        data = _as_bytes(data)
        p = self.params.p
        a, b, c, d = self.a, self.b, self.c, self.d
        for e, f, g, h in map(_byte_table(self.params).__getitem__, data):
            a, b, c, d = (
                (a * e + b * g) % p,
                (a * f + b * h) % p,
                (c * e + d * g) % p,
                (c * f + d * h) % p,
            )
        self.a, self.b, self.c, self.d = a, b, c, d
        self.bits_consumed += 8 * len(data)
        return self

    def _update_digits(self, digits: str | bytes) -> "HashState":
        """Consume '0'/'1' digits: whole bytes by table, then the rest bit by bit.

        Callers check that digits holds nothing else; int() would also
        accept signs, underscores, whitespace and non-ASCII digits.
        """
        k = len(digits) % 8
        value = int(digits, 2) if digits else 0
        self.update_bytes((value >> k).to_bytes(len(digits) // 8, "big"))
        for i in range(k - 1, -1, -1):
            self.update_bit(value >> i & 1)
        return self

    def digest(self) -> Digest:
        return Digest(self.a, self.b, self.c, self.d)

    copy = copy.copy  # every field is an int or the frozen params


@lru_cache(maxsize=64)
def _byte_table(params: HashParams) -> tuple[_Quad, ...]:
    """The hash of every 8-bit word mod p, indexed by its byte value."""
    *_, level = _levels(params, 8)
    return tuple(level)


def hash_string(params: HashParams, bits: Iterable[int] | str) -> Digest:
    """One-shot hash of a bit sequence ('0'/'1' string or ints)."""
    if not isinstance(bits, str):
        return HashState(params).update(bits).digest()
    bad = bits.lstrip("01")
    if bad:
        raise ValueError(f"bit strings may only contain '0'/'1', got {bad[0]!r}")
    return HashState(params)._update_digits(bits).digest()


def _ascii01_digits(text: str) -> str:
    """The '0'/'1' characters of text; whitespace is dropped, anything else refused."""
    # str.split() drops exactly the characters for which str.isspace() holds.
    digits = "".join(text.split())
    bad = digits.lstrip("01")
    if bad:
        raise ValueError(
            f"invalid character {bad[0]!r}; expected '0', '1', or whitespace"
        )
    return digits


def bits_from_ascii01(text: str) -> list[int]:
    """Bits from literal '0'/'1' characters; whitespace is ignored."""
    return list(_ascii01_digits(text).encode("ascii").translate(_DIGITS_TO_BITS))


def bits_from_bytes_msb(data: bytes) -> list[int]:
    """Bits of a byte string, most significant bit of each byte first."""
    # The leading 1 keeps the leading zero bits; bin() has no digit cap.
    digits = bin(int.from_bytes(b"\x01" + _as_bytes(data), "big"))[3:]
    return list(digits.encode("ascii").translate(_DIGITS_TO_BITS))


def _residues(fields: Sequence[int], p: int) -> Sequence[int]:
    """fields, after checking that each is an int (not a bool) in [0, p)."""
    for x in fields:
        if type(x) is not int or not 0 <= x < p:
            raise ValueError(f"residue {show(x)} out of range for p={show(p)}")
    return fields


def serialize(d: Digest, params: HashParams) -> bytes:
    """Fixed-width big-endian encoding: 4 residues, byte_width bytes each.

    Injective for a fixed p, so digest comparison can be done on bytes.
    """
    w = params.byte_width
    return b"".join(x.to_bytes(w, "big") for x in _residues((d.a, d.b, d.c, d.d), params.p))


def parse(data: bytes, params: HashParams) -> Digest:
    """Inverse of serialize; validates length and residue range."""
    w = params.byte_width
    if len(data) != 4 * w:
        raise ValueError(f"digest must be {4 * w} bytes for p={show(params.p)}, got {len(data)}")
    fields = [int.from_bytes(data[i * w : (i + 1) * w], "big") for i in range(4)]
    return Digest(*_residues(fields, params.p))


def digest_hex(d: Digest, params: HashParams) -> str:
    """Lowercase hex of the fixed-width serialization."""
    return serialize(d, params).hex()


def bound_n0(params: HashParams) -> int:
    """Largest n0 such that no two distinct strings of length <= n0 collide.

    Equal to the largest n with the exact depth-n maximal entry below p:
    up to there the unreduced integer products are distinct (free monoid)
    and unchanged by the mod-p reduction.
    """
    return collision_horizon(params.monoid_params, params.p)


def _levels(params: HashParams, max_len: int) -> Iterator[Iterable[_Quad]]:
    """The digest residues of the strings of each length 0..max_len, in shortlex order.

    A state's children are its string followed by 0, then by 1. Every
    level is a list but the last, which is lazy, so that only the level
    before it is held.
    """
    u, v, p = params.u, params.v, params.p
    level: Iterable[_Quad] = [(1 % p, 0, 0, 1 % p)]
    for length in range(1, max_len + 1):
        yield level
        children = (
            key
            for a, b, c, d in level
            for key in (
                ((a + u * b) % p, b, (c + u * d) % p, d),
                (a, (b + v * a) % p, c, (d + v * c) % p),
            )
        )
        level = children if length == max_len else list(children)
    yield level


def _distinct_fingerprints(params: HashParams, max_len: int) -> bool:
    """True if the states of all strings of length 0..max_len hash apart.

    Keeps one int per state, not the state, and stops at the first level
    that adds fewer new values than it has strings.
    """
    seen: set[int] = set()
    for length, level in enumerate(_levels(params, max_len)):
        seen.update(map(hash, level))
        if len(seen) < (2 << length) - 1:
            return False
    return True


def _first_collision(params: HashParams, max_len: int) -> tuple[str, str] | None:
    """The shortlex-first pair of strings of length 0..max_len with one digest."""
    # A state's value is its string's shortlex code, (1 << length) | index,
    # which bin(code)[3:] turns back into the string; the codes of
    # successive levels run on without a gap.
    seen: dict[_Quad, int] = {}
    code = 1
    for level in _levels(params, max_len):
        for key in level:
            first = seen.setdefault(key, code)
            if first != code:
                return bin(first)[3:], bin(code)[3:]
            code += 1
    return None


def exhaustive_collision_check(
    params: HashParams, max_len: int, limit: int | None = None
) -> tuple[str, str] | None:
    """Search all bit strings of length 0..max_len for a digest collision.

    Strings are visited in shortlex order (by length, then lexicographic);
    the first repeated digest is reported as (earlier string, current
    string), so the result is deterministic. Returns None if every one of
    the 2^{max_len+1}-1 strings hashes distinctly.

    A first pass keeps only hash() of each digest, an int, instead of the
    digest's four residues. The fingerprint is a function of the digest,
    so if all 2^{max_len+1}-1 fingerprints differ, so do the digests, and
    None is exact. Only when two fingerprints agree does an exact
    shortlex scan over the digests themselves run, from the empty string
    on; it finds the first true collision, or None when the agreement was
    a clash of fingerprints alone.
    """
    require_int("max_len", max_len, 0)
    require_enum_size(
        f"max_len {show(max_len)} needs", max_len + 1, "- 1 states", limit, DEFAULT_COLLISION_LIMIT
    )
    if _distinct_fingerprints(params, max_len):
        return None
    return _first_collision(params, max_len)

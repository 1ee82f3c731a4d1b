"""Matrix product hash over SL2(F_p) with a provable collision horizon.

A bit string maps to a matrix product (bit 0 applies the lower shear,
bit 1 the upper shear) reduced mod a prime p. Because the unreduced
products form a free monoid and their entries stay below p up to a
computable depth n0, distinct strings of length <= n0 can never collide;
the horizon comes straight from the exact maximal-entry sequence.
"""
from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import compress, count, islice, zip_longest
from math import isqrt
from typing import Iterable, Iterator, Sequence

from .errors import InvalidParams, _Record, require_enum_size, require_int, show
from .extremal import _ladder, collision_horizon, mu_depth
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
# An odd 64-bit multiplier (2^64 over the golden ratio) that mixes folded words.
_MIX = 0x9E3779B97F4A7C15

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


class HashParams(_Record):
    """Shear multipliers u, v and the prime modulus p."""

    __slots__ = {"u": "int", "v": "int", "p": "int"}

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


class Digest(_Record):
    """The hash output: a matrix over F_p, row-major residues."""

    __slots__ = {"a": "int", "b": "int", "c": "int", "d": "int"}

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
        """Consume bits in order; a list or tuple of 0/1 goes through update_bytes."""
        if type(bits) in (list, tuple):
            try:
                raw = bytearray(bits)
            except (TypeError, ValueError):
                raw = None
            # Anything but 0/1 elements takes the per-bit path, which
            # raises at the first bad element with the same partial state.
            if raw is not None and not raw.translate(None, b"\x00\x01"):
                return self._update_digits(raw.translate(_BITS_TO_DIGITS))
        for bit in bits:
            self.update_bit(bit)
        return self

    def update_bytes(self, data: bytes) -> "HashState":
        """Consume whole bytes, most significant bit first.

        Equal to update(bits_from_bytes_msb(data)): the hash is a monoid
        homomorphism, so each byte's eight shear steps are one precomputed
        matrix. Where n0 >= 32, four bytes' matrices multiply exactly, to a
        depth-32 product of entries at most mu(32) < p, which the state takes with
        one reduction mod p; elsewhere bytes go in pairs, reduced once. A short
        last block ends on the identity. Either way the state's first product, of
        entries below p, stays below 2p^2."""
        data = _as_bytes(data)
        p = self.params.p
        a, b, c, d = self.a, self.b, self.c, self.d
        table, exact32 = _byte_table(self.params)
        steps = map(table.__getitem__, data)
        if exact32:
            for (e, f, g, h), (i, j, k, m), (q, r, s, t), (w, x, y, z) in zip_longest(
                    steps, steps, steps, steps, fillvalue=(1, 0, 0, 1)):
                e, f, g, h = e * i + f * k, e * j + f * m, g * i + h * k, g * j + h * m
                q, r, s, t = q * w + r * y, q * x + r * z, s * w + t * y, s * x + t * z
                e, f, g, h = e * q + f * s, e * r + f * t, g * q + h * s, g * r + h * t
                a, b, c, d = ((a * e + b * g) % p, (a * f + b * h) % p,
                              (c * e + d * g) % p, (c * f + d * h) % p)
        else:
            for (e, f, g, h), (i, j, k, m) in zip_longest(steps, steps, fillvalue=(1, 0, 0, 1)):
                a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
                a, b, c, d = ((a * i + b * k) % p, (a * j + b * m) % p,
                              (c * i + d * k) % p, (c * j + d * m) % p)
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


def _fingerprinted_levels(params: HashParams, k: int) -> Iterator[tuple[memoryview, bytearray]]:
    """_fingerprinted_level of each level j = 0..k, packed in four ints: lane i (w
    bits) of each holds that entry of the digest of the i-th length-j string in
    shortlex order (0 first); L_u*M fill the low half of a level. No lane carries:
    w, a multiple of 16, keeps a spare top bit above mu(k), which no residue of a
    depth-j <= k entry passes, or above (1+t)(p-1) for t = max(u, v) mod p, if less
    (so within n0 nothing is reduced). Subtracting p*2^i where an entry is at least
    that, for i from bitlen(bound // p) - 1 down, leaves it mod p. Holds no level
    it has yielded."""
    p, u, v, mp = params.p, params.u % params.p, params.v % params.p, params.monoid_params
    cap, a, b, c, d = (1 + max(u, v)) * (p - 1), 1, 0, 0, 1
    bound = mu_depth(mp, k) if k <= collision_horizon(mp, max(cap, 2)) else cap
    w, shifts = bound.bit_length() + 16 & -16, (bound // p).bit_length()
    top, q = 1 << w - 1, p << shifts
    for j in range(k):
        yield _fingerprinted_level((a, b, c, d), w, j)
        s = w << j
        a, c = a | a + v * c << s, c + u * a | c << s
        b, d = b | b + v * d << s, d + u * b | d << s
        if shifts:
            top, q = top | top << s, q | q << s
            for i in range(1, shifts + 1):
                qi = q >> i
                a, b, c, d = (x - (qi & _lanes_at_least(x, qi, top, w)) for x in (a, b, c, d))
    yield _fingerprinted_level((a, b, c, d), w, k)


def _lanes_at_least(x: int, y: int, top: int, w: int) -> int:
    """Ones in each w-bit lane where x >= y, for lanes with the top bit clear:
    (x | top) - y keeps a lane's top bit exactly then, with no borrow."""
    t = (x | top) - y & top
    return t - (t >> w - 1)


@lru_cache(maxsize=64)
def _byte_table(params: HashParams) -> tuple[tuple[_Quad, ...], bool]:
    """(table, exact32): each byte value's hash mod p, lane e of level 8, and n0 >= 32."""
    *_, (_, lanes) = _fingerprinted_levels(params, 8)
    n = len(lanes) >> 10
    entries = iter([int.from_bytes(lanes[i:i + n], "little") for i in range(0, len(lanes), n)])
    return tuple(zip(*[entries] * 4)), bound_n0(params) >= 32


def hash_string(params: HashParams, bits: Iterable[int] | str) -> Digest:
    """One-shot hash of a bit sequence ('0'/'1' string or ints)."""
    if not isinstance(bits, str):
        return HashState(params).update(bits).digest()
    if bad := bits.lstrip("01"):
        raise ValueError(f"bit strings may only contain '0'/'1', got {bad[0]!r}")
    return HashState(params)._update_digits(bits).digest()


def _ascii01_digits(text: str) -> str:
    """The '0'/'1' characters of text; whitespace is dropped, anything else refused."""
    # str.split() drops exactly the characters for which str.isspace() holds.
    digits = "".join(text.split())
    if bad := digits.lstrip("01"):
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


def _fingerprinted_level(entries: _Quad, w: int, k: int) -> tuple[memoryview, bytearray]:
    """(fingerprints, lanes) of the 2^k strings of a packed level, in shortlex order.

    lanes interleaves the four ints into one 4w-bit lane a | b << w | c << 2w |
    d << 3w per string. A lane of m > 1 64-bit words folds to the xor of its
    words, each times its own odd multiplier, mod 2^64; a one-word lane is its
    own fingerprint."""
    m, n = w >> 4, w >> 3
    lanes = bytearray(4 * n << k)
    for j, x in enumerate(entries):
        # Byte r of each lane of entry j is byte j*n + r of its 4w-bit lane; one copy held.
        entry = x.to_bytes(n << k, "little")
        for r in range(n):
            lanes[j * n + r::4 * n] = entry[r::n]
        del entry
    words = memoryview(lanes).cast("Q")
    if m > 1:
        # Word j of each lane times an odd multiplier, in a 128-bit lane of its own.
        column, mix = memoryview(bytearray(16 << k)).cast("Q"), 0
        for j in range(m):
            column[::2] = words[j::m]
            mix ^= int.from_bytes(column, "little") * (_MIX + 2 * j)
        words = memoryview(mix.to_bytes(16 << k, "little")).cast("Q")[::2]
    return words, lanes


def _replay(params: HashParams, max_len: int, k: int, keys: set[int]) -> tuple[str, str] | None:
    """The shortlex-first pair of strings of length 0..k with one digest among the
    empty string and those whose fingerprint, on the first pass's walk (the same
    max_len), is in keys; compared by their exact lanes."""
    first: dict[bytes, str] = {}
    for j, (words, lanes) in enumerate(islice(_fingerprinted_levels(params, max_len), k + 1)):
        if not j:
            keys = keys | {words[0]}  # the empty string's
        n = len(lanes) >> j
        for i in compress(count(), map(keys.__contains__, words)):
            word = bin(1 << j | i)[3:]
            earlier = first.setdefault(bytes(lanes[i * n:(i + 1) * n]), word)
            if earlier != word:
                return earlier, word
    return None


def exhaustive_collision_check(params: HashParams, max_len: int) -> tuple[str, str] | None:
    """Search all bit strings of length 0..max_len for a digest collision.

    Returns the shortlex-first pair (earlier, current) with one digest, or None. Both
    shears are invertible mod p, so it is "" and another string, or crosses the (first
    letter, last letter) classes 00 and 11, or 01 and 10. A first pass probes a set of
    class 00 and "" with the 11 words' 64-bit fingerprints, then one of 01 and "" with
    the 10 words'; where a set repeats or a probe hits, _replay compares exact lanes.
    """
    require_int("max_len", max_len, 0)
    require_enum_size(f"max_len {show(max_len)} needs", max_len + 1, "- 1 states",
                      DEFAULT_COLLISION_LIMIT)
    seen, w01, w10, w11 = set(), array("Q"), array("Q"), array("Q")
    levels = _fingerprinted_levels(params, max_len)
    # Not enumerate: its reused result tuple would hold a level while the next is built.
    for words, lanes in levels:
        # Lane i of level k is i in k digits: first letter i >= half, last letter i % 2.
        k, half, size = len(words).bit_length() - 1, len(words) + 1 >> 1, len(seen)
        if k == max_len:
            levels.close()  # the walk's copy of the last level, freed before the set grows
        seen.update(words[:half:2])
        w01.frombytes(words[min(k, 1):half:2].tobytes())  # and "", lane 0 of level 0
        w10.frombytes(words[half + 1 & -2::2].tobytes())
        w11.frombytes(words[half | 1::2].tobytes())
        del words, lanes  # freed before the next level is built; only a replay needs lanes
        shrank = len(seen) - size < half + 1 >> 1
        if shrank or k == max_len:
            keys = seen.intersection(w11)
            if k == max_len:
                seen.clear()  # so that one quarter-size set is alive at a time
            seen01 = set(w01)
            keys |= seen01.intersection(w10)
            shrank |= len(seen01) < len(w01)
            del seen01
            if (shrank or keys) and (pair := _replay(params, max_len, k, keys)):
                return pair
    return None

"""Shear-product hashing into SL2(F_p): primality gate, streaming state,
digest serialization, and the exhaustive collision search."""
import builtins
import copy
import random
import re
import sys
import tracemalloc
from array import array
from itertools import islice
from typing import Iterable, Iterator

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from matmonoid import (
    Digest,
    HashParams,
    HashState,
    InvalidParams,
    LimitExceeded,
    MonoidParams,
    bits_from_ascii01,
    bits_from_bytes_msb,
    bound_n0,
    collision_horizon,
    digest_hex,
    exhaustive_collision_check,
    hash_string,
    is_probable_prime,
    mu_depth,
    parse,
    serialize,
    word_to_matrix,
)
from matmonoid import bsvhash
from matmonoid.bsvhash import (_extra_strong_lucas, _fingerprinted_levels, _jacobi,
                               _miller_rabin_witness, _split_two)
from matmonoid.errors import ENUM_LIMIT_ENV, OUTPUT_LIMIT_ENV
from matmonoid.extremal import _ladder
from matmonoid.matrix import _Quad
from test_acceptance import PRIME_2048
from test_extremal import collision_horizon_by_search

HP235 = HashParams(2, 3, 5)
BIG_PRIME = 2**61 - 1

bit_lists = st.lists(st.integers(0, 1), max_size=48)
# Bit 0 applies L_u and bit 1 applies R_v.
BITS_TO_LETTERS = str.maketrans("01", "LR")

# Small moduli, where collisions come early, for the exhaustive search.
SMALL_GRID = [(u, v, p) for u in (1, 2, 3) for v in (1, 2, 3) for p in (2, 3, 5, 7, 11, 101)]
# Multipliers far above the modulus: the packed search reduces its lanes most often.
HUGE_MULTIPLIERS = [(10**23, 2, 101), (3, 10**23, 101), (10**23, 10**23, 101)]
# No collision up to length 8, in lanes of several 64-bit words.
WIDE_NO_COLLISION = [(5, 7, 2**127 - 1), (10**23, 10**23, PRIME_2048)]
# Shear pairs with u = v, u < v, u > v, u or v = 1 and a large product.
HORIZON_PAIRS = [(1, 1), (1, 6), (6, 1), (2, 3), (3, 2), (5, 7), (6, 6)]

# The kernel's moduli: tiny (every byte-table entry reduced), small, and
# multi-word primes where the table entries stay unreduced; then the RFC 3526
# prime, and (10^23, 10^23) mod 2^127 - 1, whose table entries are as wide as
# p, so that a byte pair's unreduced product is at its widest.
KERNEL_PARAMS = [
    HashParams(u, v, p)
    for p in (2, 5, 101, 2**61 - 1, 2**521 - 1)
    for u, v in ((1, 1), (2, 3), (5, 7))
] + [HashParams(2, 3, PRIME_2048), HashParams(10**23, 10**23, 2**127 - 1)]
# Twelve bytes: three four-byte blocks, with every prefix a remainder mod 4.
KERNEL_PAYLOAD = b"\xff\x96\x00\xc3\x5a\x01\x80\x7e\xe7\x3c\x10\xfd"
# Up to 11 whole bytes, followed by a tail of any length mod 8.
long_bit_lists = st.lists(st.integers(0, 1), max_size=90)
# Elements the byte packer refuses; the per-bit path decides each one.
odd_elements = st.sampled_from([2, -1, 256, 2**70, 1.0, 0.0, None, "0", "1", b"\x01", 0.5])


# The bits of each byte value, most significant first: the table the decoder
# used before it went through int.from_bytes and bin().
BYTE_BITS = tuple(tuple(byte >> k & 1 for k in range(7, -1, -1)) for byte in range(256))

needs_digit_cap = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int digit cap in this Python")


def bits_by_table(data):
    return [bit for byte in data for bit in BYTE_BITS[byte]]


def fold(state, bits):
    """Reference: one update_bit per element. Returns the first error message."""
    try:
        for bit in bits:
            state.update_bit(bit)
    except ValueError as exc:
        return str(exc)
    return None


def snapshot(state):
    return (state.a, state.b, state.c, state.d, state.bits_consumed)


def string_keyed_collision_search(params, max_len):
    """The string-keyed shortlex search the index-coded one must reproduce."""
    u, v, p = params.u, params.v, params.p
    root = (1 % p, 0, 0, 1 % p)
    seen = {root: ""}
    level = [("", root)]
    for _ in range(max_len):
        nxt = []
        for s, (a, b, c, d) in level:
            child0 = (s + "0", ((a + u * b) % p, b, (c + u * d) % p, d))
            child1 = (s + "1", (a, (b + v * a) % p, c, (d + v * c) % p))
            for child in (child0, child1):
                word, key = child
                if key in seen:
                    return seen[key], word
                seen[key] = word
                nxt.append(child)
        level = nxt
    return None


# The exact scan exhaustive_collision_check ran on any fingerprint agreement
# before it replayed its lane walk: one tuple per string, and a dict of every
# digest from the empty string on. Kept as the reference that the search's
# memory is measured against.
def tuple_levels(params: HashParams, max_len: int) -> Iterator[Iterable[_Quad]]:
    """The digest residues of the strings of each length 0..max_len, in shortlex order.

    A state's children are its string followed by 0, then by 1. Every
    level is a list but the last, which is lazy, so that only the level
    before it is held.
    """
    u, v, p = params.u, params.v, params.p
    level: Iterable[_Quad] = [(1 % p, 0, 0, 1 % p)]
    for length in range(1, max_len + 1):
        yield level
        children = (key for a, b, c, d in level for key in (
            ((a + u * b) % p, b, (c + u * d) % p, d), (a, (b + v * a) % p, c, (d + v * c) % p)))
        level = children if length == max_len else list(children)
    yield level


def stepped_row_bound(u: int, v: int, k: int) -> int:
    """A bound on every entry of a depth-k product, stepped letter by letter: the
    column maxima of the words starting with L and with R. The reference that
    mu(k), the exact maximum, and so the packed walk's lanes never exceed."""
    a0 = c0 = a1 = c1 = 1
    for _ in range(k):
        a0, c0, a1, c1 = (max(a0, a1), max(c0 + u * a0, c1 + u * a1),
                          max(a0 + v * c0, a1 + v * c1), max(c0, c1))
    return max(a0, c0, a1, c1)


def lane_bytes(bound: int) -> int:
    """The bytes of one packed lane, four entries of w bits, for entries up to
    bound: w is a multiple of 16 with a spare top bit."""
    return (bound.bit_length() + 16 & -16) // 2


def level_products(params: MonoidParams, k: int) -> list:
    """The exact matrices of the 2^k words of length k, in shortlex order, L first."""
    return [word_to_matrix(bin(1 << k | i)[3:].translate(BITS_TO_LETTERS), params)
            for i in range(1 << k)]


def lane_entries(lanes: bytearray, k: int) -> list[_Quad]:
    """The (a, b, c, d) of each lane of a packed level k: n bytes each, little-endian."""
    n = len(lanes) >> k + 2
    entries = iter([int.from_bytes(lanes[i:i + n], "little") for i in range(0, len(lanes), n)])
    return list(zip(entries, entries, entries, entries))


def index_coded_collision_search(params: HashParams, max_len: int) -> tuple[str, str] | None:
    """The shortlex-first pair of strings of length 0..max_len with one digest."""
    # A state's value is its string's shortlex code, (1 << length) | index,
    # which bin(code)[3:] turns back into the string; the codes of
    # successive levels run on without a gap.
    seen: dict[_Quad, int] = {}
    code = 1
    for level in tuple_levels(params, max_len):
        for key in level:
            first = seen.setdefault(key, code)
            if first != code:
                return bin(first)[3:], bin(code)[3:]
            code += 1
    return None


def traced_peak(search, *args):
    """(search(*args), the peak of its traced allocations in bytes)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = search(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def rewrite_fingerprints(monkeypatch, rewrite):
    """Make every walk of the collision search pass each level's fingerprints,
    copied into an array of 64-bit ints (one-word lanes are their own
    fingerprints), through rewrite(words, k), which returns the new ones."""
    fingerprinted_level = bsvhash._fingerprinted_level

    def rewriting(entries, w, k):
        words, lanes = fingerprinted_level(entries, w, k)
        return memoryview(rewrite(array("Q", words), k)), lanes

    monkeypatch.setattr(bsvhash, "_fingerprinted_level", rewriting)


def plant_fingerprint(monkeypatch, source, target):
    """Give the string target the fingerprint of source, a string no longer
    than target and before it."""
    planted = []

    def plant(words, k):
        # The string s is lane int(s, 2) of level len(s).
        if k == len(source):
            planted[:] = [words[int("0" + source, 2)]]
        if k == len(target):
            words[int(target, 2)] = planted[0]
        return words

    rewrite_fingerprints(monkeypatch, plant)


def letter_class(s):
    """The (first letter, last letter) class of s, as in "01"; "" for the empty string."""
    return s[:1] + s[-1:]


def first_pair_of_kind(kind, degenerate):
    """(params, max_len, pair): the first (u, v, p) of a small grid, with u or v
    divisible by p when degenerate and neither otherwise, whose shortlex-first
    colliding pair has the sorted classes kind, with the least max_len that finds it."""
    for p in (2, 3, 5, 7, 11, 13):
        for u in range(1, p + 1):
            for v in range(1, p + 1):
                if (u % p == 0 or v % p == 0) != degenerate:
                    continue
                # "0" * p is the identity mod p, so a first pair ends by length p.
                hp = HashParams(u, v, p)
                pair = string_keyed_collision_search(hp, p)
                if tuple(sorted(map(letter_class, pair))) == kind:
                    return hp, len(pair[1]), pair
    raise LookupError(f"no first pair of kind {kind} in the grid")


@pytest.fixture
def replays(monkeypatch):
    """The length k of each replay that exhaustive_collision_check runs, in order."""
    ks = []
    replay = bsvhash._replay

    def spy(params, max_len, k, keys):
        ks.append(k)
        return replay(params, max_len, k, keys)

    monkeypatch.setattr(bsvhash, "_replay", spy)
    return ks


class TestIsProbablePrime:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19}
        for n in range(-2, 21):
            assert is_probable_prime(n) == (n in primes)
        for n in (97, 101, 257, 1009):
            assert is_probable_prime(n)

    def test_carmichael_numbers_are_rejected(self):
        for n in (561, 1105, 1729, 41041):
            assert not is_probable_prime(n)

    def test_strong_pseudoprime_base_two(self):
        assert not is_probable_prime(2047)  # 23 * 89

    def test_large_known_values(self):
        assert is_probable_prime(BIG_PRIME)
        assert is_probable_prime(10**9 + 7)
        assert not is_probable_prime(BIG_PRIME * (10**9 + 7))

    @given(st.integers(2, 10**4))
    def test_matches_trial_division(self, n):
        by_trial = n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_probable_prime(n) == by_trial

    def test_strong_pseudoprime_to_bases_two_to_thirty_seven(self):
        # 399165290221 * 798330580441 passes Miller-Rabin for every prime
        # base up to 37, so the deterministic range needs base 41 as well.
        assert not is_probable_prime(318665857834031151167461)

    def test_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        limit = 3317044064679887385961981  # end of the deterministic range
        rng = random.Random(20261018)
        sample = [rng.randrange(2, 10**6) for _ in range(300)]
        for low, high, count in ((limit // 10**6, limit, 300), (limit, limit * 10**6, 100),
                                 (2**127, 2**256, 10)):
            for _ in range(count):
                n = rng.randrange(low, high) | 1
                sample += [n, sympy.nextprime(n)]
        # Carmichael numbers, the last three (6k+1)(12k+1)(18k+1) past the limit.
        sample += [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
                   3332857419635169667705129, 3333247875082425640439089,
                   3333265391555464970126161]
        # Strong base-2 pseudoprimes, up to the smallest one for bases 2..41.
        sample += [2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633,
                   3825123056546413051, 318665857834031151167461, limit]
        # Semiprimes of two 64-bit primes.
        for _ in range(50):
            a, b = (sympy.nextprime(rng.getrandbits(64) | 1 << 63) for _ in range(2))
            sample += [a * b, a * a]
        # Semiprimes of two 1024-bit primes: seeded starts plus their offsets
        # to the next prime, found once with sympy.nextprime, whose search for
        # all six would take longer than the rest of this test.
        rng = random.Random(1024)
        big = [(rng.getrandbits(1024) | 1 << 1023) + k for k in (273, 242, 221, 158, 982, 365)]
        assert all(sympy.isprime(p) for p in big)
        sample += [a * b for a, b in zip(big[::2], big[1::2])] + [big[0] ** 2]
        # The square of a prime past the limit, the RFC 3526 2048-bit MODP
        # prime and the Mersenne prime 2^2203 - 1.
        sample += [sympy.nextprime(limit) ** 2, PRIME_2048, 2**2203 - 1]
        wrong = [n for n in sample if is_probable_prime(n) != sympy.isprime(n)]
        assert wrong == []


def _prime_flags(limit):
    """flags[n] is 1 exactly when n < limit is prime (sieve of Eratosthenes)."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for q in range(2, int(limit**0.5) + 1):
        if flags[q]:
            flags[q * q::q] = bytes(len(range(q * q, limit, q)))
    return flags


# The odd composites below 2*10^5 that pass the extra strong Lucas test
# with Baillie's parameters (OEIS A217719).
EXTRA_STRONG_LUCAS_PSEUDOPRIMES = {
    989, 3239, 5777, 10877, 27971, 29681, 30739, 31631, 39059, 72389, 73919,
    75077, 100127, 113573, 125249, 137549, 137801, 153931, 155819, 161027,
    162133, 189419,
}


def lucas_mod(P, m, n):
    """(U_m, V_m) mod the odd n for x^2 - Px + 1: the separate mod-n loop
    that _ladder(P, m, n) replaced, reducing after every operation."""
    U, V = 0, 2
    D = P * P - 4
    for k in range(m.bit_length() - 1, -1, -1):
        U, V = U * V % n, (V * V - 2) % n
        if m >> k & 1:
            U, V = P * U + V, D * U + P * V
            U, V = (U + (U & 1) * n) // 2 % n, (V + (V & 1) * n) // 2 % n
    return U, V


class TestBailliePSW:
    def test_ladder_matches_the_separate_mod_n_loop(self):
        # The Lucas leg's inputs past the deterministic range: the RFC 3526
        # prime, 2^521 - 1, and the 1024-bit semiprimes of test_agrees_with_sympy.
        rng = random.Random(1024)
        big = [(rng.getrandbits(1024) | 1 << 1023) + k for k in (273, 242, 221, 158, 982, 365)]
        for n in (PRIME_2048, 2**521 - 1, *(a * b for a, b in zip(big[::2], big[1::2]))):
            P = 3
            while _jacobi(P * P - 4, n) != -1:
                P += 1
            d, _ = _split_two(n + 1)
            assert _ladder(P, d, n) == lucas_mod(P, d, n), (P, n)

    def test_lucas_leg_passes_primes_and_its_pseudoprimes(self):
        limit = 2 * 10**5
        prime = _prime_flags(limit)
        passed = {n for n in range(3, limit, 2) if _extra_strong_lucas(n)}
        primes = {n for n in range(3, limit, 2) if prime[n]}
        assert passed == primes | EXTRA_STRONG_LUCAS_PSEUDOPRIMES

    def test_lucas_leg_rejects_strong_base_two_pseudoprimes(self, monkeypatch):
        # Each passes the base-2 round, so the Lucas leg alone must stop it;
        # the last two are squares of the Wieferich primes 1093 and 3511.
        monkeypatch.setattr(bsvhash, "_DETERMINISTIC_LIMIT", 0)
        for n in (2047, 3277, 4033, 4681, 8321, 1093**2, 3511**2):
            d, r = _split_two(n - 1)
            assert not _miller_rabin_witness(n, d, r, 2)
            assert not _extra_strong_lucas(n)
            assert not is_probable_prime(n)

    def test_lucas_leg_rejects_perfect_squares(self, monkeypatch):
        # No P has Jacobi(P^2-4, k^2) = -1, so a square must be refused before
        # the search for P; past k = PRIME_2048 that search would never end.
        def no_search(a, n):
            raise AssertionError(f"searched for P on the square {n}")

        monkeypatch.setattr(bsvhash, "_jacobi", no_search)
        for k in (*range(1, 400, 2), 2**61 - 1, 2**127 - 1, PRIME_2048):
            assert not _extra_strong_lucas(k * k)

    def test_bpsw_matches_trial_division(self, monkeypatch):
        # Baillie-PSW on every n, not only past the deterministic range.
        monkeypatch.setattr(bsvhash, "_DETERMINISTIC_LIMIT", 0)
        limit = 3 * 10**5
        prime = _prime_flags(limit)
        wrong = [n for n in range(limit) if is_probable_prime(n) != prime[n]]
        assert wrong == []

    def test_bpsw_takes_over_at_the_limit(self, monkeypatch):
        limit = 3317044064679887385961981
        calls = []
        monkeypatch.setattr(
            bsvhash, "_extra_strong_lucas", lambda n: calls.append(n) or _extra_strong_lucas(n)
        )
        # Strong pseudoprimes to the prime bases up to 37, and up to 41 (the limit).
        assert not is_probable_prime(318665857834031151167461)
        assert not is_probable_prime(limit)
        assert is_probable_prime(2**127 - 1)
        assert calls == [limit, 2**127 - 1]


class TestHashParams:
    def test_valid_params(self):
        assert (HP235.u, HP235.v, HP235.p) == (2, 3, 5)
        assert HP235.monoid_params == MonoidParams(2, 3)

    @pytest.mark.parametrize("u,v,p", [(2, 3, 4), (2, 3, 1), (0, 3, 5), (2, 0, 5)])
    def test_rejects_bad_params(self, u, v, p):
        with pytest.raises(InvalidParams):
            HashParams(u, v, p)

    @pytest.mark.parametrize("p,width", [(2, 1), (5, 1), (251, 1), (257, 2), (65537, 3)])
    def test_byte_width(self, p, width):
        assert HashParams(1, 1, p).byte_width == width


class TestHashState:
    def test_init_is_identity(self):
        state = HashState(HP235)
        assert state.digest() == Digest(1, 0, 0, 1)
        assert state.bits_consumed == 0

    def test_single_bit_steps(self):
        state = HashState(HP235)
        state.update_bit(0)
        assert state.digest() == Digest(1, 0, 2, 1)
        state.update_bit(1)
        assert state.digest() == Digest(1, 3, 2, 2)
        assert state.bits_consumed == 2

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            HashState(HP235).update_bit(2)

    def test_copy_is_independent(self):
        state = HashState(HP235).update([0, 1])
        clone = copy.copy(state)
        state.update_bit(1)
        assert clone.digest() == Digest(1, 3, 2, 2)
        assert clone.bits_consumed == 2
        assert state.bits_consumed == 3

    @given(bit_lists, st.integers(0, 48))
    def test_chunking_is_irrelevant(self, bits, cut):
        cut = min(cut, len(bits))
        chunked = HashState(HP235).update(bits[:cut]).update(bits[cut:])
        assert chunked.digest() == hash_string(HP235, bits)
        assert chunked.bits_consumed == len(bits)

    @given(bit_lists)
    def test_determinant_stays_one(self, bits):
        d = hash_string(HP235, bits)
        assert (d.a * d.d - d.b * d.c) % HP235.p == 1


class TestHashString:
    def test_worked_example(self):
        assert hash_string(HP235, "01100") == Digest(0, 1, 4, 3)

    def test_empty_string(self):
        assert hash_string(HP235, "") == Digest(1, 0, 0, 1)

    def test_large_modulus_leaves_product_unreduced(self):
        assert hash_string(HashParams(2, 3, 101), "01100") == Digest(25, 6, 54, 13)

    def test_accepts_int_sequences(self):
        assert hash_string(HP235, [0, 1, 1, 0, 0]) == Digest(0, 1, 4, 3)

    def test_rejects_other_characters(self):
        with pytest.raises(ValueError):
            hash_string(HP235, "01x")

    @given(bit_lists)
    @settings(max_examples=60)
    def test_matches_exact_product_below_the_modulus(self, bits):
        # With p far above every entry, hashing is the plain word product.
        hp = HashParams(2, 3, BIG_PRIME)
        word = "".join("L" if b == 0 else "R" for b in bits[:16])
        m = word_to_matrix(word, MonoidParams(2, 3))
        d = hash_string(hp, bits[:16])
        assert (d.a, d.b, d.c, d.d) == (m.a, m.b, m.c, m.d)

    @given(st.sampled_from([131, 521, 2053, 2**61 - 1]), st.integers(1, 2**64),
           st.integers(1, 2**64), st.integers(1, 2**64), st.integers(0, 2),
           st.text("01", max_size=200))
    @settings(max_examples=200)
    def test_params_with_one_uv_mod_p_hash_alike_up_to_a_diagonal(self, p, u, v, unit, k, bits):
        # D = diag(lam, 1) conjugates L_u' to L_(u'/lam) and R_v' to R_(lam*v'), so
        # for p not dividing uv and u'v' = uv (mod p), lam = u'/u turns every digest
        # of (u', v') into the one of (u, v). k*p widens v' without moving its class.
        u2 = unit % p
        assume(u * v % p and u2)
        v2 = u * v * pow(u2, -1, p) % p + k * p
        lam = u2 * pow(u, -1, p) % p
        d = hash_string(HashParams(u, v, p), bits)
        d2 = hash_string(HashParams(u2, v2, p), bits)
        assert (d.a, d.b, d.c, d.d) == (d2.a, lam * d2.b % p, d2.c * pow(lam, -1, p) % p, d2.d)


class TestByteTableKernel:
    """update/hash_string consume whole bytes through a 256-entry table."""

    @given(st.sampled_from(KERNEL_PARAMS), long_bit_lists,
           st.sampled_from(["list", "tuple", "bools"]))
    @settings(max_examples=150)
    def test_sequences_match_the_per_bit_fold(self, hp, bits, form):
        seq = {"list": bits, "tuple": tuple(bits), "bools": [b == 1 for b in bits]}[form]
        ref = HashState(hp)
        assert fold(ref, seq) is None
        assert snapshot(HashState(hp).update(seq)) == snapshot(ref)
        assert hash_string(hp, seq) == ref.digest()

    @given(st.sampled_from(KERNEL_PARAMS), long_bit_lists)
    @settings(max_examples=100)
    def test_strings_match_the_per_bit_fold(self, hp, bits):
        ref = HashState(hp)
        fold(ref, bits)
        text = "".join(map(str, bits))
        assert hash_string(hp, text) == ref.digest()
        # update() takes bit values, not digit characters, as it always has.
        state, per_bit = HashState(hp), HashState(hp)
        expected = fold(per_bit, text)
        if expected is None:
            assert snapshot(state.update(text)) == snapshot(per_bit)
        else:
            with pytest.raises(ValueError, match=re.escape(expected)):
                state.update(text)
            assert snapshot(state) == snapshot(per_bit)

    @pytest.mark.parametrize("length", range(24))
    def test_every_length_mod_eight(self, length):
        bits = [(i * 5 + length) % 3 % 2 for i in range(length)]
        for hp in KERNEL_PARAMS:
            ref = HashState(hp)
            fold(ref, bits)
            state = HashState(hp).update(bits)
            assert snapshot(state) == snapshot(ref)
            assert state.bits_consumed == length

    @given(st.sampled_from(KERNEL_PARAMS), long_bit_lists, st.lists(st.integers(0, 90), max_size=4))
    @settings(max_examples=100)
    def test_uneven_chunks_keep_bits_consumed_exact(self, hp, bits, cuts):
        ref = HashState(hp)
        fold(ref, bits)
        state = HashState(hp)
        bounds = [0] + sorted(min(c, len(bits)) for c in cuts) + [len(bits)]
        for lo, hi in zip(bounds, bounds[1:]):
            state.update(bits[lo:hi])
            assert state.bits_consumed == hi
        assert snapshot(state) == snapshot(ref)

    @given(st.sampled_from(KERNEL_PARAMS), long_bit_lists.filter(bool), st.data())
    @settings(max_examples=150)
    def test_bad_element_raises_at_its_position(self, hp, bits, data):
        k = data.draw(st.integers(0, len(bits) - 1))
        bad = data.draw(odd_elements)
        seq = bits[:k] + [bad] + bits[k + 1:]
        for form in (seq, tuple(seq)):
            ref = HashState(hp)
            expected = fold(ref, form)
            state = HashState(hp)
            if expected is None:  # 1.0 and 0.0 compare equal to bits
                assert snapshot(state.update(form)) == snapshot(ref)
                assert hash_string(hp, form) == ref.digest()
                continue
            with pytest.raises(ValueError, match=re.escape(expected)):
                state.update(form)
            assert snapshot(state) == snapshot(ref)
            assert ref.bits_consumed == k
            with pytest.raises(ValueError, match=re.escape(expected)):
                hash_string(hp, form)

    @pytest.mark.parametrize("hp", [HashParams(1, 1, 2), HP235, HashParams(5, 7, 101),
                                    HashParams(2, 3, 2**127 - 1)], ids=str)
    def test_table_matches_the_per_bit_construction(self, hp):
        states = [HashState(hp)]
        for _ in range(8):
            states = [copy.copy(s).update_bit(bit) for s in states for bit in (0, 1)]
        assert bsvhash._byte_table(hp)[0] == tuple((s.a, s.b, s.c, s.d) for s in states)

    def test_generators_and_bytes_take_the_per_bit_path(self):
        bits = [0, 1, 1, 0, 0, 1, 0, 1, 1]
        ref = HashState(HP235)
        fold(ref, bits)
        assert snapshot(HashState(HP235).update(iter(bits))) == snapshot(ref)
        assert snapshot(HashState(HP235).update(bytes(bits))) == snapshot(ref)
        with pytest.raises(ValueError, match="got 2"):
            HashState(HP235).update(b"\x00\x02")

    @pytest.mark.parametrize("text,bad", [
        ("0_1", "_"), (" 01", " "), ("+01", "+"), ("٠١", "٠"), ("０", "０"),
        ("0b1", "b"), ("01\n", "\n"), ("1 0", " "),
    ])
    def test_strings_int_would_accept_are_rejected(self, text, bad):
        for hp in (HP235, KERNEL_PARAMS[-1]):
            with pytest.raises(ValueError) as exc:
                hash_string(hp, text)
            assert str(exc.value) == f"bit strings may only contain '0'/'1', got {bad!r}"

    @pytest.mark.parametrize("hp", KERNEL_PARAMS, ids=repr)
    def test_byte_pairs_match_the_per_bit_fold(self, hp):
        """update_bytes reduces once per block of four bytes where mu(32) < p, else
        once per pair; a short last block ends on the identity. Every byte count
        0-12 (each remainder mod 4 and mod 2, one to three whole blocks) matches the
        fold, and every call leaves all four entries reduced into [0, p)."""
        data = KERNEL_PAYLOAD
        for n in range(len(data) + 1):
            ref = HashState(hp)
            fold(ref, bits_from_bytes_msb(data[:n]))
            state = HashState(hp).update_bytes(data[:n])
            assert snapshot(state) == snapshot(ref)
            assert all(0 <= x < hp.p for x in snapshot(state)[:4])

    @pytest.mark.parametrize("hp", KERNEL_PARAMS, ids=repr)
    def test_a_call_split_anywhere_equals_one_call(self, hp):
        whole = snapshot(HashState(hp).update_bytes(KERNEL_PAYLOAD))
        for k in range(len(KERNEL_PAYLOAD) + 1):
            split = HashState(hp).update_bytes(KERNEL_PAYLOAD[:k])
            assert all(0 <= x < hp.p for x in snapshot(split)[:4])
            split.update_bytes(KERNEL_PAYLOAD[k:])
            assert snapshot(split) == whole

    @pytest.mark.parametrize("hp,exact32", [
        (HashParams(2, 3, PRIME_2048), True), (HashParams(5, 7, 2**127 - 1), True),
        (HashParams(5, 7, 2**61 - 1), False), (HashParams(2, 3, 101), False),
        (HashParams(10**23, 10**23, 2**127 - 1), False),
    ], ids=repr)
    def test_four_byte_blocks_where_mu_32_is_below_p(self, hp, exact32):
        """The rule: four bytes per reduction exactly where the depth-32 maximal
        entry, and so every entry of a four-byte block's product, is below p."""
        assert bsvhash._byte_table(hp)[1] is exact32
        assert (collision_horizon(hp.monoid_params, hp.p) >= 32) is exact32

    def test_the_kernel_params_run_both_loops(self):
        assert {bsvhash._byte_table(hp)[1] for hp in KERNEL_PARAMS} == {False, True}

    @pytest.mark.parametrize("exact32", [False, True])
    @pytest.mark.parametrize("hp", KERNEL_PARAMS, ids=repr)
    def test_either_loop_matches_the_fold_on_any_params(self, hp, exact32, monkeypatch):
        """Both loops are exact mod p for every (u, v, p); the rule only picks the faster."""
        table = bsvhash._byte_table(hp)[0]
        monkeypatch.setattr(bsvhash, "_byte_table", lambda params: (table, exact32))
        for n in range(len(KERNEL_PAYLOAD) + 1):
            ref = HashState(hp)
            fold(ref, bits_from_bytes_msb(KERNEL_PAYLOAD[:n]))
            assert snapshot(HashState(hp).update_bytes(KERNEL_PAYLOAD[:n])) == snapshot(ref)

    @pytest.mark.parametrize("whole", [1, 3, 5])
    def test_bit_lists_with_odd_bytes_and_a_tail_take_the_packer(self, whole, monkeypatch):
        packed = []
        update_digits = HashState._update_digits

        def spy(self, digits):
            packed.append(type(digits))
            return update_digits(self, digits)

        monkeypatch.setattr(HashState, "_update_digits", spy)
        for hp in KERNEL_PARAMS:
            for tail in range(1, 8):
                bits = [(i * 7 + tail) % 5 % 2 for i in range(8 * whole + tail)]
                ref = HashState(hp)
                fold(ref, bits)
                assert hash_string(hp, bits) == ref.digest()
                assert snapshot(HashState(hp).update(tuple(bits))) == snapshot(ref)
        assert packed == [bytearray] * (2 * 7 * len(KERNEL_PARAMS))

    @given(st.sampled_from(KERNEL_PARAMS), st.binary(max_size=40), long_bit_lists)
    @settings(max_examples=100)
    def test_update_bytes_matches_bitwise_update(self, hp, data, prefix):
        ref = HashState(hp)
        fold(ref, prefix + bits_from_bytes_msb(data))
        state = HashState(hp).update(prefix).update_bytes(data)
        assert snapshot(state) == snapshot(ref)


class TestBitDecoders:
    def test_ascii01_skips_whitespace(self):
        assert bits_from_ascii01("0 1\n1\t0 ") == [0, 1, 1, 0]
        assert bits_from_ascii01("") == []

    def test_ascii01_rejects_other_characters(self):
        with pytest.raises(ValueError):
            bits_from_ascii01("0120")

    @pytest.mark.parametrize("text,bad", [
        ("0_1", "_"), ("+01", "+"), ("٠١", "٠"), ("０", "０"), ("1 1x0", "x"),
        ("01\u200b", "\u200b"),
    ])
    def test_ascii01_names_the_first_bad_character(self, text, bad):
        with pytest.raises(ValueError) as exc:
            bits_from_ascii01(text)
        assert str(exc.value) == f"invalid character {bad!r}; expected '0', '1', or whitespace"

    @given(st.text(alphabet="01 \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000", max_size=60))
    def test_ascii01_drops_exactly_the_isspace_characters(self, text):
        assert bits_from_ascii01(text) == [int(ch) for ch in text if not ch.isspace()]

    @given(st.binary(max_size=64))
    def test_bytes_msb_matches_shifts(self, data):
        assert bits_from_bytes_msb(data) == [
            byte >> k & 1 for byte in data for k in range(7, -1, -1)]

    @pytest.mark.parametrize("raw", [
        b"", bytes(range(256)), b"\x00\x00\x00\x01", b"\x00" * 9, b"\x00\xff\x00",
    ], ids=["empty", "every-byte", "leading-zeros", "all-zeros", "inner-zeros"])
    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview, lambda raw: iter(list(raw))],
                             ids=["bytes", "bytearray", "memoryview", "iterator"])
    def test_bytes_msb_matches_the_byte_table(self, raw, wrap):
        assert bits_from_bytes_msb(wrap(raw)) == bits_by_table(raw)

    @pytest.mark.parametrize("data", [[-1], [256], [-256], [0, 1, 300], (2**70,)])
    def test_values_outside_a_byte_are_refused(self, data):
        hp = HashParams(2, 3, 101)
        state = HashState(hp)
        for call in (bits_from_bytes_msb, state.update_bytes):
            with pytest.raises(ValueError, match=re.escape("bytes must be in range(0, 256)")):
                call(data)
        assert snapshot(state) == snapshot(HashState(hp))

    def test_an_int_is_not_a_length(self):
        for call in (bits_from_bytes_msb, HashState(HP235).update_bytes):
            with pytest.raises(TypeError, match="expected bytes or an iterable of ints, got 5"):
                call(5)

    def test_update_bytes_takes_any_byte_source(self):
        expected = snapshot(HashState(HP235).update_bytes(b"\x00\x93\xff"))
        for data in (bytearray(b"\x00\x93\xff"), memoryview(b"\x00\x93\xff"),
                     [0, 0x93, 0xff], iter([0, 0x93, 0xff])):
            assert snapshot(HashState(HP235).update_bytes(data)) == expected

    def test_bytes_msb_first(self):
        assert bits_from_bytes_msb(b"\xa5") == [1, 0, 1, 0, 0, 1, 0, 1]
        assert bits_from_bytes_msb(b"\x80\x01") == [1, 0, 0, 0, 0, 0, 0, 0,
                                                    0, 0, 0, 0, 0, 0, 0, 1]
        assert bits_from_bytes_msb(b"") == []


class TestSerialization:
    def test_one_byte_fields(self):
        assert serialize(Digest(0, 1, 4, 3), HP235) == b"\x00\x01\x04\x03"
        assert digest_hex(Digest(0, 1, 4, 3), HP235) == "00010403"

    def test_two_byte_fields(self):
        hp = HashParams(1, 1, 257)
        assert serialize(Digest(1, 0, 0, 1), hp) == bytes.fromhex("0001000000000001")

    def test_worked_example_hex(self):
        hp = HashParams(2, 3, 101)
        assert digest_hex(hash_string(hp, "01100"), hp) == "1906360d"

    def test_parse_validates_length_and_range(self):
        with pytest.raises(ValueError, match=r"^digest must be 4 bytes for p=5, got 3$"):
            parse(b"\x00\x01\x04", HP235)
        with pytest.raises(ValueError, match=r"^residue 7 out of range for p=5$"):
            parse(b"\x00\x01\x04\x07", HP235)

    @pytest.mark.parametrize("field", [5, 1000, -1, 1.5, True, None, "1"])
    def test_serialize_refuses_fields_that_are_not_residues(self, field):
        for d in (Digest(field, 0, 0, 1), Digest(0, 0, 0, field)):
            with pytest.raises(ValueError) as exc:
                serialize(d, HP235)
            assert str(exc.value) == f"residue {field!r} out of range for p=5"

    @needs_digit_cap
    def test_messages_past_the_digit_cap(self):
        # A 664-digit Mersenne prime, past the smallest cap CPython allows, 640.
        p = 2**2203 - 1
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            hp = HashParams(1, 1, p)
            width = hp.byte_width
            messages = []
            for call in (lambda: parse(b"x", hp), lambda: parse(b"\xff" * 4 * width, hp),
                         lambda: serialize(Digest(p, 0, 0, 1), hp)):
                with pytest.raises(ValueError) as exc:
                    call()
                messages.append(str(exc.value))
        finally:
            sys.set_int_max_str_digits(before)
        assert messages == [
            f"digest must be {4 * width} bytes for p=<2203-bit integer>, got 1",
            "residue <2208-bit integer> out of range for p=<2203-bit integer>",
            "residue <2203-bit integer> out of range for p=<2203-bit integer>",
        ]

    @given(st.lists(st.integers(0, 4), min_size=4, max_size=4))
    def test_round_trip_small_modulus(self, fields):
        d = Digest(*fields)
        assert parse(serialize(d, HP235), HP235) == d

    @given(st.lists(st.integers(0, BIG_PRIME - 1), min_size=4, max_size=4))
    def test_round_trip_large_modulus(self, fields):
        hp = HashParams(2, 3, BIG_PRIME)
        data = serialize(Digest(*fields), hp)
        assert len(data) == 4 * hp.byte_width
        assert parse(data, hp) == Digest(*fields)


class TestBoundN0:
    def test_known_values(self):
        assert bound_n0(HP235) == 1
        assert bound_n0(HashParams(2, 3, 101)) == 4
        assert bound_n0(HashParams(1, 1, 2)) == 1

    def test_agrees_with_collision_horizon(self):
        for u, v, p in [(1, 1, 101), (2, 3, 257), (3, 2, 1009)]:
            assert bound_n0(HashParams(u, v, p)) == \
                collision_horizon(MonoidParams(u, v), p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 101, 257, 1009, BIG_PRIME,
                                   2**127 - 1, 2**521 - 1, PRIME_2048, 2**2203 - 1],
                             ids=lambda p: str(p) if p < 2**32 else f"{p.bit_length()}-bit")
    def test_agrees_with_the_search_on_every_prime_here(self, p):
        for u, v in HORIZON_PAIRS:
            assert bound_n0(HashParams(u, v, p)) == \
                collision_horizon_by_search(MonoidParams(u, v), p), (u, v)


class TestExhaustiveCollisionCheck:
    def test_no_collision_inside_the_guarantee(self):
        assert exhaustive_collision_check(HashParams(2, 3, 101), 4) is None
        assert exhaustive_collision_check(HP235, 1) is None

    def test_first_collision_for_tiny_modulus(self):
        # Shortlex-first pair: the repeated-0 word of length 5 returns to
        # the identity mod 5.
        assert exhaustive_collision_check(HP235, 5) == ("", "00000")

    def test_the_replay_starts_at_the_first_length_that_fails(self, replays):
        # "00000" returns to the identity mod 5, so the set stops growing at
        # length 5: the replay runs there, not after a walk on to max_len.
        assert exhaustive_collision_check(HP235, 10) == ("", "00000")
        assert replays == [5]

    def test_first_collision_mod_two(self):
        assert exhaustive_collision_check(HashParams(1, 1, 2), 2) == ("", "00")

    def test_collision_is_real(self):
        first, second = exhaustive_collision_check(HP235, 5)
        assert first != second
        assert hash_string(HP235, first) == hash_string(HP235, second)

    def test_limit_gate(self, monkeypatch):
        monkeypatch.setenv(ENUM_LIMIT_ENV, "16")
        with pytest.raises(LimitExceeded):
            exhaustive_collision_check(HP235, 10)

    def test_env_var_limit(self, monkeypatch):
        monkeypatch.setenv("MATMONOID_ENUM_LIMIT", "16")
        with pytest.raises(LimitExceeded):
            exhaustive_collision_check(HP235, 10)
        monkeypatch.setenv("MATMONOID_ENUM_LIMIT", "notanumber")
        with pytest.raises(LimitExceeded):
            exhaustive_collision_check(HP235, 1)

    @pytest.mark.parametrize("max_len", [20000, 10**8])
    def test_deep_search_names_the_knob(self, max_len):
        with pytest.raises(LimitExceeded, match=f"2\\^{max_len + 1} - 1 states.*MATMONOID_ENUM_LIMIT"):
            exhaustive_collision_check(HP235, max_len)

    def test_rejects_negative_max_len(self):
        with pytest.raises(InvalidParams):
            exhaustive_collision_check(HP235, -1)

    @pytest.mark.parametrize("u,v,p", SMALL_GRID + HUGE_MULTIPLIERS)
    def test_matches_the_string_keyed_search(self, u, v, p):
        hp = HashParams(u, v, p)
        for max_len in range(11):
            assert exhaustive_collision_check(hp, max_len) == \
                string_keyed_collision_search(hp, max_len)
        if (u, v, p) == (2, 3, 5):
            assert string_keyed_collision_search(hp, 5) == ("", "00000")

    # Each level's fingerprints pass through a function that clashes far more
    # often than the 64-bit fold.
    @pytest.mark.parametrize("fingerprint", [lambda s: 0, lambda s: builtins.hash(s) & 15],
                             ids=["constant", "four-bit"])
    # The wide cases have no collision, lanes of several 64-bit words (so the
    # replay keys on exact lanes wider than a fingerprint), and a clash at
    # every level under the constant fingerprint, each of which must end in None.
    @pytest.mark.parametrize("u,v,p", SMALL_GRID + WIDE_NO_COLLISION,
                             ids=lambda x: str(x) if x < 2**32 else f"{x.bit_length()}-bit")
    def test_fingerprint_clashes_fall_back_to_the_exact_scan(
            self, monkeypatch, replays, fingerprint, u, v, p):
        rewrite_fingerprints(monkeypatch, lambda words, k: array("Q", map(fingerprint, words)))
        hp = HashParams(u, v, p)
        assert exhaustive_collision_check(hp, 4) == string_keyed_collision_search(hp, 4)
        assert replays
        lengths = range(9) if (u, v, p) in WIDE_NO_COLLISION else range(11)
        for max_len in lengths:
            assert exhaustive_collision_check(hp, max_len) == \
                string_keyed_collision_search(hp, max_len)
        if (u, v, p) in WIDE_NO_COLLISION:
            assert string_keyed_collision_search(hp, lengths[-1]) is None

    # At (210, 1, 211) the lane bound has exactly 16 bits, so only the spare
    # top bit widens the lanes to 32. At the large primes the lanes are sized
    # by mu(10), and up to the horizon no lane is ever reduced, so there the
    # residues are the exact products.
    @pytest.mark.parametrize("u,v,p", SMALL_GRID + HUGE_MULTIPLIERS + [(210, 1, 211)] + [
        (u, v, p) for p in (2**127 - 1, 2**521 - 1, PRIME_2048)
        for u, v in HORIZON_PAIRS + [(10**23, 10**23)]
    ], ids=lambda x: str(x) if x < 2**32 else f"{x.bit_length()}-bit")
    def test_lane_walk_visits_the_states_of_levels(self, u, v, p):
        # Lane i of level k holds the residues of the product of the i-th word
        # of length k in shortlex order, L before R.
        params = MonoidParams(u, v)
        for k, (_, lanes) in enumerate(_fingerprinted_levels(HashParams(u, v, p), 10)):
            assert lane_entries(lanes, k) == [
                (m.a % p, m.b % p, m.c % p, m.d % p) for m in level_products(params, k)], k

    @pytest.mark.parametrize("u,v,p", SMALL_GRID)
    def test_a_first_collision_differs_in_its_first_and_last_letters(self, u, v, p):
        # Both shears are invertible mod p, so strings that collide and share
        # their first letter (or their last) leave a shorter colliding pair
        # when it is cancelled, which the shortlex scan would have met first.
        hp = HashParams(u, v, p)
        for max_len in range(11):
            pair = exhaustive_collision_check(hp, max_len)
            if pair is not None and pair[0]:
                first, second = pair
                assert first[0] != second[0], (max_len, pair)
                assert first[-1] != second[-1], (max_len, pair)

    def test_a_last_level_cross_class_collision_is_caught_by_the_final_probe(self, replays):
        # The first collision of (1, 1) mod 107 pairs a string of class 00
        # (first and last letter 0) with one of class 11, at length 13. At
        # max_len 13 no later level repeats it inside class 00: the strings
        # starting with 0 (with the empty string) all have distinct states, so
        # the per-level count cannot trip, and only the final probe of the
        # class-11 words against the class-00 set sees the collision.
        hp = HashParams(1, 1, 107)
        pair = ("0010011011110", "1000010011011")
        assert string_keyed_collision_search(hp, 13) == pair
        assert exhaustive_collision_check(hp, 12) is None
        levels = [list(level) for level in tuple_levels(hp, 13)]
        # In shortlex order the strings starting with 0 fill the first half of a level.
        zeros = levels[0] + [key for level in levels[1:] for key in level[:len(level) // 2]]
        assert len(set(zeros)) == len(zeros) == 1 << 13
        assert exhaustive_collision_check(hp, 13) == pair
        # The only replay, in both searches, is the one the final probe starts.
        assert replays == [13]

    # Each kind of shortlex-first pair the class split meets: class 00 against
    # 11, 01 against 10, and the empty string against a string of class 00, 01
    # or (when v is 0 mod p, as in ("", "1")) 11; ("", "0") has u = 0 mod p.
    # No first pair is "" and a class-10 string: rotating such a string's last
    # letter, a 0, to its front leaves a string of the same length before it
    # that is also the identity mod p.
    @pytest.mark.parametrize("kind,degenerate", [
        (("00", "11"), False), (("01", "10"), False), (("", "00"), False),
        (("", "01"), False), (("", "00"), True), (("", "11"), True),
    ])
    def test_each_class_pairing_is_found(self, replays, kind, degenerate):
        hp, max_len, pair = first_pair_of_kind(kind, degenerate)
        assert (len(pair[1]) == 1) == degenerate
        assert exhaustive_collision_check(hp, max_len) == pair
        # Lanes of one 64-bit word are their own fingerprints, so nothing
        # clashes: the one replay is at the length of the pair.
        assert replays == [max_len]
        for longer in range(max_len + 1, max_len + 4):
            assert exhaustive_collision_check(hp, longer) == \
                string_keyed_collision_search(hp, longer) == pair

    # A clash only inside class 01, whose set is built at max_len, and one of
    # the empty string with a class-10 string, which no real first pair is:
    # each shows only at the end, and the replay there finds no pair.
    @pytest.mark.parametrize("source,target", [("001", "011"), ("", "10")])
    def test_a_planted_clash_ends_in_the_exact_answer(
            self, monkeypatch, replays, source, target):
        plant_fingerprint(monkeypatch, source, target)
        hp = HashParams(1, 1, BIG_PRIME)
        assert exhaustive_collision_check(hp, 6) is None
        assert string_keyed_collision_search(hp, 6) is None
        assert replays == [6]

    @given(st.sampled_from([p for p in range(200) if is_probable_prime(p)]),
           st.integers(1, 49), st.integers(1, 49), st.integers(0, 9))
    def test_matches_the_string_keyed_search_at_random(self, p, u, v, max_len):
        hp = HashParams(u, v, p)
        assert exhaustive_collision_check(hp, max_len) == \
            string_keyed_collision_search(hp, max_len)

    @pytest.mark.parametrize("p", [BIG_PRIME, 2**127 - 1, 2**521 - 1, PRIME_2048],
                             ids=lambda p: f"{p.bit_length()}-bit")
    def test_no_collision_below_the_horizon_at_large_primes(self, p):
        for u, v in HORIZON_PAIRS:
            hp = HashParams(u, v, p)
            assert bound_n0(hp) >= 12
            assert string_keyed_collision_search(hp, 12) is None
            for max_len in range(13):
                assert exhaustive_collision_check(hp, max_len) is None

    def test_fingerprint_pass_peaks_below_the_exact_scan(self):
        hp = HashParams(1, 1, 2**127 - 1)
        found, peak = traced_peak(exhaustive_collision_check, hp, 14)
        reference, scan = traced_peak(index_coded_collision_search, hp, 14)
        assert found is None and reference is None
        # About 35 B per state against 155 for the exact scan (Python 3.11),
        # so 0.4 leaves room for other Python versions.
        assert peak < 0.4 * scan

    def test_a_found_collision_peaks_near_the_first_pass(self):
        # The first collision of (1, 1) mod 521 is at length 14, the last
        # level: the first pass runs to the end, then one replay to 14 holds
        # a second level and the few lanes it compares, not every digest.
        hp = HashParams(1, 1, 521)
        found, peak = traced_peak(exhaustive_collision_check, hp, 14)
        reference, scan = traced_peak(index_coded_collision_search, hp, 14)
        assert found == reference and len(found[1]) == 14
        assert peak < 0.6 * scan


class TestLanesSizedByTheHorizon:
    """The packed walk sizes its lanes by min(mu(k), (1+t)(p-1)), t = max(u, v) mod p,
    and the byte loop by n0 >= 32: neither builds an integer much wider than p."""

    # Where mu(k) and the stepped bound straddle a 16-bit step below the cap, the
    # lanes narrow: 22 of the 1,344 (u, v, k) at each large prime, none at the small.
    @pytest.mark.parametrize("p,narrowings", [(101, 0), (2053, 0), (BIG_PRIME, 22),
                                              (2**127 - 1, 22)],
                             ids=lambda x: str(x) if x < 2**32 else f"{x.bit_length()}-bit")
    def test_lanes_are_as_wide_as_mu_k_or_the_residue_cap(self, p, narrowings):
        narrowed = 0
        for u in range(1, 9):
            for v in range(1, 9):
                hp = HashParams(u, v, p)
                cap = (1 + max(u % p, v % p)) * (p - 1)
                for k in range(21):
                    mu = mu_depth(hp.monoid_params, k)
                    assert mu <= stepped_row_bound(u, v, k)
                    width, stepped = lane_bytes(min(mu, cap)), lane_bytes(
                        min(stepped_row_bound(u, v, k), cap))
                    # The width is fixed for the whole walk; its first levels show it.
                    levels = islice(_fingerprinted_levels(hp, k), 4)
                    assert {len(lanes) >> j for j, (_, lanes) in enumerate(levels)} == {width}
                    assert width <= stepped
                    narrowed += width < stepped
        assert narrowed == narrowings

    @pytest.mark.parametrize("u,v", [(1, 1), (2, 3), (5, 7), (3, 3)])
    def test_no_lane_is_reduced_within_the_horizon(self, monkeypatch, u, v):
        hp = HashParams(u, v, BIG_PRIME)
        n0 = bound_n0(hp)
        reductions = []
        lanes_at_least = bsvhash._lanes_at_least

        def spy(*args):
            reductions.append(args)
            return lanes_at_least(*args)

        monkeypatch.setattr(bsvhash, "_lanes_at_least", spy)
        products = [[(m.a, m.b, m.c, m.d) for m in level_products(hp.monoid_params, j)]
                    for j in range(11)]
        for max_len in (0, 4, 8, 10, n0):
            for j, (_, lanes) in enumerate(islice(_fingerprinted_levels(hp, max_len), 11)):
                assert lane_entries(lanes, j) == products[j], (max_len, j)
        assert not reductions

    # p = 2 with u and v even makes every residue walk the identity's, and the
    # cap (1+t)(p-1) is 1; where p divides u or v, that shear is the identity mod p.
    @pytest.mark.parametrize("u,v,p", [(2, 2, 2), (2, 4, 2), (6, 4, 2), (2, 1, 2),
                                       (7, 3, 7), (3, 14, 7), (7, 7, 7), (101, 2, 101),
                                       (2, 202, 101), (BIG_PRIME, 3, BIG_PRIME)],
                             ids=lambda x: str(x) if x < 2**32 else f"{x.bit_length()}-bit")
    def test_degenerate_moduli_match_the_tuple_walk(self, u, v, p):
        hp = HashParams(u, v, p)
        for max_len in (0, 1, 2, 9):
            pairs = zip(_fingerprinted_levels(hp, max_len), tuple_levels(hp, max_len))
            assert [lane_entries(lanes, j) == list(level)
                    for j, ((_, lanes), level) in enumerate(pairs)] == [True] * (max_len + 1)

    def test_a_huge_u_is_hashed_under_a_low_output_cap(self, monkeypatch):
        # mu(32) of u = 10^10000 + 1 has about 66,441 bytes; the digest has four
        # residues below p, and neither size decision builds mu(32).
        hp = HashParams(10**10000 + 1, 3, 2**127 - 1)
        calls = [lambda: hash_string(hp, "01" * 32),
                 lambda: HashState(hp).update_bytes(b"abcdefgh").digest(),
                 lambda: bsvhash._byte_table(hp),
                 lambda: exhaustive_collision_check(hp, 14)]
        answers = []
        for limit in (None, "65536"):
            if limit is None:
                monkeypatch.delenv(OUTPUT_LIMIT_ENV, raising=False)
            else:
                monkeypatch.setenv(OUTPUT_LIMIT_ENV, limit)
            answers.append([])
            for call in calls:
                bsvhash._byte_table.cache_clear()
                answers[-1].append(call())
        bsvhash._byte_table.cache_clear()
        assert answers[0] == answers[1]
        assert answers[0][2][1] is False and answers[0][3] is None

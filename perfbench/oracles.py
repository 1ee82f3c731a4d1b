"""Independent reference computations for checking benchmark outputs.

Nothing here calls into matmonoid: every expected value is rebuilt from
the definitions (2x2 products of the two shears, the paper's witness
words, the two-periodic recurrence, fixed-width big-endian digests), so
a wrong library answer cannot also be the expected one.
"""
from __future__ import annotations

import json
from itertools import product

# Fixed 61-bit prime for residue checks of results too large to rebuild
# exactly at benchmark speed.
Q61 = 2**61 - 1

IDENT = (1, 0, 0, 1)


def mat_mul(x, y, m=None):
    a, b, c, d = x
    e, f, g, h = y
    r = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    return r if m is None else tuple(t % m for t in r)


def mat_pow(x, n, m=None):
    result = IDENT
    while n:
        if n & 1:
            result = mat_mul(result, x, m)
        x = mat_mul(x, x, m)
        n >>= 1
    return result


def generators(u, v):
    return {"L": (1, 0, u, 1), "R": (1, v, 0, 1)}


def word_product(word, u, v, m=None):
    """Left-to-right product of the letters of word, optionally mod m."""
    gens = generators(u, v)
    acc = IDENT
    for ch in word:
        acc = mat_mul(acc, gens[ch], m)
    return acc


def witness_shape(u, v, n):
    """The paper's maximal word of depth n >= 1 as (head, block, count, tail, position).

    The word is head + block * count + tail, and position (row, col) is
    the entry that holds the depth-n maximum.
    """
    s = min(u, v)
    if n % 2 == 1:
        k = (n - 1) // 2
        return ("", "LR", k, "L", (2, 1)) if u >= v else ("", "RL", k, "R", (1, 2))
    k = (n - 2) // 2
    if s > 1:
        return ("", "RL", k + 1, "", (1, 1))
    if u >= v:
        return ("L", "LR", k, "L", (2, 1))
    return ("R", "RL", k, "R", (1, 2))


def witness_word(u, v, n):
    head, block, count, tail, _ = witness_shape(u, v, n)
    return head + block * count + tail


def entry(mat, position):
    return mat[2 * (position[0] - 1) + position[1] - 1]


def max_entry(u, v, n, m=None):
    """Depth-n maximal entry (mod m if given), via a 2x2 power of the witness block."""
    if n == 0:
        return 1 if m is None else 1 % m
    head, block, count, tail, position = witness_shape(u, v, n)
    mat = word_product(head, u, v, m)
    mat = mat_mul(mat, mat_pow(word_product(block, u, v, m), count, m), m)
    mat = mat_mul(mat, word_product(tail, u, v, m), m)
    return entry(mat, position)


def brute_max_entry(u, v, n):
    """Largest entry over all 2^n depth-n products, by enumeration."""
    gens = generators(u, v)
    best = 1
    for letters in product("LR", repeat=n):
        acc = IDENT
        for ch in letters:
            acc = mat_mul(acc, gens[ch])
        best = max(best, *acc)
    return best


def self_test(pairs, depth=12):
    """Pin max_entry to brute force before trusting it as an oracle."""
    for u, v in pairs:
        for n in range(depth + 1):
            if max_entry(u, v, n) != brute_max_entry(u, v, n):
                raise AssertionError(f"oracle max_entry wrong at u={u} v={v} n={n}")
    if hash_bits("01100", 2, 3, 5) != (0, 1, 4, 3):
        raise AssertionError("oracle hash disagrees with the worked example")


def horizon(u, v, bound):
    """The n0 with max_entry(n0) < bound <= max_entry(n0 + 1), by doubling then bisection."""
    hi = 1
    while max_entry(u, v, hi) < bound:
        hi *= 2
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if max_entry(u, v, mid) < bound:
            lo = mid
        else:
            hi = mid
    return lo


def lucas_residues(P, m, q=Q61):
    """(U_m, V_m) mod q for x^2 - Px + 1, from a power of the companion matrix."""
    _, _, c, d = mat_pow((P, q - 1, 1, 0), m, q)
    return c, (c * P + 2 * d) % q


def fseq_exact(u, v, n):
    """F_n with F_0 = 0, F_1 = 1, F_m = (u if m odd else v) F_{m-1} + F_{m-2}."""
    if n == 0:
        return 0
    # (F_{2j+1}, F_{2j}) = A^j (F_1, F_0) with A the product of the two steps.
    a, _, c, _ = mat_pow(mat_mul((u, 1, 1, 0), (v, 1, 1, 0)), n // 2)
    return a if n % 2 else c


def alpha_gamma_exact(u, v, a, c, n):
    p, q, r, s = mat_pow((1, v, u, 1 + u * v), n)
    return p * a + q * c, r * a + s * c


# ---------------------------------------------------------------------------
# hash: bit 0 right-multiplies L_u, bit 1 right-multiplies R_v, mod p


def _bit_step(state, bit, u, v, p):
    a, b, c, d = state
    if bit:
        return (a, (b + v * a) % p, c, (d + v * c) % p)
    return ((a + u * b) % p, b, (c + u * d) % p, d)


def _byte_table(u, v, p):
    table = []
    for byte in range(256):
        state = (1 % p, 0, 0, 1 % p)
        for k in range(7, -1, -1):
            state = _bit_step(state, byte >> k & 1, u, v, p)
        table.append(state)
    return table


def hash_bytes_msb(data, u, v, p):
    """Digest of the bits of data, most significant bit first.

    The hash is a monoid homomorphism, so the digest is the product of
    per-byte digests; the table entries stay small, which keeps each
    product cheap even for a 2048-bit p.
    """
    table = _byte_table(u, v, p)
    acc = (1 % p, 0, 0, 1 % p)
    for byte in data:
        acc = mat_mul(acc, table[byte], p)
    return acc


def hash_bits(text, u, v, p):
    """Digest of literal '0'/'1' characters, whitespace skipped."""
    bits = "".join(ch for ch in text if ch in "01")
    whole = len(bits) - len(bits) % 8
    acc = hash_bytes_msb(int(bits[:whole] or "0", 2).to_bytes(whole // 8, "big"), u, v, p)
    for ch in bits[whole:]:
        acc = _bit_step(acc, ch == "1", u, v, p)
    return acc


def digest_bytes(residues, p):
    """Fixed-width big-endian encoding, each field wide enough for p - 1."""
    width = ((p - 1).bit_length() + 7) // 8
    return bytes.fromhex("".join(format(x, f"0{2 * width}x") for x in residues))


_REFERENCE_BYTES = bytes(range(128))


def reference_work():
    """A fixed piece of the benchmark's own big-integer and bytecode work.

    It never calls matmonoid, so its duration tracks only the speed of the
    host, which on a shared machine drifts by tens of percent over minutes.
    """
    max_entry(5, 7, 1000)
    hash_bytes_msb(_REFERENCE_BYTES, 2, 3, Q61)


# ---------------------------------------------------------------------------
# CLI text as the README shows it


def matrix_json(mat):
    return json.dumps([[str(mat[0]), str(mat[1])], [str(mat[2]), str(mat[3])]])


def tree_lines(u, v, depth):
    """Rows 0..depth of the product tree; the children of M are L*M and R*M."""
    gens = generators(u, v)
    row = [IDENT]
    lines = []
    for n in range(depth + 1):
        cells = [[[str(m[0]), str(m[1])], [str(m[2]), str(m[3])]] for m in row]
        lines.append(json.dumps({"depth": n, "cells": cells}))
        row = [mat_mul(g, m) for m in row for g in (gens["L"], gens["R"])]
    return "".join(line + "\n" for line in lines)

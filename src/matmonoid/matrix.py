"""Exact 2x2 matrix arithmetic over arbitrary-precision naturals.

The objects of interest are products of the two shear generators

    L_u = [[1, 0], [u, 1]]    and    R_v = [[1, v], [0, 1]]

with u, v >= 1. These generate a free monoid inside SL2(N0), so every
element has a unique factorization into generator letters. Words are
plain ASCII strings over {L, R}; the depth of an element is the length
of its word. Entries grow like (2+uv)^(depth/2), hence exact big
integers throughout.
"""
from __future__ import annotations

from .errors import NotInMonoid, _Record, decimal_str, require_int, require_output_size, show

__all__ = [
    "MonoidParams",
    "Mat2",
    "IDENTITY",
    "lmat",
    "rmat",
    "mul",
    "mu",
    "word_to_matrix",
    "factor",
    "validate_word",
]


class MonoidParams(_Record):
    """Generator parameters (u, v), both at least 1."""

    __slots__ = {"u": "int", "v": "int"}

    def __post_init__(self) -> None:
        require_int("u", self.u, 1)
        require_int("v", self.v, 1)

    @property
    def s(self) -> int:
        """min(u, v)."""
        return min(self.u, self.v)

    @property
    def t(self) -> int:
        """max(u, v)."""
        return max(self.u, self.v)

    def swapped(self) -> "MonoidParams":
        """Parameters of the mirror tree, (v, u)."""
        return MonoidParams(self.v, self.u)


class Mat2(_Record):
    """Immutable 2x2 matrix of nonnegative integers, row-major (a, b, c, d)."""

    __slots__ = {"a": "int", "b": "int", "c": "int", "d": "int"}

    def __post_init__(self) -> None:
        for entry in (self.a, self.b, self.c, self.d):
            if type(entry) is not int:
                raise ValueError("entries must be integers")
            if entry < 0:
                raise ValueError("entries must be nonnegative")

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))

    def __mul__(self, other: "Mat2") -> "Mat2":
        return mul(self, other)

    def to_json(self) -> list[list[str]]:
        """JSON-safe form: exact decimal strings at any size, past the digit cap too."""
        top = [decimal_str(self.a), decimal_str(self.b)]
        return [top, [decimal_str(self.c), decimal_str(self.d)]]

    @classmethod
    def from_json(cls, rows: list[list[str]]) -> "Mat2":
        (a, b), (c, d) = rows
        return cls(int(a), int(b), int(c), int(d))


IDENTITY = Mat2(1, 0, 0, 1)


def lmat(params: MonoidParams) -> Mat2:
    """The lower shear generator [[1,0],[u,1]]."""
    return Mat2(1, 0, params.u, 1)


def rmat(params: MonoidParams) -> Mat2:
    """The upper shear generator [[1,v],[0,1]]."""
    return Mat2(1, params.v, 0, 1)


def mul(m: Mat2, n: Mat2) -> Mat2:
    """Exact matrix product m*n."""
    return Mat2(*_mul((m.a, m.b, m.c, m.d), (n.a, n.b, n.c, n.d)))


def mu(m: Mat2) -> int:
    """Maximum entry of the matrix."""
    return max(m.a, m.b, m.c, m.d)


def validate_word(word: str) -> None:
    """Reject anything that is not a string over the alphabet {L, R}."""
    if not isinstance(word, str):
        raise ValueError("word must be a string over {L, R}")
    if bad := word.lstrip("LR"):
        raise ValueError(f"invalid word letter {bad[0]!r}; expected 'L' or 'R'")


# Matrix entries (a, b, c, d) row-major, and a word as signed run lengths:
# q > 0 stands for L^q and q < 0 for R^-q.
_Quad = tuple[int, int, int, int]
_Runs = list[int]
# The mirror of a word swaps its letters. Antitranspose swaps L_u and R_v, so
# word_to_matrix(w.translate(_MIRROR), (v, u)) = antitranspose(word_to_matrix(w, (u, v))).
_MIRROR = str.maketrans("LR", "RL")
# Words of at most this many letters are multiplied out letter by letter.
_LEAF_LETTERS = 64
# Matrices whose largest entry has at most this many bits are peeled run by
# run, larger ones first guessed from their leading bits; on words of 300 to
# 30,000 letters 768 is fastest, 2,048 up to 15% slower (CPython 3.11 ints).
_LEAF_BITS = 768


def word_to_matrix(word: str, params: MonoidParams) -> Mat2:
    """Left-to-right product of generators in letter order; empty word is I.

    The word is split in halves down to leaves of at most 64 letters; each
    leaf is multiplied out letter by letter and each split costs one 2x2
    product of its halves. The halves have entries of about equal size, so
    the big products use Karatsuba multiplication, and a depth-n word costs
    O(M(n) log n), where M(n) is the cost of multiplying two n-bit
    integers, instead of the O(n^2) of a letter-by-letter product.
    """
    validate_word(word)
    return Mat2(*_product(word, params.u, params.v))


def _product(word: str, u: int, v: int) -> _Quad:
    """Entries (a, b, c, d) of the product of a valid word, by a balanced product tree."""
    if len(word) <= _LEAF_LETTERS:
        a, b, c, d = 1, 0, 0, 1
        # Right-multiplying by a shear touches only two entries per letter.
        for ch in word:
            if ch == "L":
                a += u * b
                c += u * d
            else:
                b += v * a
                d += v * c
        return a, b, c, d
    half = len(word) // 2
    return _mul(_product(word[:half], u, v), _product(word[half:], u, v))


def factor(m: Mat2, params: MonoidParams) -> str:
    """Unique generator word of a monoid element.

    Peels L while the matrix is u-lower-dominant (c >= ua and d >= ub) and
    R while v-upper-dominant (a >= vc and b >= vd), until the identity.
    Freeness makes the peeling order forced: a nonnegative determinant-one
    matrix can satisfy at most one of the two conditions (both would force
    c = a = 0, or a = c and b = d, and so a zero determinant).

    A whole run L^q or R^q is peeled with one division. A matrix with
    entries past 768 bits is peeled in the manner of the half-GCD
    (Schoenhage's continued-fraction algorithm, of which this is the (u, v)
    analogue; at u = v = 1 it is the Calkin-Wilf descent): the top half of
    the entries' bits is peeled recursively to guess the next letters, and
    the guess W is then certified on the full matrix. Certification is
    exact. det W = 1, so W^-1 = [[D, -B], [-C, A]], and if W^-1 * m >= 0
    then every prefix of W leaves a nonnegative remainder too (the rest of
    W is a nonnegative matrix), so each letter of W passes its test on the
    matrix before it; as at most one test can pass, the letter-by-letter
    peel takes exactly the letters of W first. A guess that fails gives
    back whole runs until it certifies; the empty guess always does, and
    then one run is peeled exactly, so every round makes progress. Each
    round costs a few products of the entries, and an element of depth n
    costs O(M(n) log n), where M(n) is the cost of multiplying two n-bit
    integers, instead of the O(n^2) of peeling letter by letter.

    Raises NotInMonoid if m is not reachable from the identity, and
    LimitExceeded if its word is past the output cap of
    errors.require_output_size (the run lengths are summed before the word
    is built).
    """
    u, v = params.u, params.v
    a, b, c, d = m.a, m.b, m.c, m.d
    if a * d - b * c != 1:
        raise NotInMonoid(f"determinant is {show(a * d - b * c)}, not 1")
    runs, _, rest = _peel(a, b, c, d, u, v, 0)
    if rest != (1, 0, 0, 1):
        raise NotInMonoid("no generator divides the matrix; not in the monoid")
    require_output_size(sum(map(abs, runs)), "letters", "the word has")
    return "".join(["L" * q if q > 0 else "R" * -q for q in runs])


def _peel(
    a: int, b: int, c: int, d: int, u: int, v: int, stop: int
) -> tuple[_Runs, _Quad | None, _Quad]:
    """Peel runs off the left of X = [[a, b], [c, d]] >= 0 until its largest
    entry has at most stop bits or no letter's test holds.

    Returns (runs, W, R): the runs as signed run lengths (q for L^q, -q for
    R^q), W = [[A, B], [C, D]] their product, and R = W^-1 X >= 0. For a
    determinant-one X the runs are exactly those of the letter-by-letter
    peel; for any other X (the truncations peeled to make a guess) they
    are only a guess. W is left out (None) when stop is 0: only a guess
    needs it, and factor, which peels to the end, does not.
    """
    track = stop > 0
    runs: _Runs = []
    W = (1, 0, 0, 1)
    n = max(a, b, c, d).bit_length()
    while n > max(stop, _LEAF_BITS):
        # Reduce by r bits at a time, r at most a quarter of n, guessing the
        # letters from the top 2r bits, as a half-GCD step does.
        r = min(n - stop, n // 4)
        k = n - 2 * r
        more, (A, B, C, D), (ta, tb, tc, td) = _peel(a >> k, b >> k, c >> k, d >> k, u, v, r)
        # Certify: R = W^-1 X = 2^k (W^-1 T) + W^-1 low for X = 2^k T + low,
        # and the guess already holds W^-1 T, so only low gets multiplied.
        mask = (1 << k) - 1
        a, b, c, d = a & mask, b & mask, c & mask, d & mask
        a, b, c, d = (
            (ta << k) + D * a - B * c,
            (tb << k) + D * b - B * d,
            (tc << k) + A * c - C * a,
            (td << k) + A * d - C * b,
        )
        while more and min(a, b, c, d) < 0:
            q = more.pop()
            if q > 0:
                c, d, A, C = c + q * u * a, d + q * u * b, A - q * u * B, C - q * u * D
            else:
                a, b, B, D = a - q * v * c, b - q * v * d, B + q * v * A, D + q * v * C
        G = (A, B, C, D)
        if not more:
            more, G, (a, b, c, d) = _peel_runs(a, b, c, d, u, v, n - 1, track)
            if not more:
                break
        runs += more
        if track:
            W = _mul(W, G)
        n = max(a, b, c, d).bit_length()
    more, G, rest = _peel_runs(a, b, c, d, u, v, stop, track)
    runs += more
    return runs, _mul(W, G) if track else None, rest


def _peel_runs(
    a: int, b: int, c: int, d: int, u: int, v: int, stop: int, track: bool
) -> tuple[_Runs, _Quad, _Quad]:
    """_peel one run at a time: one letter, then, if the same letter's test
    still holds, the rest of its run by one division. W is built only when
    track is set (it is the identity otherwise)."""
    runs: _Runs = []
    A, B, C, D = 1, 0, 0, 1
    limit = 1 << stop
    # The hot loop of the whole peel: every letter passes here once.
    while a >= limit or b >= limit or c >= limit or d >= limit:
        ua, ub = u * a, u * b
        if c >= ua and d >= ub and (a or b):
            c -= ua
            d -= ub
            q = 1
            if c >= ua and d >= ub:
                more = _run_length(c, a, d, b, u)
                c -= more * ua
                d -= more * ub
                q += more
            if track:
                A += q * u * B
                C += q * u * D
            runs.append(q)
            continue
        vc, vd = v * c, v * d
        if a >= vc and b >= vd and (c or d):
            a -= vc
            b -= vd
            q = 1
            if a >= vc and b >= vd:
                more = _run_length(a, c, b, d, v)
                a -= more * vc
                b -= more * vd
                q += more
            if track:
                B += q * v * A
                D += q * v * C
            runs.append(-q)
            continue
        break
    return runs, (A, B, C, D), (a, b, c, d)


def _run_length(x: int, y: int, z: int, w: int, s: int) -> int:
    """Largest q with x >= q*s*y and z >= q*s*w, for y and w not both 0."""
    if not y:
        return z // (s * w)
    if not w:
        return x // (s * y)
    return min(x // (s * y), z // (s * w))


def _mul(m: _Quad, n: _Quad) -> _Quad:
    a, b, c, d = m
    e, f, g, h = n
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


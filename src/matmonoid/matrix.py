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

from dataclasses import dataclass

from .errors import NotInMonoid, require_int, show

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


@dataclass(frozen=True, slots=True)
class MonoidParams:
    """Generator parameters (u, v), both at least 1."""

    u: int
    v: int

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


@dataclass(frozen=True, slots=True)
class Mat2:
    """Immutable 2x2 matrix of nonnegative integers, row-major (a, b, c, d)."""

    a: int
    b: int
    c: int
    d: int

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
        """JSON-safe form: decimal strings keep arbitrary precision intact."""
        return [[str(self.a), str(self.b)], [str(self.c), str(self.d)]]

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
    return Mat2(
        m.a * n.a + m.b * n.c,
        m.a * n.b + m.b * n.d,
        m.c * n.a + m.d * n.c,
        m.c * n.b + m.d * n.d,
    )


def mu(m: Mat2) -> int:
    """Maximum entry of the matrix."""
    return max(m.a, m.b, m.c, m.d)


def validate_word(word: str) -> None:
    """Reject anything that is not a string over the alphabet {L, R}."""
    if not isinstance(word, str):
        raise ValueError("word must be a string over {L, R}")
    bad = word.lstrip("LR")
    if bad:
        raise ValueError(f"invalid word letter {bad[0]!r}; expected 'L' or 'R'")


def word_to_matrix(word: str, params: MonoidParams) -> Mat2:
    """Left-to-right product of generators in letter order; empty word is I."""
    validate_word(word)
    u, v = params.u, params.v
    a, b, c, d = 1, 0, 0, 1
    # Right-multiplying by a shear touches only two entries per letter.
    for ch in word:
        if ch == "L":
            a += u * b
            c += u * d
        else:
            b += v * a
            d += v * c
    return Mat2(a, b, c, d)


def factor(m: Mat2, params: MonoidParams) -> str:
    """Unique generator word of a monoid element.

    Peels L while the matrix is u-lower-dominant (c >= ua and d >= ub) and
    R while v-upper-dominant (a >= vc and b >= vd), until the identity.
    Freeness makes the peeling order forced: a determinant-one matrix other
    than the identity can satisfy at most one of the two conditions.

    Raises NotInMonoid if m is not reachable from the identity.
    """
    u, v = params.u, params.v
    a, b, c, d = m.a, m.b, m.c, m.d
    if a * d - b * c != 1:
        raise NotInMonoid(f"determinant is {show(a * d - b * c)}, not 1")
    letters: list[str] = []
    while (a, b, c, d) != (1, 0, 0, 1):
        lower = c >= u * a and d >= u * b
        upper = a >= v * c and b >= v * d
        if lower and upper:
            raise NotInMonoid("matrix is both lower- and upper-dominant; not in the free monoid")
        if lower:
            letters.append("L")
            c -= u * a
            d -= u * b
        elif upper:
            letters.append("R")
            a -= v * c
            b -= v * d
        else:
            raise NotInMonoid("no generator divides the matrix; not in the monoid")
    return "".join(letters)

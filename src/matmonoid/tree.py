"""Binary tree of shear products: rows, random access, and symmetries.

Every matrix in the monoid sits in an infinite binary tree rooted at the
identity: the left child of M is L_u*M and the right child is R_v*M, so
row n holds the 2^n products of depth n in left-to-right order. This
module enumerates rows, jumps straight to a cell by index, classifies
vertices by which generator was applied last, and exposes the symbolic
entry polynomials behind the (u,v) <-> (v,u) mirror symmetry.
"""
from __future__ import annotations

from enum import Enum
from itertools import starmap
from typing import Iterable, Iterator

from .errors import (IndexOutOfRange, InvalidParams, _Record, require_enum_size,
                     require_output_size, show)
from .matrix import _MIRROR, IDENTITY, Mat2, MonoidParams, _Quad, word_to_matrix

__all__ = [
    "DEFAULT_ROW_LIMIT",
    "DominanceClass",
    "TreeRow",
    "antitranspose",
    "cell",
    "cell_word",
    "children",
    "classify",
    "entry_polys",
    "mu_row_bruteforce",
    "row",
]

# Enumerating a full row takes 2^n steps; refuse anything past
# this many cells instead of grinding silently. The environment variable
# raises or lowers the ceiling without code changes.
DEFAULT_ROW_LIMIT = 2**20

_BITS_TO_LETTERS = str.maketrans("01", "LR")


class DominanceClass(Enum):
    """Which generator can be peeled off on the left.

    Depth >= 1 monoid elements are always exactly one of the first two;
    the identity is NEITHER (both conditions need a positive entry where
    it has a zero), and BOTH cannot occur at determinant one.
    """

    U_LOWER_DOMINANT = "u-lower-dominant"
    V_UPPER_DOMINANT = "v-upper-dominant"
    BOTH = "both"
    NEITHER = "neither"


class TreeRow(_Record):
    """All 2^depth matrices of one tree row, left to right."""

    __slots__ = {"depth": "int", "cells": "tuple[Mat2, ...]"}

    def __post_init__(self) -> None:
        _require_depth(self.depth)
        got = len(self.cells)
        # Build 2^depth only up to twice the cells given: a huge depth would take its memory.
        want = 1 << self.depth if self.depth <= got.bit_length() else f"2^{self.depth}"
        if got != want:
            raise ValueError(f"row at depth {self.depth} must have {want} cells, got {got}")

    def cell(self, i: int) -> Mat2:
        """1-indexed access, i in {1, ..., 2^depth}."""
        _require_cell(self.depth, i)
        return self.cells[i - 1]

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)


def children(m: Mat2, params: MonoidParams) -> tuple[Mat2, Mat2]:
    """(left child, right child) = (L_u*M, R_v*M)."""
    return tuple(starmap(Mat2, _row_cells(m, params, 1)))


def _require_depth(n: int) -> None:
    if type(n) is not int:
        raise InvalidParams(f"row depth must be an integer, got {n!r}")
    if n < 0:
        raise IndexOutOfRange(f"row depth must be nonnegative, got {show(n)}")


def _require_cell(n: int, i: int) -> None:
    _require_depth(n)
    if type(i) is not int:
        raise InvalidParams(f"cell index must be an integer, got {i!r}")
    if i < 1 or (i - 1).bit_length() > n:
        raise IndexOutOfRange(f"cell index {show(i)} out of range 1..2^{show(n)}")


def require_row(n: int) -> None:
    """Check that row n can be enumerated: a depth whose 2^n cells are within the cap."""
    _require_depth(n)
    require_enum_size(f"row at depth {show(n)} has", n, "cells", DEFAULT_ROW_LIMIT)


def _row_cells(root: Mat2, params: MonoidParams, n: int) -> Iterator[_Quad]:
    """The 2^n depth-n descendants of root as (a, b, c, d), left to right.

    Lazy: each level is a generator over the one above, so O(n) cells are
    held and a consumer may stop early. Callers check n with require_row.
    """
    u, v = params.u, params.v
    cells: Iterator[_Quad] = iter([(root.a, root.b, root.c, root.d)])
    for _ in range(n):
        cells = (m for a, b, c, d in cells
                 for m in ((a, b, u * a + c, u * b + d), (a + v * c, b + v * d, c, d)))
    return cells


def row(root: Mat2, params: MonoidParams, n: int) -> TreeRow:
    """All 2^n depth-n descendants of root, in left-to-right order."""
    require_row(n)
    return TreeRow(n, tuple(starmap(Mat2, _row_cells(root, params, n))))


def mu_row_bruteforce(params: MonoidParams, n: int) -> int:
    """Exact max entry over all 2^n depth-n matrices, by enumeration of two halves.

    The trusted-but-slow reference the closed forms are checked against; it uses
    none of them. The depth-n products are the G*H with G of depth k = n // 2
    and H of depth n - k, so every pair of a row of a G and a column of an H is
    an entry of one, and each entry is such a pair. Entries are nonnegative: a
    row or column that another bounds entrywise never gives the maximum, so
    only the _fronts are paired. About 2^(n/2+1) cells are visited, O(n) held.
    """
    require_row(n)
    k = n // 2
    rows = _front(r for a, b, c, d in _row_cells(IDENTITY, params, k) for r in ((a, b), (c, d)))
    cols = _front(r for a, b, c, d in _row_cells(IDENTITY, params, n - k) for r in ((a, c), (b, d)))
    return max(x * s + y * t for x, y in rows for s, t in cols)


def _front(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The pairs that no other pair bounds entrywise, each once, in one pass
    that holds only the front of the pairs seen so far."""
    front: list[tuple[int, int]] = []
    for x, y in pairs:
        if not any(x <= s and y <= t for s, t in front):
            front = [(s, t) for s, t in front if s > x or t > y] + [(x, y)]
    return front


def cell(n: int, i: int, params: MonoidParams) -> Mat2:
    """The i-th depth-n vertex (1-indexed, left to right), rooted at I2.

    The monoid is free, so the cell is the product of its word: O(n)
    generator steps, without materializing the row.
    """
    return word_to_matrix(cell_word(n, i), params)


def cell_word(n: int, i: int) -> str:
    """The generator word of cell (n, i): cell(n, i) = word_to_matrix(cell_word(n, i)).

    The bits of i-1, high bit first, are the path from the root (0 = left
    child = L). The path applies generators on the left from the root
    outward, so the left-to-right word is the path read leaf-to-root.
    """
    _require_cell(n, i)
    require_output_size(n, "letters", "the word of a cell at depth {} has", n)
    return format(i - 1, f"0{n}b")[::-1].translate(_BITS_TO_LETTERS) if n else ""


def classify(m: Mat2 | _Quad, params: MonoidParams) -> DominanceClass:
    """Classify by the lower/upper dominance conditions; m may be a cell (a, b, c, d)."""
    a, b, c, d = m if type(m) is tuple else (m.a, m.b, m.c, m.d)
    u, v = params.u, params.v
    lower = c >= u * a and d >= u * b
    upper = a >= v * c and b >= v * d
    if lower and upper:
        return DominanceClass.BOTH
    if lower:
        return DominanceClass.U_LOWER_DOMINANT
    if upper:
        return DominanceClass.V_UPPER_DOMINANT
    return DominanceClass.NEITHER


def antitranspose(m: Mat2) -> Mat2:
    """[[a,b],[c,d]] -> [[d,c],[b,a]] (reflect across the antidiagonal).

    Conjugates the two generator families: cell (n, i) of the (u,v) tree
    is the antitranspose of cell (n, 2^n+1-i) of the (v,u) tree.
    """
    return Mat2(m.d, m.c, m.b, m.a)


def entry_polys(word: str) -> tuple[tuple[BiPolyN, BiPolyN], tuple[BiPolyN, BiPolyN]]:
    """Symbolic entries of a word's matrix as polynomials in (X, Y) = (u, v).

    Returns ((f1, f2), (f3, f4)) row-major. Each entry has total degree
    at most the word length; f1 and f4 are sums of balanced monomials
    X^k Y^k, f2 is Y times a balanced part, f3 is X times one.
    """
    from .polydom import BiPolyN, _column_fold, _require_fold
    _require_fold(word, "the entry polynomials of a {}-letter word have about")
    # Entry k of f1, f2, f3, f4 is the coefficient of X^k Y^k, X^k Y^(k+1), X^(k+1) Y^k,
    # X^k Y^k. The right column is the left column of the mirrored word, X and Y swapped.
    (f1, f3), (f4, f2) = _column_fold(word), _column_fold(word.translate(_MIRROR))
    f1, f2, f3, f4 = (BiPolyN({(k + dx, k + dy): c for k, c in enumerate(f)})
                      for f, dx, dy in ((f1, 0, 0), (f2, 0, 1), (f3, 1, 0), (f4, 0, 0)))
    return (f1, f2), (f3, f4)

"""Polynomials over the naturals and the dominance partial order.

This is the machinery behind the v=1 half of the extremal argument: left
column entries of matrices in the (u,1) tree are values of polynomials
with natural coefficients, and the suffix-sum dominance order on those
polynomials transfers to pointwise inequalities at every positive
integer. The four binomial families f/g/h/i below are the left columns
of the two alternating word families that compete for the maximum.
"""
from __future__ import annotations

from itertools import accumulate, zip_longest
from typing import Iterable, Iterator

from .errors import _Record, decimal_str, require_int, require_output_size
from .matrix import validate_word

__all__ = [
    "PolyN",
    "BiPolyN",
    "X",
    "ONE",
    "ZERO",
    "dominates",
    "f_poly",
    "g_poly",
    "h_poly",
    "i_poly",
    "left_column_polys",
    "pascal_merge_check",
]


class PolyN(_Record):
    """Univariate polynomial with natural-number coefficients.

    Coefficients are stored low to high; index i is the coefficient of
    x^i. The zero polynomial stores nothing and has degree -1.
    """

    __slots__ = {"coeffs": "tuple[int, ...]"}

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                raise ValueError("coefficients must be integers")
            if c < 0:
                raise ValueError("coefficients must be nonnegative")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        """[f]_i, zero beyond the stored degree."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "PolyN") -> "PolyN":
        return PolyN(_add(self.coeffs, other.coeffs))

    def __mul__(self, other: "PolyN") -> "PolyN":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci:
                for j, cj in enumerate(other.coeffs):
                    out[i + j] += ci * cj
        return PolyN(out)

    def shift(self, k: int) -> "PolyN":
        """Multiply by x^k."""
        require_int("shift", k, 0)
        if not self.coeffs:
            return self
        require_output_size(8 * k, "bytes", "the shift by x^{} needs about", k)
        return PolyN((0,) * k + self.coeffs)

    def scale(self, c: int) -> "PolyN":
        require_int("scale factor", c, 0)
        return PolyN(c * x for x in self.coeffs)

    def __call__(self, r: int) -> int:
        """Exact evaluation at a nonnegative integer."""
        require_int("evaluation point", r, 0)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * r + c
        return acc

    def suffix_sums(self) -> tuple[int, ...]:
        """(S_0, ..., S_deg) with S_N the sum of coefficients of x^N and above."""
        return tuple(accumulate(reversed(self.coeffs)))[::-1]

    def __repr__(self) -> str:
        body = ", ".join(map(decimal_str, self.coeffs))
        return f"PolyN(({body}{',' if len(self.coeffs) == 1 else ''}))"

    def __str__(self) -> str:
        parts = []
        for i in range(self.degree, -1, -1):
            if c := self.coeffs[i]:
                xi = "" if i == 0 else "x" if i == 1 else f"x^{i}"
                parts.append(xi if c == 1 and i else decimal_str(c) + xi)
        return " + ".join(parts) or "0"


ZERO = PolyN()
ONE = PolyN((1,))
X = PolyN((0, 1))


def dominates(f: PolyN, g: PolyN) -> bool:
    """Suffix-sum order: every tail-coefficient sum of f >= that of g.

    Implies f(r) >= g(r) at every positive integer r; the converse fails
    (x^3+1 beats x^2+x pointwise but not in this order).
    """
    sf = sg = 0
    for n in range(max(len(f.coeffs), len(g.coeffs)) - 1, -1, -1):
        sf += f.coefficient(n)
        sg += g.coefficient(n)
        if sf < sg:
            return False
    return True


def _require_family(n: int, low: int) -> None:
    """Check n >= low and size f/g/h/i_poly(n) before any binomial: n + 1 coefficients
    of at most about 1.4*n bits, as they sum to a Fibonacci number near phi^(2n)."""
    require_int("n", n, low)
    require_output_size((n + 1) * n * 7 // 40, "bytes", "the polynomial at n = {} has about", n)


def _require_fold(word: str, what: str) -> None:
    """Check word and size its fold before any step, as _require_family does: each
    entry has at most n/2 + 1 terms of at most about 0.7*n bits, for n letters."""
    validate_word(word)
    require_output_size((len(word) + 1) * len(word) * 7 // 40, "bytes", what, len(word))


def _row(m: int, k: int) -> PolyN:
    """sum over i <= k of C(m-i, i) x^(k-i), for 0 <= k <= m; each binomial is
    stepped exactly from the one before, and is zero from 2i > m on."""
    cs = [1]
    for i in range(1, k + 1):
        cs.append(cs[-1] * (m - 2 * i + 2) * (m - 2 * i + 1) // (i * (m - i + 1)))
    return PolyN(reversed(cs))


def f_poly(n: int) -> PolyN:
    """Top left-column polynomial of (L R)^n L in the v=1 tree.

    Closed form: sum over i of C(2n-i, i) x^(n-i). Satisfies the
    recurrence f(n+1) = f(n) + g(n) from f(0) = 1.
    """
    _require_family(n, 0)
    return _row(2 * n, n)


def g_poly(n: int) -> PolyN:
    """Bottom left-column polynomial of (L R)^n L in the v=1 tree.

    Closed form: sum over i of C(2n+1-i, i) x^(n+1-i). Satisfies
    g(n+1) = x*f(n+1) + g(n) from g(0) = x.
    """
    _require_family(n, 0)
    return _row(2 * n + 1, n).shift(1)


def h_poly(n: int) -> PolyN:
    """Top left-column polynomial of (R L)^n L in the v=1 tree, n >= 1.

    Closed form: sum over i of (C(2n-i, i) + C(2n-1-i, i)) x^(n-i).
    Satisfies h(n+1) = (1+x)h(n) + i(n) from h(1) = 2x+1.
    """
    _require_family(n, 1)
    return _row(2 * n, n) + _row(2 * n - 1, n)


def i_poly(n: int) -> PolyN:
    """Bottom left-column polynomial of (R L)^n L in the v=1 tree, n >= 1.

    Closed form: sum over i < n of (C(2n-1-i, i) + C(2n-2-i, i)) x^(n-i).
    Satisfies i(n+1) = x*h(n) + i(n) from i(1) = 2x.
    """
    _require_family(n, 1)
    return (_row(2 * n - 1, n - 1) + _row(2 * n - 2, n - 1)).shift(1)


def left_column_polys(word: str) -> tuple[PolyN, PolyN]:
    """Left column of a v=1 tree word as polynomials in the lower parameter.

    R letters instantiate the v=1 upper shear. Returns (top, bottom) with
    top(0) = 1 and bottom(0) = 0; evaluating at u recovers the left column
    of the word's matrix for every u >= 1.
    """
    _require_fold(word, "the left column of a {}-letter word has about")
    p, q = _column_fold(word)
    return PolyN(p), PolyN([0, *q])


def _column_fold(word: str) -> tuple[list[int], list[int]]:
    """Left column of a valid word: a = sum p[k] (uv)^k and c = u * sum q[k] (uv)^k."""
    p, q = [1], []
    for ch in reversed(word):
        if ch == "L":
            q = _add(p, q)
        else:
            p = _add(p, [0, *q])
    return p, q


def _add(a: list[int], b: list[int]) -> list[int]:
    """The coefficient lists a and b added term by term."""
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def pascal_merge_check(a: int, b: int) -> bool:
    """Check the binomial merge identity behind the closed-form proofs.

    Verifies, as an exact polynomial identity,

        sum_{i<a} C(b-i, i) x^(a-i) + sum_{i<=a} C(b+1-i, i) x^(a+1-i)
            = sum_{i<=a} C(b+2-i, i) x^(a+1-i).

    Requires a >= 1 and b >= 2a-2 so every binomial is conventional. Both
    sides share the factor x, which the check drops.
    """
    require_int("a", a, 1)
    require_int("b", b, 2 * a - 2)
    return _row(b, a - 1) + _row(b + 1, a) == _row(b + 2, a)


class BiPolyN(_Record):
    """Bivariate polynomial in (X, Y) with natural coefficients.

    Stored as a map from exponent pairs (i, j) to nonzero coefficients.
    Only the small amount of arithmetic needed for symbolic tree entries
    is provided.
    """

    __slots__ = {"coeffs": "dict[tuple[int, int], int]"}

    def __init__(self, coeffs: dict[tuple[int, int], int] | None = None) -> None:
        clean: dict[tuple[int, int], int] = {}
        for (i, j), c in (coeffs or {}).items():
            if type(c) is not int or c < 0:
                raise ValueError("coefficients must be nonnegative integers")
            require_int("exponent", i, 0)
            require_int("exponent", j, 0)
            if c:
                clean[(i, j)] = c
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def constant(cls, c: int) -> "BiPolyN":
        return cls({(0, 0): c})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    __hash__ = None  # mutable-dict backing; equality only

    def __add__(self, other: "BiPolyN") -> "BiPolyN":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return BiPolyN(out)

    def shift(self, dx: int, dy: int) -> "BiPolyN":
        """Multiply by X^dx Y^dy."""
        require_int("shift", dx, 0)
        require_int("shift", dy, 0)
        return BiPolyN({(i + dx, j + dy): c for (i, j), c in self.coeffs.items()})

    def swap_vars(self) -> "BiPolyN":
        """Substitute (Y, X) for (X, Y)."""
        return BiPolyN({(j, i): c for (i, j), c in self.coeffs.items()})

    def __call__(self, x: int, y: int) -> int:
        require_int("evaluation point", x, 0)
        require_int("evaluation point", y, 0)
        # At most about mi*log2(x) + mj*log2(y) bits, for the largest exponents mi and mj.
        mi, mj = map(max, zip(*self.coeffs)) if self.coeffs else (0, 0)
        size = mi * max(x - 1, 0).bit_length() + mj * max(y - 1, 0).bit_length() >> 3
        require_output_size(size, "bytes", "the value at ({}, {}) has about", x, y)
        return sum(c * x**i * y**j for (i, j), c in self.coeffs.items())

    @property
    def total_degree(self) -> int:
        """Max of i+j over monomials; -1 for the zero polynomial."""
        return max((i + j for (i, j) in self.coeffs), default=-1)

    def terms(self) -> Iterator[tuple[tuple[int, int], int]]:
        return iter(sorted(self.coeffs.items()))

    def __repr__(self) -> str:
        body = ", ".join(
            f"({decimal_str(i)}, {decimal_str(j)}): {decimal_str(c)}" for (i, j), c in self.terms()
        )
        return f"BiPolyN({{{body}}})"

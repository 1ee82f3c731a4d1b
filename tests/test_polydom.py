"""Natural-coefficient polynomials, the dominance order, and the four
binomial families tied to left columns of alternating shear words."""
import os
import resource
import subprocess
import sys
from itertools import product
from math import comb
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

import matmonoid
from matmonoid import (
    ONE,
    X,
    ZERO,
    BiPolyN,
    InvalidParams,
    LimitExceeded,
    MonoidParams,
    PolyN,
    dominates,
    entry_polys,
    f_poly,
    g_poly,
    h_poly,
    i_poly,
    left_column_polys,
    pascal_merge_check,
    word_to_matrix,
)
from matmonoid import polydom
from matmonoid.errors import OUTPUT_LIMIT_ENV

polys = st.lists(st.integers(0, 9), max_size=9).map(PolyN)

HUGE = 10**5000  # past CPython's 4300-digit int-to-str limit

needs_digit_cap = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int digit cap in this Python")


@st.composite
def dominating_pairs(draw):
    """(f, g) with f built as a shifted copy of g plus extra mass."""
    g = draw(polys)
    f = g.shift(draw(st.integers(0, 2))) + draw(polys)
    return f, g


def families_by_recurrence(n_max):
    """The four families rebuilt step by step, independent of closed forms."""
    fs, gs = [ONE], [X]
    for _ in range(n_max):
        f = fs[-1] + gs[-1]
        fs.append(f)
        gs.append(f.shift(1) + gs[-1])
    hs, is_ = [None, PolyN((1, 2))], [None, PolyN((0, 2))]
    for n in range(1, n_max):
        hs.append(hs[n] + hs[n].shift(1) + is_[n])
        is_.append(hs[n].shift(1) + is_[n])
    return fs, gs, hs, is_


def left_column_by_shift_and_add(word):
    """Reference: the fold on PolyN.shift and + that left_column_polys
    replaced with coefficient lists."""
    f, g = ONE, ZERO
    for ch in reversed(word):
        if ch == "L":
            g = f.shift(1) + g
        else:
            f = f + g
    return f, g


def entry_left_column_at_y_one(word):
    """(f1, f3) of entry_polys(word) with Y = 1, as polynomials in X."""
    (f1, _), (f3, _) = entry_polys(word)
    out = []
    for f in (f1, f3):
        cs = [0] * (max((i for i, _ in f.coeffs), default=-1) + 1)
        for (i, _), c in f.coeffs.items():
            cs[i] += c
        out.append(PolyN(cs))
    return tuple(out)


def binom(n, k):
    """C(n, k) with the zero convention outside 0 <= k <= n."""
    return comb(n, k) if 0 <= k <= n else 0


def from_terms(terms):
    """The sum of c x^p over the (p, c) pairs, one binomial per term."""
    pairs = [(p, c) for p, c in terms if c]
    out = [0] * (max(p for p, _ in pairs) + 1)
    for p, c in pairs:
        out[p] += c
    return PolyN(out)


def families_by_binomials(n):
    """f, g, h, i at n (h and i None at n = 0) from their closed forms, term by term."""
    f = from_terms((n - i, binom(2 * n - i, i)) for i in range(n + 1))
    g = from_terms((n + 1 - i, binom(2 * n + 1 - i, i)) for i in range(n + 1))
    if n == 0:
        return f, g, None, None
    h = from_terms((n - i, binom(2 * n - i, i) + binom(2 * n - 1 - i, i)) for i in range(n + 1))
    i_ = from_terms((n - i, binom(2 * n - 1 - i, i) + binom(2 * n - 2 - i, i)) for i in range(n))
    return f, g, h, i_


def assert_renders_past_the_cap(render, reference):
    """render() equals the reference built with the digit cap lifted, and
    leaves the caller's cap as it was."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = reference()
    finally:
        sys.set_int_max_str_digits(cap)
    assert render() == expected
    assert sys.get_int_max_str_digits() == cap


class TestPolyN:
    def test_trailing_zeros_are_stripped(self):
        assert PolyN((1, 2, 0, 0)).coeffs == (1, 2)
        assert PolyN((0, 0)).coeffs == ()
        assert PolyN() == ZERO

    def test_degree(self):
        assert ZERO.degree == -1
        assert ONE.degree == 0
        assert PolyN((0, 0, 3)).degree == 2

    def test_coefficient_reads_past_degree(self):
        f = PolyN((1, 2))
        assert (f.coefficient(0), f.coefficient(1), f.coefficient(5)) == (1, 2, 0)

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            PolyN((1, -1))

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(ValueError):
            PolyN((1.5,))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            X.coeffs = (0,)

    def test_add_and_mul(self):
        assert PolyN((1, 1)) + PolyN((0, 1, 2)) == PolyN((1, 2, 2))
        assert PolyN((1, 1)) * PolyN((1, 1)) == PolyN((1, 2, 1))
        assert ZERO * PolyN((5, 7)) == ZERO

    def test_shift_and_scale(self):
        assert PolyN((1, 2)).shift(2) == PolyN((0, 0, 1, 2))
        assert ZERO.shift(3) == ZERO
        assert PolyN((1, 2)).scale(3) == PolyN((3, 6))
        with pytest.raises(ValueError):
            X.shift(-1)
        with pytest.raises(ValueError):
            X.scale(-1)

    def test_evaluation(self):
        f = PolyN((1, 0, 0, 1))  # x^3 + 1
        assert f(0) == 1
        assert f(2) == 9
        assert ZERO(7) == 0
        with pytest.raises(ValueError):
            f(-1)
        for r in ("a", 1.5, None, True, -1):
            with pytest.raises(InvalidParams, match="evaluation point"):
                f(r)

    def test_suffix_sums(self):
        assert PolyN((1, 2, 1)).suffix_sums() == (4, 3, 1)
        assert ZERO.suffix_sums() == ()

    def test_str(self):
        assert str(ZERO) == "0"
        assert str(PolyN((1, 0, 2))) == "2x^2 + 1"

    @given(polys)
    def test_repr_is_the_tuple_form(self, f):
        assert repr(f) == f"PolyN({f.coeffs!r})"

    @needs_digit_cap
    @pytest.mark.parametrize("render,reference", [
        pytest.param(str, lambda: f"x + {HUGE}", id="PolyN-str"),
        pytest.param(repr, lambda: f"PolyN({(HUGE, 1)!r})", id="PolyN-repr"),
    ])
    def test_text_past_the_digit_cap(self, render, reference):
        assert_renders_past_the_cap(lambda: render(PolyN((HUGE, 1))), reference)

    @given(polys, polys)
    def test_add_commutes(self, f, g):
        assert f + g == g + f

    @given(polys, polys, st.integers(1, 6))
    def test_mul_matches_evaluation(self, f, g, r):
        assert (f * g)(r) == f(r) * g(r)


class TestDominates:
    def test_known_comparable_pair(self):
        assert dominates(PolyN((1, 2, 1)), PolyN((1, 0, 1)))
        assert not dominates(PolyN((1, 0, 1)), PolyN((1, 2, 1)))

    def test_pointwise_greater_does_not_imply_dominance(self):
        # x^3 + 1 beats x^2 + x at every positive integer, yet fails the
        # suffix-sum comparison at the x^1 tail; the pair is incomparable.
        f, g = PolyN((1, 0, 0, 1)), PolyN((0, 1, 1))
        assert all(f(r) >= g(r) for r in range(1, 11))
        assert not dominates(f, g)
        assert not dominates(g, f)

    def test_zero_is_bottom(self):
        assert dominates(PolyN((0, 1)), ZERO)
        assert not dominates(ZERO, ONE)


class TestDominanceLaws:
    @given(polys)
    def test_reflexivity(self, f):
        assert dominates(f, f)

    @given(polys, polys)
    def test_antisymmetry(self, f, g):
        if dominates(f, g) and dominates(g, f):
            assert f == g

    @given(dominating_pairs(), polys)
    def test_transitivity(self, pair, extra):
        g, h = pair
        f = g.shift(1) + extra
        assert dominates(f, g) and dominates(g, h)
        assert dominates(f, h)

    @given(dominating_pairs())
    def test_degree_is_monotone(self, pair):
        f, g = pair
        assert f.degree >= g.degree

    @given(dominating_pairs(), dominating_pairs())
    def test_additivity(self, pair1, pair2):
        f1, g1 = pair1
        f2, g2 = pair2
        assert dominates(f1 + f2, g1 + g2)

    @given(polys, st.integers(0, 4), st.integers(0, 4))
    def test_shift_monotonicity(self, f, i, j):
        lo, hi = min(i, j), max(i, j)
        assert dominates(f.shift(hi), f.shift(lo))

    @given(polys, polys)
    def test_coefficientwise_implies_dominance(self, g, extra):
        assert dominates(g + extra, g)

    @given(dominating_pairs())
    def test_dominance_implies_pointwise(self, pair):
        f, g = pair
        assert dominates(f, g)
        assert all(f(r) >= g(r) for r in range(1, 11))


class TestFamilies:
    def test_base_values(self):
        assert f_poly(0) == ONE
        assert g_poly(0) == X
        assert f_poly(1) == PolyN((1, 1))
        assert g_poly(1) == PolyN((0, 2, 1))
        assert f_poly(2) == PolyN((1, 3, 1))
        assert h_poly(1) == PolyN((1, 2))
        assert i_poly(1) == PolyN((0, 2))
        assert h_poly(2) == PolyN((1, 5, 2))
        assert i_poly(2) == PolyN((0, 3, 2))

    def test_domain_bounds(self):
        with pytest.raises(ValueError):
            f_poly(-1)
        with pytest.raises(ValueError):
            g_poly(-1)
        with pytest.raises(ValueError):
            h_poly(0)
        with pytest.raises(ValueError):
            i_poly(0)

    # Each answer would take some 1.75e17 bytes; the refusal comes before any binomial.
    @pytest.mark.parametrize("family", [f_poly, g_poly, h_poly, i_poly])
    def test_huge_index_is_refused_at_once(self, monkeypatch, family):
        monkeypatch.setattr(polydom, "_row", lambda m, k: pytest.fail("a binomial was computed"))
        with pytest.raises(LimitExceeded, match=f"^the polynomial at n = {10**9} has about .*"
                           f"raise it with {OUTPUT_LIMIT_ENV}$"):
            family(10**9)

    def test_stepped_rows_match_math_comb_to_300(self):
        for n in range(301):
            f, g, h, i_ = families_by_binomials(n)
            assert (f_poly(n), g_poly(n)) == (f, g), f"f, g at {n}"
            if n:
                assert (h_poly(n), i_poly(n)) == (h, i_), f"h, i at {n}"

    def test_stepped_row_matches_math_comb(self):
        # Every row the families and the merge check build has 0 <= k <= m.
        for m in range(61):
            for k in range(m + 1):
                expected = from_terms((k - i, binom(m - i, i)) for i in range(k + 1))
                assert polydom._row(m, k) == expected, (m, k)

    def test_binomial_forms_match_recurrences_to_20(self):
        fs, gs, hs, is_ = families_by_recurrence(20)
        for n in range(21):
            assert f_poly(n) == fs[n], f"f at {n}"
            assert g_poly(n) == gs[n], f"g at {n}"
        for n in range(1, 21):
            assert h_poly(n) == hs[n], f"h at {n}"
            assert i_poly(n) == is_[n], f"i at {n}"

    @pytest.mark.parametrize("n", range(1, 13))
    def test_family_chain(self, n):
        # i <= h <= g in the dominance order, and h + i <= f + g.
        assert dominates(g_poly(n), h_poly(n))
        assert dominates(h_poly(n), i_poly(n))
        assert dominates(f_poly(n) + g_poly(n), h_poly(n) + i_poly(n))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_family_step_chain(self, n):
        two_x = PolyN((0, 2))
        assert dominates(g_poly(n + 1), two_x * h_poly(n) + i_poly(n))
        assert dominates(h_poly(n + 1), f_poly(n) + g_poly(n) + g_poly(n))
        assert f_poly(n).shift(1) + g_poly(n) == i_poly(n + 1)


class TestLeftColumnPolys:
    def test_base_words(self):
        assert left_column_polys("") == (ONE, ZERO)
        assert left_column_polys("L") == (ONE, X)
        assert left_column_polys("R") == (ONE, ZERO)

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            left_column_polys("LQ")

    def test_huge_word_is_refused_at_once(self, monkeypatch):
        # 10^5 letters would take some 1.75e9 bytes; the refusal comes before any fold step.
        for name in ("shift", "__add__"):
            monkeypatch.setattr(PolyN, name, lambda *a: pytest.fail("the fold ran"))
        monkeypatch.setattr(polydom, "_add", lambda *a: pytest.fail("the fold ran"))
        with pytest.raises(LimitExceeded, match="^the left column of a 100000-letter word has "
                           f"about .*raise it with {OUTPUT_LIMIT_ENV}$"):
            left_column_polys("LR" * 50_000)

    def test_matches_the_shift_and_add_fold(self):
        for n in range(11):
            for word in map("".join, product("LR", repeat=n)):
                assert left_column_polys(word) == left_column_by_shift_and_add(word), word

    @given(st.text(alphabet="LR", min_size=40, max_size=300))
    def test_matches_the_shift_and_add_fold_on_long_words(self, word):
        assert left_column_polys(word) == left_column_by_shift_and_add(word)

    def test_is_the_left_column_of_the_entry_polynomials(self):
        # Both share one column fold; entry_polys keeps Y, which v = 1 sets to 1.
        for n in range(11):
            for word in map("".join, product("LR", repeat=n)):
                assert left_column_polys(word) == entry_left_column_at_y_one(word), word

    @given(st.text(alphabet="LR", min_size=40, max_size=300))
    def test_is_the_left_column_of_the_entry_polynomials_on_long_words(self, word):
        assert left_column_polys(word) == entry_left_column_at_y_one(word)

    @pytest.mark.parametrize("n", range(11))
    def test_alternating_words_hit_the_families(self, n):
        assert left_column_polys("LR" * n + "L") == (f_poly(n), g_poly(n))
        if n >= 1:
            assert left_column_polys("RL" * n + "L") == (h_poly(n), i_poly(n))

    @given(st.text(alphabet="LR", max_size=16), st.integers(1, 5))
    def test_evaluation_matches_word_product(self, word, u):
        top, bottom = left_column_polys(word)
        m = word_to_matrix(word, MonoidParams(u, 1))
        assert (top(u), bottom(u)) == (m.a, m.c)

    @given(st.text(alphabet="LR", max_size=16))
    def test_column_at_zero(self, word):
        top, bottom = left_column_polys(word)
        assert (top(0), bottom(0)) == (1, 0)


class TestPascalMerge:
    @pytest.mark.parametrize("a", range(1, 7))
    def test_identity_sweep(self, a):
        for b in range(2 * a - 2, 2 * a + 7):
            assert pascal_merge_check(a, b)

    def test_identity_against_math_comb_to_40(self):
        # The check drops the factor x both sides share; the sums keep it.
        for a in range(1, 41):
            for b in range(2 * a - 2, 2 * a + 11):
                lhs = from_terms((a - i, binom(b - i, i)) for i in range(a))
                lhs += from_terms((a + 1 - i, binom(b + 1 - i, i)) for i in range(a + 1))
                rhs = from_terms((a + 1 - i, binom(b + 2 - i, i)) for i in range(a + 1))
                assert lhs == rhs == polydom._row(b + 2, a).shift(1), (a, b)
                assert pascal_merge_check(a, b), (a, b)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            pascal_merge_check(0, 5)
        with pytest.raises(ValueError):
            pascal_merge_check(3, 3)


class TestFibonacciPolynomials:
    @staticmethod
    def fibonacci_polys(count):
        """1-indexed list: P_1 = 1, P_2 = x, P_m = x*P_{m-1} + P_{m-2}."""
        ps = [None, ONE, X]
        while len(ps) <= count:
            ps.append(ps[-1].shift(1) + ps[-2])
        return ps

    @staticmethod
    def spread(f):
        """f(x) -> f(x^2) by interleaving zero coefficients."""
        out = []
        for c in f.coeffs:
            out.extend((c, 0))
        return PolyN(out)

    def test_squared_argument_gives_odd_index(self):
        ps = self.fibonacci_polys(14)
        for n in range(7):
            assert self.spread(f_poly(n)) == ps[2 * n + 1]

    def test_index_is_not_shifted_down(self):
        ps = self.fibonacci_polys(3)
        assert self.spread(f_poly(1)) != ps[1]


class TestBiPolyN:
    def test_normalization_and_equality(self):
        assert BiPolyN({(0, 0): 0}) == BiPolyN()
        assert BiPolyN.constant(3) == BiPolyN({(0, 0): 3})
        assert not BiPolyN()
        assert BiPolyN.constant(1)

    def test_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            BiPolyN({(0, 0): -1})
        with pytest.raises(ValueError):
            BiPolyN({(-1, 0): 1})

    def test_add_shift_swap(self):
        f = BiPolyN({(1, 0): 2, (0, 1): 1})
        assert f + BiPolyN({(1, 0): 1}) == BiPolyN({(1, 0): 3, (0, 1): 1})
        assert f.shift(1, 2) == BiPolyN({(2, 2): 2, (1, 3): 1})
        assert f.swap_vars() == BiPolyN({(0, 1): 2, (1, 0): 1})
        with pytest.raises(ValueError):
            f.shift(-1, 0)

    def test_evaluation_and_degree(self):
        f = BiPolyN({(1, 1): 1, (0, 0): 1})  # XY + 1
        assert f(2, 3) == 7
        assert f(0, 0) == 1
        assert f.total_degree == 2
        assert BiPolyN().total_degree == -1
        for x, y in ((1.5, 2), (-1, 2), (2, True), ("a", 2), (2, -1), (2, 0.0), (None, 1)):
            bad = y if type(x) is int and x >= 0 else x
            with pytest.raises(InvalidParams) as exc:
                f(x, y)
            assert str(exc.value) == f"evaluation point must be a nonnegative integer, got {bad!r}"

    def test_huge_value_is_refused_before_evaluation(self):
        # 3^(2^70) has about 1.9e21 bits; unguarded, pow would run until memory ran out.
        script = (
            "from matmonoid import BiPolyN, LimitExceeded\n"
            "try:\n"
            "    BiPolyN({(2**70, 0): 1})(3, 1)\n"
            "except LimitExceeded as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(matmonoid.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        limit = 1_000_000 * 1024
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=20,
            env=dict(os.environ, PYTHONPATH=path),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("the value at (3, 1) has about ")
        assert proc.stdout.endswith(f"raise it with {OUTPUT_LIMIT_ENV}\n")

    def test_evaluation_at_zero_and_one_is_not_sized_by_the_exponent(self):
        f = BiPolyN({(2**70, 0): 2, (0, 2**70): 3, (1, 1): 1})
        assert f(1, 1) == 6
        assert f(0, 1) == 3
        assert f(1, 0) == 2

    def test_repr_is_the_sorted_dict_form(self):
        for f in (BiPolyN(), BiPolyN({(1, 1): 1, (0, 0): 1, (0, 2): 5})):
            assert repr(f) == f"BiPolyN({dict(sorted(f.coeffs.items()))!r})"

    @needs_digit_cap
    def test_repr_past_the_digit_cap(self):
        assert_renders_past_the_cap(
            lambda: repr(BiPolyN({(0, 0): HUGE})), lambda: "BiPolyN(" + repr({(0, 0): HUGE}) + ")")

    def test_terms_are_sorted(self):
        f = BiPolyN({(1, 1): 1, (0, 0): 1, (0, 2): 5})
        assert list(f.terms()) == [((0, 0), 1), ((0, 2), 5), ((1, 1), 1)]

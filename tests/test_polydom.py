"""Natural-coefficient polynomials, the dominance order, and the four
binomial families tied to left columns of alternating shear words."""
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given

from matmonoid import (
    ONE,
    X,
    ZERO,
    BiPolyN,
    InvalidParams,
    MonoidParams,
    PolyN,
    dominates,
    f_poly,
    g_poly,
    h_poly,
    i_poly,
    left_column_polys,
    pascal_merge_check,
    word_to_matrix,
)

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

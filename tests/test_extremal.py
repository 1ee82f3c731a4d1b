"""Exact depth maxima, Lucas-sequence evaluation, witness words, the
left-column dynamical system, and 37-digit radical cross-checks."""
import decimal
import functools
import random
from decimal import Decimal

import hypothesis.strategies as st
import mpmath
import pytest
from hypothesis import given, settings

from matmonoid import (
    InvalidParams,
    MonoidParams,
    WitnessMismatch,
    alpha_gamma,
    closed_form_float,
    closed_form_params,
    collision_horizon,
    extremal,
    fseq,
    lucas,
    mu,
    mu_depth,
    mu_row_bruteforce,
    suites,
    witness,
    word_to_matrix,
)
from test_acceptance import PRIME_2048

P23 = MonoidParams(2, 3)
REL_TOL = Decimal("1e-9")

small_params = st.builds(MonoidParams, st.integers(1, 5), st.integers(1, 5))

FIBONACCI = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987,
             1597, 2584, 4181, 6765, 10946]


def rel_close(approx, exact):
    return abs(approx - exact) / exact < REL_TOL


def alpha_gamma_by_steps(params, a, c, n):
    """The left-column map applied n times: the reference for alpha_gamma."""
    u, v = params.u, params.v
    for _ in range(n):
        a, c = a + v * c, u * a + (1 + u * v) * c
    return a, c


def radical_forms_by_mpmath(u, v, n, starts):
    """The depth-(2n+1) and depth-(2n+2) radical forms and, per start column,
    (alpha_n, gamma_n), all at 120 bits in mpmath: the reference for the
    library's decimal evaluation.

    The depth forms are the paper's q+- formulas with the powers of 2 divided
    out last; the orbit comes from the eigenvectors (v, lambda - 1) of
    [[1, v], [u, 1+uv]], a different route from the library's c1, c2.
    """
    s, t = min(u, v), max(u, v)
    with mpmath.workprec(120):
        root = mpmath.sqrt(s * t * (4 + s * t))
        root_t, edge = mpmath.sqrt(t), mpmath.sqrt(s * (4 + s * t))
        q_plus, q_minus = 2 + s * t + root, 2 + s * t - root
        p_plus, p_minus = s * root_t + edge, -s * root_t + edge
        up, down = q_plus ** (n + 1), q_minus ** (n + 1)
        odd = root_t * (up - down) / (2 ** (n + 1) * edge)
        if s > 1:
            even = (p_plus * up + p_minus * down) / (2 ** (n + 2) * edge)
        else:
            even = root_t * (
                (root_t * p_minus + 2) * up + (root_t * p_plus - 2) * down
            ) / (2 ** (n + 2) * mpmath.sqrt(4 + s * t))
        lam1 = (2 + u * v + mpmath.sqrt(u * v * (4 + u * v))) / 2
        lam2 = 1 / lam1
        orbits = []
        for a, c in starts:
            k1 = (c - mpmath.mpf(a) / v * (lam2 - 1)) / (lam1 - lam2)
            k2 = mpmath.mpf(a) / v - k1
            alpha = v * (k1 * lam1**n + k2 * lam2**n)
            gamma = k1 * (lam1 - 1) * lam1**n + k2 * (lam2 - 1) * lam2**n
            orbits.append((alpha, gamma))
        return odd, even, orbits


def witness_by_five_branches(params, n):
    """Reference: witness's word and position with each orientation spelled out."""
    u, v = params.u, params.v
    k = (n - 1) // 2
    if n % 2 == 1:
        if u >= v:
            return "LR" * k + "L", (2, 1)
        return "RL" * k + "R", (1, 2)
    if params.s > 1:
        return "RL" * (k + 1), (1, 1)
    if u >= v:
        return "L" + "LR" * k + "L", (2, 1)
    return "R" + "RL" * k + "R", (1, 2)


def fseq_by_steps(params, n):
    """F_n by its two-periodic recurrence: the reference for fseq."""
    if n == 0:
        return 0
    prev, cur = 0, 1
    for m in range(2, n + 1):
        prev, cur = cur, (params.u if m % 2 else params.v) * cur + prev
    return cur


def mu_depth_by_two_products(params, n):
    """The depth maximum from lucas at the full index, whose last doubling
    pays for U*V and V^2: the reference for mu_depth."""
    if n == 0:
        return 1
    s, t = params.s, params.t
    P = 2 + s * t
    if n % 2 == 1:
        return t * lucas(P, (n + 1) // 2).U
    pair = lucas(P, n // 2)
    if s > 1:
        return (s * t * pair.U + pair.V) // 2
    return t * (((2 - t) * pair.U + pair.V) // 2)


def fseq_by_two_products(params, n):
    """F_n from lucas at the full index: the reference for fseq."""
    u, v = params.u, params.v
    pair = lucas(2 + u * v, (n + 1) // 2)
    return v * pair.U if n % 2 == 0 else (pair.V - u * v * pair.U) // 2


def combo_by_two_products(P, m, alpha, beta):
    """alpha*U_{m+1} + beta*U_m from lucas at m: the reference for _combo."""
    pair = lucas(P, m)
    return alpha * ((P * pair.U + pair.V) // 2) + beta * pair.U


def ladder_by_products(P, m):
    """(U_m, V_m) by the doubling U_{2k} = U_k*V_k, V_{2k} = V_k^2 - 2 and the
    step-up ((P*U + V)/2, ((P^2-4)*U + P*V)/2), each a plain product: the
    reference for _ladder, whose doubling takes two squares through the
    transform kernel."""
    U, V = 0, 2
    D = P * P - 4
    for k in range(m.bit_length() - 1, -1, -1):
        U, V = U * V, V * V - 2
        if m >> k & 1:
            U, V = (P * U + V) >> 1, (D * U + P * V) >> 1
    return U, V


def kernel_layout_sizes():
    """Bit lengths just below, at and above each edge of the transform kernel's
    layout: where N = 2^k doubles (b = 2^(2k-1)) up to N = 2^9, and for
    N up to 2^7 also every b where the piece width M, a multiple of 8,
    steps up (b a multiple of 8*N/2)."""
    sizes = set()
    for k in range(1, 10):
        start, step = 1 << (2 * k - 1), 1 << (k + 2)
        edges = range(start, 4 * start if k <= 7 else start + 1, step)
        sizes.update(b + d for b in edges for d in (-1, 0, 1))
    return sorted(sizes)


def collision_horizon_by_search(params, bound):
    """Exponential then binary search on the depth maxima, about 2*log2(n)
    ladders: the reference for collision_horizon."""
    lo, hi = 0, 1
    while _searched_maximum(params, hi) < bound:
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _searched_maximum(params, mid) < bound:
            lo = mid
        else:
            hi = mid
    return lo


# The searches of nearby bounds probe the same depths; the cache only saves
# recomputing them.
_searched_maximum = functools.lru_cache(maxsize=4096)(mu_depth_by_two_products)


# Every (u, v) in [1..6]^2: both orientations of each pair, and s = 1.
GRID = [MonoidParams(u, v) for u in range(1, 7) for v in range(1, 7)]


def around_powers_of_two(ks):
    """2^k - 1, 2^k and 2^k + 1: ladder indices of all ones, one bit, two bits."""
    return sorted({2**k + d for k in ks for d in (-1, 0, 1)})


# Each n in 0..3000 (every bit pattern of the ladder's index up to 10 bits),
# then around the powers of two up to 2^14 on the whole grid; 2^15..2^20
# cost up to seconds per pair, so they run on fewer parameters.
GRID_DEPTHS = sorted({*range(3001), *around_powers_of_two(range(1, 15))})
DEEP_DEPTHS = around_powers_of_two(range(15, 21))

# Odd moduli for the ladder reduced mod n: tiny, composite, and multi-word
# primes up to the primality gate's 2048-bit size.
LADDER_MODULI = (3, 5, 7, 9, 15, 101, 2**61 - 1, 2**127 - 1, 2**521 - 1, PRIME_2048)


class TestLucas:
    def test_base_cases(self):
        assert (lucas(8, 0).U, lucas(8, 0).V) == (0, 2)
        assert (lucas(8, 1).U, lucas(8, 1).V) == (1, 8)

    def test_one_step(self):
        pair = lucas(8, 2)
        assert (pair.U, pair.V) == (8, 62)
        assert pair.V**2 - 60 * pair.U**2 == 4

    def test_fibonacci_bisection(self):
        # For P=3 the U sequence walks the even-indexed Fibonacci numbers:
        # 0, 1, 3, 8, 21, 55.
        assert lucas(3, 5).U == 55

    @pytest.mark.parametrize("P", range(3, 9))
    def test_matches_plain_recurrence(self, P):
        us, vs = [0, 1], [2, P]
        for _ in range(30):
            us.append(P * us[-1] - us[-2])
            vs.append(P * vs[-1] - vs[-2])
        for m in range(31):
            pair = lucas(P, m)
            assert (pair.P, pair.m) == (P, m)
            assert (pair.U, pair.V) == (us[m], vs[m])

    @given(st.integers(3, 50), st.integers(0, 10**4))
    @settings(deadline=None, max_examples=60)
    def test_pell_identity(self, P, m):
        pair = lucas(P, m)
        assert pair.V**2 - (P * P - 4) * pair.U**2 == 4

    @pytest.mark.parametrize("P,kernel", [*(pytest.param(P, None, id=str(P)) for P in range(3, 13)),
                                          pytest.param(3, "forced_kernel", id="3-forced_kernel")])
    def test_ladder_mod_n_reduces_the_exact_ladder(self, P, kernel, request):
        # 2^15..2^20 cost up to seconds per exact ladder, so they run on one
        # odd and one even P, the two parity cases of the half-sums. Under the
        # forced kernel every exact doubling takes the two squares, whose
        # floor(S/D) holds only over the integers, so the chain mod n must
        # never take them; a short range shows that.
        if kernel:
            request.getfixturevalue(kernel)
        ks = range(1, 16 if kernel else 21 if P in (3, 4) else 15)
        for m in [*range(201), *(2**k + d for k in ks for d in (-1, 1))]:
            U, V = extremal._ladder(P, m)
            for n in LADDER_MODULI:
                assert extremal._ladder(P, m, n) == (U % n, V % n), (P, m, n)

    @pytest.mark.parametrize("P,m", [(2, 1), (1, 0), (3, -1)])
    def test_domain_validation(self, P, m):
        with pytest.raises(InvalidParams):
            lucas(P, m)


class TestAlphaGamma:
    def test_start_column_is_returned_at_zero(self):
        pair = alpha_gamma(P23, 1, 2, 0)
        assert (pair.n, pair.alpha, pair.gamma) == (0, 1, 2)

    def test_one_step(self):
        pair = alpha_gamma(P23, 1, 2, 1)
        assert (pair.alpha, pair.gamma) == (7, 16)

    @pytest.mark.parametrize("u,v", [(1, 1), (2, 3), (3, 1), (4, 2)])
    def test_matches_alternating_word_column(self, u, v):
        # Starting from the left column (1, u) of the lower shear, n steps
        # of the map give the left column of the depth-(2n+1) alternating
        # word ending in L.
        params = MonoidParams(u, v)
        for n in range(9):
            pair = alpha_gamma(params, 1, u, n)
            m = word_to_matrix("LR" * n + "L", params)
            assert (pair.alpha, pair.gamma) == (m.a, m.c)

    @given(small_params, st.integers(0, 20), st.integers(0, 20), st.integers(1, 12))
    def test_gamma_dominates_after_one_step(self, params, a, c, n):
        if a == 0 and c == 0:
            a = 1
        pair = alpha_gamma(params, a, c, n)
        assert pair.gamma >= pair.alpha

    @given(small_params, st.integers(0, 20), st.integers(0, 20), st.integers(0, 12))
    def test_gamma_dominates_for_shear_columns(self, params, a, c, n):
        if a == 0 and c == 0:
            a = 1
        pair = alpha_gamma(params, a, params.u * a + c, n)
        assert pair.gamma >= pair.alpha

    @given(small_params, st.integers(0, 9), st.integers(0, 9), st.integers(1, 10))
    def test_recurrence_steps(self, params, a, c, n):
        if a == 0 and c == 0:
            a = 1
        u, v = params.u, params.v
        prev = alpha_gamma(params, a, c, n - 1)
        cur = alpha_gamma(params, a, c, n)
        assert cur.alpha == prev.alpha + v * prev.gamma
        assert cur.gamma == u * prev.alpha + (1 + u * v) * prev.gamma
        assert cur.gamma == u * cur.alpha + prev.gamma

    @pytest.mark.parametrize("u", range(1, 6))
    def test_ladder_matches_the_plain_steps(self, u):
        for v in range(1, 6):
            params = MonoidParams(u, v)
            for a, c in [(1, u), (1, 0), (0, 1), (3, 7), (5, 2)]:
                for n in [*range(60), 257, 1000]:
                    pair = alpha_gamma(params, a, c, n)
                    assert (pair.n, pair.alpha, pair.gamma) == (
                        n, *alpha_gamma_by_steps(params, a, c, n)), (u, v, a, c, n)

    def test_domain_validation(self):
        with pytest.raises(InvalidParams):
            alpha_gamma(P23, 0, 0, 1)
        with pytest.raises(InvalidParams):
            alpha_gamma(P23, -1, 2, 1)
        with pytest.raises(InvalidParams):
            alpha_gamma(P23, 1, 2, -1)


class TestClosedFormParams:
    @pytest.mark.parametrize("u", [1, 2, 3])
    @pytest.mark.parametrize("v", [1, 2, 3])
    def test_eigen_identities(self, u, v):
        cf = closed_form_params(MonoidParams(u, v), 1, u)
        assert abs(cf.q_plus * cf.q_minus - 4) < Decimal("1e-25")
        assert abs(cf.lambda1 * cf.lambda2 - 1) < Decimal("1e-25")

    @pytest.mark.parametrize("u", [1, 2, 3])
    @pytest.mark.parametrize("v", [1, 2, 3])
    def test_floats_track_the_exact_orbit(self, u, v):
        params = MonoidParams(u, v)
        for start in ((1, u), (2, 5)):
            cf = closed_form_params(params, *start)
            for n in range(11):
                pair = alpha_gamma(params, *start, n)
                assert rel_close(cf.alpha_float(n), pair.alpha)
                assert rel_close(cf.gamma_float(n), pair.gamma)

    def test_domain_validation(self):
        with pytest.raises(InvalidParams):
            closed_form_params(P23, 0, 0)

    @pytest.mark.parametrize("method", ["alpha_float", "gamma_float"])
    @pytest.mark.parametrize("n", [1.5, "3", None, True])
    def test_n_must_be_an_integer(self, method, n):
        evaluate = getattr(closed_form_params(P23, 1, 2), method)
        with pytest.raises(InvalidParams, match=f"n must be an integer, got {n!r}"):
            evaluate(n)

    @pytest.mark.parametrize("method", ["alpha_float", "gamma_float"])
    def test_negative_n_is_valid(self, method):
        # lambda1 * lambda2 = 1, so the orbit runs backwards to n < 0.
        evaluate = getattr(closed_form_params(P23, 1, 2), method)
        assert evaluate(-3).is_finite()


class TestClosedFormFloat:
    def test_known_values(self):
        assert rel_close(closed_form_float(P23, 1, "odd"), 24)
        assert abs(closed_form_float(MonoidParams(1, 1), 0, "odd") - 1) < REL_TOL
        assert rel_close(closed_form_float(MonoidParams(2, 1), 0, "even"), 4)

    @pytest.mark.parametrize("u", [1, 2, 3])
    @pytest.mark.parametrize("v", [1, 2, 3])
    def test_agrees_with_exact_values(self, u, v):
        params = MonoidParams(u, v)
        for n in range(11):
            assert rel_close(closed_form_float(params, n, "odd"),
                             mu_depth(params, 2 * n + 1))
            assert rel_close(closed_form_float(params, n, "even"),
                             mu_depth(params, 2 * n + 2))

    @pytest.mark.parametrize("u", range(1, 7))
    @pytest.mark.parametrize("v", range(1, 7))
    def test_decimal_matches_120_bit_mpmath(self, u, v):
        params = MonoidParams(u, v)
        starts = ((1, u), (2, 5))
        cfs = [closed_form_params(params, *start) for start in starts]
        with mpmath.workprec(120):
            for n in range(60):
                odd, even, orbits = radical_forms_by_mpmath(u, v, n, starts)
                pairs = [(closed_form_float(params, n, "odd"), odd),
                         (closed_form_float(params, n, "even"), even)]
                for cf, (alpha, gamma) in zip(cfs, orbits):
                    pairs += [(cf.alpha_float(n), alpha), (cf.gamma_float(n), gamma)]
                for got, ref in pairs:
                    assert isinstance(got, Decimal)
                    assert abs(mpmath.mpf(str(got)) - ref) / ref < mpmath.mpf("1e-30"), (n, got)

    def test_caller_context_is_untouched(self):
        cf = closed_form_params(P23, 2, 5)

        def values():
            return [closed_form_float(P23, 20, "odd"), closed_form_float(P23, 20, "even"),
                    cf.alpha_float(20), cf.gamma_float(20)]

        expected = values()
        with decimal.localcontext():
            decimal.getcontext().prec = 5
            decimal.getcontext().clear_flags()
            got = values()
            assert decimal.getcontext().prec == 5
            assert not any(decimal.getcontext().flags.values())
        assert [str(x) for x in got] == [str(x) for x in expected]
        assert all(len(x.as_tuple().digits) == 37 for x in got)

    def test_domain_validation(self):
        with pytest.raises(InvalidParams):
            closed_form_float(P23, -1, "odd")
        with pytest.raises(InvalidParams):
            closed_form_float(P23, 1, "both")

    def test_past_the_decimal_range_is_a_typed_error(self):
        # lambda1^n may reach 10^(MAX_EMAX // 2); at u = v = 3 that is
        # n = floor(MAX_EMAX // 2 / log10 lambda1), one less where the
        # power is n + 1. Past it the call names the bound instead of
        # leaking decimal.Overflow.
        params = MonoidParams(3, 3)
        cf = closed_form_params(params, 1, 3)
        largest = 481807830136923196
        cases = [
            (cf.alpha_float, largest),
            (cf.gamma_float, largest),
            (lambda n: closed_form_float(params, n, "odd"), largest - 1),
            (lambda n: closed_form_float(params, n, "even"), largest - 1),
        ]
        for evaluate, bound in cases:
            for n in (10**18, bound + 1):
                with pytest.raises(InvalidParams, match=f"at most {bound} in absolute value"):
                    evaluate(n)
            assert evaluate(bound).is_finite()
        with pytest.raises(InvalidParams, match=f"at most {largest} "):
            cf.gamma_float(-(10**18))


class TestMuDepth:
    def test_known_values(self):
        assert mu_depth(P23, 0) == 1
        assert mu_depth(P23, 1) == 3
        assert mu_depth(P23, 2) == 7
        assert mu_depth(P23, 3) == 24
        assert mu_depth(P23, 4) == 55
        assert mu_depth(P23, 5) == 189
        assert mu_depth(MonoidParams(2, 1), 4) == 14

    def test_fibonacci_degeneration(self):
        params = MonoidParams(1, 1)
        assert [mu_depth(params, n) for n in range(21)] == FIBONACCI

    @pytest.mark.parametrize("u", [1, 2, 3, 4])
    @pytest.mark.parametrize("v", [1, 2, 3, 4])
    def test_matches_bruteforce_to_10(self, u, v):
        params = MonoidParams(u, v)
        for n in range(11):
            assert mu_depth(params, n) == mu_row_bruteforce(params, n)

    @given(small_params, st.integers(0, 200))
    def test_symmetric_in_u_v(self, params, n):
        assert mu_depth(params, n) == mu_depth(params.swapped(), n)

    @pytest.mark.parametrize("uv", [(1, 1), (2, 3), (4, 4)])
    def test_monotone_and_eventually_strict(self, uv):
        params = MonoidParams(*uv)
        values = [mu_depth(params, n) for n in range(41)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(a < b for a, b in zip(values[1:], values[2:]))

    def test_domain_validation(self):
        with pytest.raises(InvalidParams):
            mu_depth(P23, -1)

    @pytest.mark.parametrize("u", range(1, 9))
    def test_one_column_gives_both_parities(self, u):
        # Oriented as (u, v) = (t, s), (alpha_n, gamma_n) is the left column of
        # (LR)^n L from (1, t). Depth 2n+1 reads gamma_n; depth 2n+2 puts R_s
        # (s > 1, entry (1,1)) or L_t (s = 1, entry (2,1)) in front.
        for v in range(1, 9):
            params = MonoidParams(u, v)
            s, t = params.s, params.t
            for n in range(101):
                pair = alpha_gamma(MonoidParams(t, s), 1, t, n)
                even = pair.alpha + s * pair.gamma if s > 1 else t * pair.alpha + pair.gamma
                assert mu_depth(params, 2 * n + 1) == pair.gamma, (u, v, n)
                assert mu_depth(params, 2 * n + 2) == even, (u, v, n)


class TestWitness:
    def test_known_odd_witness(self):
        w = witness(P23, 3)
        assert w.word == "RLR"
        assert w.matrix.rows() == ((7, 24), (2, 7))
        assert (w.position, w.value) == ((1, 2), 24)

    def test_depth_one(self):
        w = witness(P23, 1)
        assert (w.word, w.position, w.value) == ("R", (1, 2), 3)

    def test_known_even_witness_with_unit_parameter(self):
        w = witness(MonoidParams(2, 1), 4)
        assert w.word == "LLRL"
        assert w.matrix.rows() == ((3, 1), (14, 5))
        assert (w.position, w.value) == ((2, 1), 14)

    @pytest.mark.parametrize("u", [1, 2, 3, 4])
    @pytest.mark.parametrize("v", [1, 2, 3, 4])
    def test_consistency_grid(self, u, v):
        params = MonoidParams(u, v)
        for n in range(1, 13):
            w = witness(params, n)
            assert len(w.word) == n
            assert w.matrix == word_to_matrix(w.word, params)
            r, c = w.position
            assert w.matrix.rows()[r - 1][c - 1] == w.value
            assert w.value == mu(w.matrix) == mu_depth(params, n)

    @pytest.mark.parametrize("u", range(2, 9))
    @pytest.mark.parametrize("v", range(2, 9))
    def test_even_depths_peak_at_the_top_left(self, u, v):
        # Cayley-Hamilton puts the maximum of (RL)^j at (1,1) once min(u,v) >= 2.
        params = MonoidParams(u, v)
        for n in range(2, 201, 2):
            w = witness(params, n)
            assert w.word == "RL" * (n // 2)
            assert w.position == (1, 1)
            assert w.value == w.matrix.a == mu_depth(params, n)

    @pytest.mark.parametrize("u", range(1, 7))
    def test_matches_the_five_branch_rule(self, u):
        for v in range(1, 7):
            params = MonoidParams(u, v)
            for n in range(1, 61):
                w = witness(params, n)
                assert (w.word, w.position) == witness_by_five_branches(params, n), (u, v, n)

    @pytest.mark.parametrize("uv", [(2, 3), (3, 2), (1, 5), (5, 1)])
    @pytest.mark.parametrize("n", [401, 30_001])
    def test_matches_the_five_branch_rule_deep(self, uv, n):
        params = MonoidParams(*uv)
        w = witness(params, n)
        assert (w.word, w.position) == witness_by_five_branches(params, n)

    @pytest.mark.parametrize("u", range(1, 9))
    def test_even_words_put_one_letter_before_the_odd_word(self, u):
        for v in range(1, u + 1):
            params = MonoidParams(u, v)
            front = "R" if params.s > 1 else "L"
            for n in range(2, 201, 2):
                assert witness(params, n).word == front + witness(params, n - 1).word, (u, v, n)

    @pytest.mark.parametrize("u", range(1, 9))
    def test_top_left_exactly_when_the_word_starts_with_r(self, u):
        for v in range(1, u + 1):
            params = MonoidParams(u, v)
            for n in range(1, 201):
                w = witness(params, n)
                assert (w.position == (1, 1)) == (w.word[0] == "R"), (u, v, n)

    @pytest.mark.parametrize("u", range(1, 8))
    def test_u_below_v_mirrors_only_the_bottom_left_words(self, u):
        for v in range(u + 1, 9):
            params, oriented = MonoidParams(u, v), MonoidParams(v, u)
            for n in range(1, 201):
                w, ref = witness(params, n), witness(oriented, n)
                if ref.position == (2, 1):
                    want = ref.word.translate(str.maketrans("LR", "RL")), (1, 2)
                else:
                    want = ref.word, ref.position
                assert (w.word, w.position) == want, (u, v, n)

    def test_an_unmirrored_word_is_caught(self, monkeypatch):
        # u < v takes the mirror of the u >= v word; without the swap the integer
        # product of the word at (1,2) misses the depth maximum.
        monkeypatch.setattr(extremal, "_MIRROR", str.maketrans("LR", "LR"))
        with pytest.raises(WitnessMismatch):
            witness(MonoidParams(2, 3), 5)

    def test_domain_validation(self):
        with pytest.raises(InvalidParams):
            witness(P23, 0)


class TestFseq:
    def test_fibonacci_base(self):
        params = MonoidParams(1, 1)
        assert [fseq(params, n) for n in range(9)] == [0, 1, 1, 2, 3, 5, 8, 13, 21]

    def test_two_periodic_values(self):
        assert fseq(P23, 3) == 7
        assert fseq(MonoidParams(2, 2), 4) == 12

    def test_matches_depth_maxima_away_from_unit_parameters(self):
        # Oriented as (min, max), index n+1 matches the depth-n maximum
        # whenever both parameters exceed 1, and in the all-ones case.
        for u, v in [(1, 1), (2, 2), (2, 3), (3, 2), (4, 3), (4, 4)]:
            params = MonoidParams(u, v)
            oriented = MonoidParams(params.s, params.t)
            for n in range(13):
                assert fseq(oriented, n + 1) == mu_depth(params, n), (u, v, n)

    def test_unit_mixed_parameters_diverge(self):
        # With exactly one parameter equal to 1 the sequences separate at
        # the first even depth: the repeated-R word already beats the
        # alternating pattern there.
        params = MonoidParams(1, 2)
        assert fseq(params, 1) == mu_depth(params, 0) == 1
        assert fseq(params, 2) == mu_depth(params, 1) == 2
        assert fseq(params, 3) == 3
        assert mu_depth(params, 2) == 4

    @pytest.mark.parametrize("u", range(1, 6))
    def test_ladder_matches_the_plain_recurrence(self, u):
        for v in range(1, 6):
            params = MonoidParams(u, v)
            for n in [*range(60), 257, 1000, 1001]:
                assert fseq(params, n) == fseq_by_steps(params, n), (u, v, n)

    def test_link_check_catches_a_fault_both_sides_share(self, monkeypatch):
        # At even depths mu_depth and fseq both evaluate _combo(P, j, 1, -1), so a fault
        # there moves both alike; the check's recurrence side still sees it.
        combo = extremal._combo

        def faulty(P, m, alpha, beta):
            return combo(P, m, alpha, beta) + ((alpha, beta) == (1, -1) and m > 0)

        monkeypatch.setattr(extremal, "_combo", faulty)
        r = suites.check_fibonacci_like_link(10)
        assert not r.passed
        # 10 pairs of the grid, even depths 2..22.
        assert len(r.failures) == 110
        assert r.failures[0] == "u=1 v=1 n=2"

    def test_domain_validation(self):
        with pytest.raises(InvalidParams):
            fseq(P23, -1)


class TestTopProduct:
    """_combo's one top product against lucas at the full index, and the
    depth maxima and fseq built on it against their two-product forms."""

    @pytest.mark.parametrize("P", [3, 4, 8, 38])
    def test_combo_matches_two_products(self, P):
        shapes = [(1, 0), (0, 1), (1, -1), (6, 0), (6, -36), (0, 6), (-5, 7)]
        for m in [*range(200), *around_powers_of_two(range(8, 15))]:
            for alpha, beta in shapes:
                assert extremal._combo(P, m, alpha, beta) == \
                    combo_by_two_products(P, m, alpha, beta), (P, m, alpha, beta)

    @pytest.mark.parametrize("u", range(1, 7))
    def test_mu_depth_matches_two_products(self, u):
        for params in GRID[6 * (u - 1):6 * u]:
            for n in GRID_DEPTHS:
                assert mu_depth(params, n) == mu_depth_by_two_products(params, n), (params, n)

    @pytest.mark.parametrize("u", range(1, 7))
    def test_fseq_matches_two_products(self, u):
        for params in GRID[6 * (u - 1):6 * u]:
            for n in GRID_DEPTHS:
                assert fseq(params, n) == fseq_by_two_products(params, n), (params, n)

    def test_deep_depths_at_unit_parameters(self):
        params = MonoidParams(1, 1)
        for n in DEEP_DEPTHS:
            assert mu_depth(params, n) == mu_depth_by_two_products(params, n), n
            assert fseq(params, n) == fseq_by_two_products(params, n), n


@pytest.fixture
def forced_kernel(monkeypatch):
    """Every square and product of the ladder and every top product of
    _combo, of any size, through the transform of extremal._mul."""
    monkeypatch.setattr(extremal, "_KERNEL_BITS", 1)


def signed_pairs(x, y):
    return [(x, y), (-x, y), (x, -y), (-x, -y)]


class TestTransformKernel:
    """extremal._mul against x*y and x*x, and the ladder and top product
    built on it against plain products; the full-size checks reduce mod q,
    where the ladder never reaches the kernel."""

    def test_small_values(self, forced_kernel):
        values = (0, 1, -1, 2, 3, -7, 255, 256, 257, 2**64 + 1)
        for x in values:
            assert extremal._mul(x, x) == x * x, x
            for y in values:
                assert extremal._mul(x, y) == x * y, (x, y)

    def test_every_layout_edge(self, forced_kernel):
        # A square of b bits and a product of b and b + d bits fill b + b + d
        # bits, so the pairs cover each product layout edge from both sides.
        rng = random.Random(1971)
        for b in kernel_layout_sizes():
            top = 1 << b
            for x in (top - 1, top, top + 1, rng.getrandbits(b) | top >> 1,
                      -rng.getrandbits(b)):
                assert extremal._mul(x, x) == x * x, (b, x - top)
            x = rng.getrandbits(b) | top >> 1
            for d in (-1, 0, 1):
                y = (1 << b + d) - 1 - rng.getrandbits(b // 2)
                for x1, y1 in signed_pairs(x, y):
                    assert extremal._mul(x1, y1) == x1 * y1, (b, d)

    def test_lopsided_pairs(self, forced_kernel):
        rng = random.Random(1996)
        for small, large in [(1, 1), (1, 200_000), (7, 40_000), (1000, 150_000),
                             (4095, 4097), (30_000, 250_001)]:
            x, y = rng.getrandbits(small) | 1 << small - 1, rng.getrandbits(large) | 1 << large - 1
            for x1, y1 in [*signed_pairs(x, y), *signed_pairs(y, x)]:
                assert extremal._mul(x1, y1) == x1 * y1, (small, large)
            assert extremal._mul(0, y) == extremal._mul(-y, 0) == 0

    def test_seeded_sizes(self, forced_kernel):
        rng = random.Random(14)
        for _ in range(16):
            x = rng.getrandbits(rng.randrange(1, 200_001))
            y = rng.getrandbits(rng.randrange(1, 200_001))
            assert extremal._mul(x, x) == x * x, x.bit_length()
            assert extremal._mul(x, y) == x * y, (x.bit_length(), y.bit_length())

    def test_both_sides_of_the_threshold(self):
        for b in (extremal._KERNEL_BITS - 1, extremal._KERNEL_BITS):
            for x in ((1 << b) - 1, random.Random(b).getrandbits(b) | 1 << (b - 1)):
                assert extremal._mul(x, x) == x * x, b
                y = -random.Random(-b).getrandbits(2 * b)
                assert extremal._mul(x, y) == extremal._mul(y, x) == x * y, b

    @pytest.mark.parametrize("P", [*range(3, 13), 37])
    def test_ladder_matches_one_product_doublings(self, P, forced_kernel):
        for m in [*range(300), *range(300, 5001, 97), *around_powers_of_two(range(9, 17))]:
            assert extremal._ladder(P, m) == ladder_by_products(P, m), (P, m)

    @pytest.mark.parametrize("P", [3, 8, 37])
    def test_combo_matches_one_top_product(self, P, forced_kernel):
        for m in [*range(0, 300, 7), *around_powers_of_two(range(9, 15))]:
            U, V = ladder_by_products(P, m)
            for alpha, beta in [(1, 0), (1, -1), (6, -36), (0, 6)]:
                expected = alpha * ((P * U + V) >> 1) + beta * U
                assert extremal._combo(P, m, alpha, beta) == expected, (P, m, alpha, beta)

    def test_small_calls_never_reach_the_kernel(self, monkeypatch):
        def refuse(x, y):
            raise AssertionError(f"_mul at {x.bit_length()} x {y.bit_length()} bits")

        monkeypatch.setattr(extremal, "_mul", refuse)
        for params in (MonoidParams(1, 1), MonoidParams(2, 3), MonoidParams(5, 7)):
            for n in (1, 2, 1000, 99_999, 100_000):
                mu_depth(params, n)
                fseq(params, n)

    @pytest.mark.parametrize("P", [3, 8, 37])
    def test_full_size_lucas_against_the_ladder_mod_q(self, P):
        for m in (500_000, 515_021):
            pair = lucas(P, m)
            assert pair.U.bit_length() > 2 * extremal._KERNEL_BITS
            for q in (2**61 - 1, 2**127 - 1):
                assert (pair.U % q, pair.V % q) == extremal._ladder(P, m, q), (P, m, q)

    @pytest.mark.parametrize("u,v", [(1, 1), (2, 3), (5, 7)])
    def test_full_size_mu_depth_against_the_ladder_mod_q(self, u, v):
        params, q = MonoidParams(u, v), 2**127 - 1
        P = 2 + u * v
        for n in (1_000_000, 1_050_001):
            alpha, beta = extremal._parity_coeffs(params.s, params.t, n)
            U, V = extremal._ladder(P, n >> 1, q)
            up = (P * U + V) * pow(2, -1, q)
            assert mu_depth(params, n) % q == (alpha * up + beta * U) % q, (u, v, n)

    @pytest.mark.parametrize("u,v", [(1, 1), (2, 3), (5, 7)])
    def test_full_size_fseq_against_the_ladder_mod_q(self, u, v):
        # F_2k = v*U_k and F_(2k+1) = U_(k+1) - U_k; the three n take both
        # parities of n and of the index k that _combo halves.
        params, q = MonoidParams(u, v), 2**127 - 1
        P = 2 + u * v
        for n in (1_000_000, 1_000_003, 1_050_001):
            U, V = extremal._ladder(P, n >> 1, q)
            up = (P * U + V) * pow(2, -1, q)
            expected = up - U if n % 2 else v * U
            assert fseq(params, n) % q == expected % q, (u, v, n)


class TestCollisionHorizon:
    def test_known_values(self):
        assert collision_horizon(P23, 5) == 1
        assert collision_horizon(P23, 101) == 4
        assert collision_horizon(MonoidParams(1, 1), 2) == 1

    @given(small_params, st.integers(2, 10**9))
    @settings(max_examples=200)
    def test_sandwich(self, params, bound):
        h = collision_horizon(params, bound)
        assert mu_depth(params, h) < bound <= mu_depth(params, h + 1)

    @given(small_params, st.integers(2, 10**6))
    def test_monotone_in_bound(self, params, bound):
        assert collision_horizon(params, bound + 1) >= collision_horizon(params, bound)

    def test_domain_validation(self):
        with pytest.raises(InvalidParams):
            collision_horizon(P23, 1)

    @pytest.mark.parametrize("u", range(1, 7))
    def test_matches_the_search_on_small_bounds(self, u):
        for params in GRID[6 * (u - 1):6 * u]:
            for bound in range(2, 501):
                assert collision_horizon(params, bound) == \
                    collision_horizon_by_search(params, bound), (params, bound)

    @pytest.mark.parametrize("u", range(1, 7))
    def test_matches_the_search_at_the_maxima(self, u):
        # A bound equal to mu(n) or one off it, where the walk's bracket
        # mu(n) < bound <= mu(n+1) is tightest.
        for params in GRID[6 * (u - 1):6 * u]:
            for n in [*range(1, 401), 10**4]:
                top = mu_depth_by_two_products(params, n)
                for bound in (top - 1, top, top + 1):
                    if bound >= 2:
                        assert collision_horizon(params, bound) == \
                            collision_horizon_by_search(params, bound), (params, n, bound)

    def test_matches_the_search_on_seeded_bounds(self):
        rng = random.Random(4096)
        for _ in range(300):
            params = rng.choice(GRID)
            bound = rng.getrandbits(rng.randint(2, 4096)) + 2
            assert collision_horizon(params, bound) == \
                collision_horizon_by_search(params, bound), (params, bound)

    def test_parameters_past_the_float_range(self):
        # P^2 overflows a float here; the seed works from the integers' logs.
        for u, v, bound in [(10**200, 3, 10**1000), (1, 10**400, 10**5000),
                            (10**400, 10**400, 2), (10**400, 10**400, 10**400),
                            (7, 10**20, 10**25), (1, 10**20, 10**10)]:
            params = MonoidParams(u, v)
            assert collision_horizon(params, bound) == \
                collision_horizon_by_search(params, bound), (u, v)


class TestHorizonSeed:
    """The float seed lands within 2 of the answer, so the walk after the
    one ladder takes O(1) linear steps and never turns into a scan."""

    @pytest.mark.parametrize("u", range(1, 7))
    def test_within_two_on_the_grid(self, u):
        for params in GRID[6 * (u - 1):6 * u]:
            bounds = [*range(2, 501)]
            for n in [*range(1, 401), 10**4]:
                top = mu_depth(params, n)
                bounds += [b for b in (top - 1, top, top + 1) if b >= 2]
            for bound in bounds:
                seed = extremal._horizon_seed(params.s, params.t, bound)
                assert abs(seed - collision_horizon(params, bound)) <= 2, (params, bound)

    def test_within_two_up_to_200000_bits(self):
        rng = random.Random(200000)
        for bits in (4096, 20000, 65536, 200000):
            for params in (MonoidParams(1, 1), MonoidParams(1, 6), MonoidParams(2, 3),
                           MonoidParams(6, 6)):
                bound = rng.getrandbits(bits) | 1 << (bits - 1)
                h = collision_horizon(params, bound)
                assert mu_depth(params, h) < bound <= mu_depth(params, h + 1)
                seed = extremal._horizon_seed(params.s, params.t, bound)
                assert abs(seed - h) <= 2, (params, bits)


class TestWitnessMismatchType:
    def test_is_an_error_type(self):
        # The runtime attainment check reports through this type; it must
        # be raisable and distinct from the other domain errors.
        assert issubclass(WitnessMismatch, Exception)
        assert not issubclass(WitnessMismatch, InvalidParams)

    def test_the_self_check_is_live(self, monkeypatch):
        # witness compares its matrix with mu_depth; a wrong maximum must raise.
        true_maximum = extremal.mu_depth
        monkeypatch.setattr(extremal, "mu_depth", lambda params, n: true_maximum(params, n) + 1)
        for n in (301, 20001):  # 20001: every value is past the 4300-digit cap
            with pytest.raises(WitnessMismatch):
                witness(P23, n)

"""Exact maximal entries by depth, witness words, and closed forms.

The maximal entry over all depth-n products of the two shears is an
integer sequence with a three-term linear recurrence behind it. This
module evaluates it exactly through Lucas sequences for x^2 - Px + 1
with P = 2+uv (O(log n) big-integer steps), builds explicit witness
words attaining the maximum, runs the left-column dynamical system, and
cross-checks everything against the radical closed forms in 37-digit
(>= 120-bit) decimal arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, Context, Decimal, localcontext

from .errors import InvalidParams, WitnessMismatch, require_int, show
from .matrix import Mat2, MonoidParams, mu, word_to_matrix

__all__ = [
    "AlphaGammaPair",
    "ClosedFormParams",
    "LucasPair",
    "Witness",
    "alpha_gamma",
    "closed_form_float",
    "closed_form_params",
    "collision_horizon",
    "fseq",
    "lucas",
    "mu_depth",
    "witness",
]

# Every closed-form evaluation works in a copy of this context: 37 digits
# (at least 120 bits), far beyond the 1e-9 tolerances of the checks, and
# the widest exponent range so deep powers do not overflow. The caller's
# decimal context is never touched.
_CONTEXT = Context(prec=37, Emax=MAX_EMAX)
# A closed form's power lambda1^e may reach 10^_MAX_EXPONENT, half the
# context's exponent range; the other half is headroom for the coefficients
# of the start column, which no integer that fits in memory comes near.
_MAX_EXPONENT = MAX_EMAX // 2


def _require_power(lambda1: Decimal, n: int, extra: int) -> None:
    """Raise InvalidParams unless lambda1^(|n| + extra) stays below 10^_MAX_EXPONENT.

    The message names the largest supported |n|, floor(_MAX_EXPONENT /
    log10 lambda1) - extra. Negative n is valid; a bool is not an integer here.
    """
    if type(n) is not int:
        raise InvalidParams(f"n must be an integer, got {show(n)}")
    # lambda1 < 10^(adjusted + 1), so small n pass without taking a logarithm.
    if (abs(n) + extra) * (lambda1.adjusted() + 1) <= _MAX_EXPONENT:
        return
    with localcontext(_CONTEXT):
        largest = int(_MAX_EXPONENT / lambda1.log10()) - extra
    if abs(n) > largest:
        raise InvalidParams(
            f"n must be at most {largest} in absolute value for these parameters, "
            f"got {show(n)}: past that the closed form leaves the decimal exponent range"
        )


@dataclass(frozen=True, slots=True)
class LucasPair:
    """(U_m, V_m) for x^2 - Px + 1: U_0=0, U_1=1, V_0=2, V_1=P.

    Both satisfy x_{m+1} = P*x_m - x_{m-1}; the pair is tied together by
    V_m^2 - (P^2-4)*U_m^2 = 4.
    """

    P: int
    m: int
    U: int
    V: int


def lucas(P: int, m: int) -> LucasPair:
    """Exact (U_m, V_m) in O(log m) steps by doubling.

    Uses U_{2k} = U_k*V_k, V_{2k} = V_k^2 - 2, and the half-sum step-up
    U_{k+1} = (P*U_k + V_k)/2, V_{k+1} = ((P^2-4)*U_k + P*V_k)/2. The
    half-sums are exact: U_k and V_k are congruent mod 2 when P is odd
    and V_k is always even when P is even.
    """
    require_int("P", P, 3)
    require_int("m", m, 0)
    return LucasPair(P, m, *_ladder(P, m))


def _ladder(P: int, m: int, n: int = 0) -> tuple[int, int]:
    """The ladder of lucas, unchecked and unwrapped: (U_m, V_m) for callers
    that pass a valid P and m; reduced mod n for an odd n > 1, exact for n = 0.

    Mod n a half-sum's numerator x may be odd although its exact value is
    even; as n is odd, x + n is then even, and (x + n)/2 is the half-sum mod n.
    """
    U, V = 0, 2
    D = P * P - 4
    for k in range(m.bit_length() - 1, -1, -1):
        U, V = U * V, V * V - 2
        if m >> k & 1:
            U, V = P * U + V, D * U + P * V
            if n:
                U, V = U + (U & 1) * n, V + (V & 1) * n
            U, V = U >> 1, V >> 1
        if n:
            U, V = U % n, V % n
    return U, V


@dataclass(frozen=True, slots=True)
class AlphaGammaPair:
    """State of the left-column dynamical system after n steps.

    gamma >= alpha holds for every n >= 1 (and at n = 0 whenever the
    start column already satisfies it, as every column of the form
    (a, ua+c) does).
    """

    n: int
    alpha: int
    gamma: int


def _require_start_column(a: int, c: int) -> None:
    if type(a) is not int or type(c) is not int or a < 0 or c < 0 or a == c == 0:
        raise InvalidParams(
            f"start column must be nonnegative and nonzero, got ({show(a)}, {show(c)})"
        )


def alpha_gamma(params: MonoidParams, a: int, c: int, n: int) -> AlphaGammaPair:
    """n steps of the map (alpha, gamma) -> (alpha + v*gamma, u*alpha + (1+uv)*gamma).

    The map is left-multiplication of the column (alpha, gamma) by
    M = L_u*R_v, so the result is the left column of M^n applied to a
    matrix with left column (a, c). Starting from (1, u) - the left
    column of L_u - gamma_n is the (2,1) entry of M^n L_u. By Cayley-Hamilton
    M^n = U_n*M - U_{n-1}*I for P = 2+uv, with U_{n-1} = (P*U_n - V_n)/2.
    """
    _require_start_column(a, c)
    require_int("n", n, 0)
    u, v = params.u, params.v
    U, V = _ladder(2 + u * v, n)
    prev = ((2 + u * v) * U - V) // 2
    alpha = U * (a + v * c) - prev * a
    gamma = U * (u * a + (1 + u * v) * c) - prev * c
    return AlphaGammaPair(n, alpha, gamma)


@dataclass(frozen=True, slots=True)
class ClosedFormParams:
    """Eigen data of the left-column map [[1, v], [u, 1+uv]], in 37-digit decimal.

    q_plus/q_minus = 2+uv +- sqrt(uv(4+uv)) are twice the eigenvalues
    (q_plus*q_minus = 4, lambda1*lambda2 = 1); p_plus/p_minus =
    +-v*sqrt(u) + sqrt(v(4+uv)) encode the eigenvector slopes; c1, c2
    solve the start column (a, c) = c1*vec1 + c2*vec2, giving

        gamma_n = c1*lambda1^n + c2*lambda2^n
        alpha_n = (c1*lambda1^n*p_minus - c2*lambda2^n*p_plus) / (2*sqrt(u))
    """

    p_plus: Decimal
    p_minus: Decimal
    q_plus: Decimal
    q_minus: Decimal
    lambda1: Decimal
    lambda2: Decimal
    c1: Decimal
    c2: Decimal
    u: int

    def alpha_float(self, n: int) -> Decimal:
        """alpha_n; |n| is bounded as in gamma_float."""
        _require_power(self.lambda1, n, 0)
        with localcontext(_CONTEXT):
            return (
                self.c1 * self.lambda1**n * self.p_minus
                - self.c2 * self.lambda2**n * self.p_plus
            ) / (2 * Decimal(self.u).sqrt())

    def gamma_float(self, n: int) -> Decimal:
        """gamma_n, for |n| up to floor(MAX_EMAX / 2 / log10 lambda1) (about
        1.2e18 at u = v = 1 and 4.8e17 at u = v = 3); a larger |n| raises
        InvalidParams naming that bound."""
        _require_power(self.lambda1, n, 0)
        with localcontext(_CONTEXT):
            return self.c1 * self.lambda1**n + self.c2 * self.lambda2**n


def closed_form_params(params: MonoidParams, a: int, c: int) -> ClosedFormParams:
    """Eigen data for the start column (a, c), same convention as alpha_gamma."""
    _require_start_column(a, c)
    u, v = params.u, params.v
    uv = u * v
    with localcontext(_CONTEXT):
        disc = Decimal(uv * (4 + uv)).sqrt()
        q_plus, q_minus = 2 + uv + disc, 2 + uv - disc
        root_u = Decimal(u).sqrt()
        edge = Decimal(v * (4 + uv)).sqrt()
        p_plus, p_minus = v * root_u + edge, -v * root_u + edge
        # Solve (a, c) = c1*(p_minus/(2*sqrt(u)), 1) + c2*(-p_plus/(2*sqrt(u)), 1);
        # the denominator p_plus + p_minus equals 2*sqrt(v(4+uv)).
        c1 = (2 * root_u * a + p_plus * c) / (p_plus + p_minus)
        c2 = (p_minus * c - 2 * root_u * a) / (p_plus + p_minus)
        return ClosedFormParams(
            p_plus=p_plus,
            p_minus=p_minus,
            q_plus=q_plus,
            q_minus=q_minus,
            lambda1=q_plus / 2,
            lambda2=q_minus / 2,
            c1=c1,
            c2=c2,
            u=u,
        )


def closed_form_float(params: MonoidParams, n: int, depth_parity: str) -> Decimal:
    """Radical closed form for the maximal entry, in 37-digit (>= 120-bit) decimal.

    depth_parity "odd" evaluates the depth-(2n+1) formula

        sqrt(t) * (q+^{n+1} - q-^{n+1}) / (2^{n+1} * sqrt(s(4+uv)))

    and "even" the depth-(2n+2) formula, which branches on s = min(u,v):

        (p+ q+^{n+1} + p- q-^{n+1}) / (2^{n+2} sqrt(s(4+uv)))    s > 1
        sqrt(t) ((sqrt(t) p- + 2) q+^{n+1}
                 + (sqrt(t) p+ - 2) q-^{n+1}) / (2^{n+2} sqrt(4+uv))    s = 1

    with q+- = 2+uv +- sqrt(uv(4+uv)) and p+- = +-s*sqrt(t) + sqrt(s(4+uv)).
    The powers are taken as lambda+-^{n+1} = (q+-/2)^{n+1}, and at s = 1
    sqrt(4+uv) is sqrt(s(4+uv)). Float cross-check only; mu_depth is the
    exact source of truth.

    n may be at most floor(MAX_EMAX / 2 / log10 lambda+) - 1 (about 1.2e18
    at u = v = 1 and 4.8e17 at u = v = 3); a larger n raises InvalidParams
    naming that bound.
    """
    require_int("n", n, 0)
    if depth_parity not in ("odd", "even"):
        raise InvalidParams(f"depth_parity must be 'odd' or 'even', got {depth_parity!r}")
    s, t = params.s, params.t
    # Oriented as (u, v) = (t, s), the eigen data holds exactly these q+- and p+-.
    cf = closed_form_params(MonoidParams(t, s), 1, t)
    _require_power(cf.lambda1, n, 1)
    with localcontext(_CONTEXT):
        root_t = Decimal(t).sqrt()
        edge = Decimal(s * (4 + s * t)).sqrt()
        up, down = cf.lambda1 ** (n + 1), cf.lambda2 ** (n + 1)
        if depth_parity == "odd":
            return root_t * (up - down) / edge
        if s > 1:
            return (cf.p_plus * up + cf.p_minus * down) / (2 * edge)
        return root_t * (
            (root_t * cf.p_minus + 2) * up + (root_t * cf.p_plus - 2) * down
        ) / (2 * edge)


def _parity_coeffs(s: int, t: int, n: int) -> tuple[int, int]:
    """(alpha, beta) with mu_depth(params, n) = alpha*U_{m+1} + beta*U_m for
    m = n >> 1 and n >= 1, where s = min(u,v), t = max(u,v) and P = 2+st:

        mu(2j-1) = t * U_j
        mu(2j)   = U_{j+1} - U_j                s > 1
                   t * (U_{j+1} - t*U_j)        s = 1
    """
    if n % 2 == 1:
        return t, 0
    return (1, -1) if s > 1 else (t, -t * t)


def _combo(P: int, m: int, alpha: int, beta: int) -> int:
    """alpha*U_{m+1} + beta*U_m from the ladder at m >> 1 and one top product.

    X_k = alpha*U_{k+1} + beta*U_k solves x_{k+1} = P*x_k - x_{k-1}, and
    every solution satisfies X_{2h} = X_h*V_h - X_0 and
    X_{2h+1} = X_{h+1}*V_h - X_1 (Joye and Quisquater, 1996). With
    h = m >> 1, the last doubling is the single product X_h*V_h or
    X_{h+1}*V_h, where lucas(P, m) would pay for U*V and V^2.
    """
    U, V = _ladder(P, m >> 1)
    up = (P * U + V) // 2  # U_{h+1}; U_{h+2} = P*U_{h+1} - U_h
    if m & 1:
        return (alpha * (P * up - U) + beta * up) * V - (alpha * P + beta)
    return (alpha * up + beta * U) * V - alpha


def mu_depth(params: MonoidParams, n: int) -> int:
    """Exact maximal entry over all depth-n products, in O(log n) steps.

    mu(0) = 1, and for n >= 1 the parity formulas of _parity_coeffs give
    mu(n) = alpha*U_{m+1} + beta*U_m with m = n >> 1, for P = 2+uv. _combo
    evaluates it with the ladder at m >> 1 and one top product by the
    doubling identity X_{2h} = X_h*V_h - X_0 (X_{2h+1} = X_{h+1}*V_h - X_1),
    which every solution of the recurrence satisfies.
    """
    require_int("depth", n, 0)
    if n == 0:
        return 1
    s, t = params.s, params.t
    alpha, beta = _parity_coeffs(s, t, n)
    return _combo(2 + s * t, n >> 1, alpha, beta)


@dataclass(frozen=True, slots=True)
class Witness:
    """A depth-n word whose matrix attains the depth-n maximal entry."""

    word: str
    matrix: Mat2
    position: tuple[int, int]
    value: int


def witness(params: MonoidParams, n: int) -> Witness:
    """Construct a maximal word of depth n >= 1 and verify it attains mu_depth.

    Odd n = 2k+1 uses the alternating word ending on the larger shear:
    (LR)^k L at entry (2,1) when u >= v, else (RL)^k R at (1,2). Even
    n = 2k+2 uses (RL)^{k+1} with the max entry located by scanning when
    min(u,v) > 1, and the doubled-head word L(LR)^k L at (2,1) (or its
    mirror R(RL)^k R at (1,2)) when min(u,v) = 1. The constructed value
    is always checked against mu_depth; a mismatch raises rather than
    returning a wrong witness.
    """
    require_int("witness depth", n, 1)
    u, v = params.u, params.v
    position: tuple[int, int] | None
    if n % 2 == 1:
        k = (n - 1) // 2
        if u >= v:
            word, position = "LR" * k + "L", (2, 1)
        else:
            word, position = "RL" * k + "R", (1, 2)
    else:
        k = (n - 2) // 2
        if params.s > 1:
            word, position = "RL" * (k + 1), None
        elif u >= v:
            word, position = "L" + "LR" * k + "L", (2, 1)
        else:
            word, position = "R" + "RL" * k + "R", (1, 2)
    m = word_to_matrix(word, params)
    expected = mu_depth(params, n)
    if position is None:
        entries = ((m.a, (1, 1)), (m.b, (1, 2)), (m.c, (2, 1)), (m.d, (2, 2)))
        value, position = max(entries, key=lambda e: e[0])
    else:
        value = m.rows()[position[0] - 1][position[1] - 1]
    if value != expected or mu(m) != expected:
        raise WitnessMismatch(
            f"word {word} for u={u}, v={v}, depth {n}: entry {position} is {show(value)}, "
            f"matrix max is {show(mu(m))}, but the depth maximum is {show(expected)}"
        )
    return Witness(word, m, position, value)


def fseq(params: MonoidParams, n: int) -> int:
    """Two-periodic Fibonacci-like sequence: F_0=0, F_1=1, and
    F_m = u*F_{m-1} + F_{m-2} for odd m, v*F_{m-1} + F_{m-2} for even m.

    With (u, v) = (1, 1) this is the Fibonacci sequence. Oriented as
    (min(u,v), max(u,v)), the value at n+1 equals mu_depth at n whenever
    u, v > 1 or u = v = 1. With P = 2+uv, F_{2k} = v*U_k and
    F_{2k+1} = U_{k+1} - U_k; _combo evaluates either from the ladder at
    n >> 2 and one top product by the doubling identity
    X_{2h} = X_h*V_h - X_0 (X_{2h+1} = X_{h+1}*V_h - X_1).
    """
    require_int("index", n, 0)
    P = 2 + params.u * params.v
    if n % 2 == 1:
        return _combo(P, n >> 1, 1, -1)
    return _combo(P, n >> 1, 0, params.v)


def _horizon_seed(s: int, t: int, bound: int) -> int:
    """A float estimate, at least 0, of collision_horizon(params, bound) for
    s = min(u,v) and t = max(u,v).

    mu(2j-1) = t*U_j is about t*lambda1^j / sqrt(P^2-4) with
    lambda1 = (P + sqrt(P^2-4))/2, and the even depths lie between their
    odd neighbours. Solving t*lambda1^((n+1)/2) / sqrt(P^2-4) = bound for n
    lands within 2 of the answer (the tests pin this up to 200,000-bit
    bounds). The logarithms take the integers themselves, so no float
    overflows for a huge P or bound.
    """
    P = 2 + s * t
    log_lambda = math.log(P) + math.log((1 + math.sqrt(1 - 4 / (P * P))) / 2)
    log_scale = math.log(t) - math.log(P * P - 4) / 2
    return max(int(2 * (math.log(bound) - log_scale) / log_lambda) - 1, 0)


def collision_horizon(params: MonoidParams, bound: int) -> int:
    """Largest n with mu_depth(params, n) < bound.

    Exists because mu_depth(0) = 1 < bound and the sequence is unbounded.
    One ladder, the loop of lucas at m = _horizon_seed(s, t, bound) >> 1,
    gives (U_m, U_{m+1}); the walk then steps U_{m+-1} = P*U_m - U_{m-+1}
    until mu(2m) < bound <= mu(2m+2), reading mu from _parity_coeffs, and
    the answer is 2m+1 if mu(2m+1) < bound, else 2m. The bracket certifies
    the answer, as mu is strictly increasing from n = 1 (at m = 0,
    mu(0) = 1 < bound stands in for the formula). The float seed only picks
    the start, within a step or two of the end, so the walk is O(1) linear
    steps after the ladder.
    """
    require_int("bound", bound, 2)
    s, t = params.s, params.t
    P = 2 + s * t
    alpha, beta = _parity_coeffs(s, t, 2)
    odd_alpha, odd_beta = _parity_coeffs(s, t, 1)
    m = _horizon_seed(s, t, bound) >> 1
    lo, V = _ladder(P, m)
    hi = (P * lo + V) // 2
    while m > 0 and alpha * hi + beta * lo >= bound:
        lo, hi, m = P * lo - hi, lo, m - 1
    while True:
        up = P * hi - lo
        if alpha * up + beta * hi >= bound:
            break
        lo, hi, m = hi, up, m + 1
    return 2 * m + 1 if odd_alpha * hi + odd_beta * lo < bound else 2 * m

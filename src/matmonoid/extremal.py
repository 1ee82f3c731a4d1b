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
from decimal import MAX_EMAX, Context, Decimal, localcontext

from .errors import InvalidParams, WitnessMismatch, _Record, require_int, require_output_size, show
from .matrix import _MIRROR, MonoidParams, mu, word_to_matrix

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


class LucasPair(_Record):
    """(U_m, V_m) for x^2 - Px + 1: U_0=0, U_1=1, V_0=2, V_1=P.

    Both satisfy x_{m+1} = P*x_m - x_{m-1}; the pair is tied together by
    V_m^2 - (P^2-4)*U_m^2 = 4.
    """

    __slots__ = {"P": "int", "m": "int", "U": "int", "V": "int"}


def lucas(P: int, m: int) -> LucasPair:
    """Exact (U_m, V_m) in O(log m) steps by doubling, on _ladder.

    A doubling is V_{2k} = V_k^2 - 2 and U_{2k} = U_k*V_k, and a step-up
    U_{k+1} = (P*U_k + V_k)/2 and V_{k+1} = P*U_{k+1} - 2*U_k. The half-sum
    is exact: U_k and V_k are congruent mod 2 when P is odd and V_k is
    always even when P is even.
    """
    require_int("P", P, 3)
    require_int("m", m, 0)
    require_output_size(_answer_bytes(P, m), "bytes", "lucas at m = {} has about", m)
    return LucasPair(P, m, *_ladder(P, m))


def _answer_bytes(P: int, m: int) -> int:
    """About the size in bytes of U_m for x^2 - Px + 1: about P^m, so
    m*log2(P) bits. The estimate is taken in integers, so any m is sized at
    once, before any work."""
    return m * math.ceil(1024 * math.log2(P)) >> 13


def _ladder(P: int, m: int, n: int = 0) -> tuple[int, int]:
    """The ladder of lucas, unchecked: (U_m, V_m), exact for n = 0 and mod
    an odd n > 1 otherwise.

    A doubling is U_{2k} = U*V and V_{2k} = V^2 - 2. Exact and from
    _KERNEL_BITS on, where two transform squares cost less than a product
    and a square, it is S = V^2 and T = (U+V)^2 through _mul, with
    U_{2k} = (T - S - floor(S/D))/2, as U^2 = floor(S/D) for D = P^2-4 >= 5
    by V^2 - D*U^2 = 4, and V_{2k} = S - 2. The step-up is
    U_{k+1} = (P*U_k + V_k)/2, then V_{k+1} = P*U_{k+1} - 2*U_k: two
    products in place of four. Old values are dropped once used, so a deep
    ladder's peak memory is its last two squares or the step-up's products.

    Setting n changes three things in the one loop: the doubling always
    takes the product, as floor(S/D) holds only over the integers; the
    half-sum's reduced numerator may be odd, and then gets n added before
    the halving, as n is odd; and each step ends mod n.
    """
    U, V = 0, 2
    D = P * P - 4
    for k in range(m.bit_length() - 1, -1, -1):
        if n or V.bit_length() < _KERNEL_BITS:
            U, V = U * V, V * V - 2
        else:
            U += V
            V = _mul(V, V)
            U = _mul(U, U) - V
            U = (U - V // D) >> 1
            V -= 2
        if m >> k & 1:
            V += P * U
            if n and V & 1:
                V += n
            U, V = V >> 1, U
            V = P * U - V - V
        if n:
            U, V = U % n, V % n
    return U, V


# Below this many bits in either factor _mul is x*y, as CPython's Karatsuba is
# faster: squares cross at about 110,000 bits, products at 180,000 (3.11, x86-64).
_KERNEL_BITS = 180_000


def _mul(x: int, y: int) -> int:
    """x*y, by a Schönhage–Strassen transform once both factors have
    _KERNEL_BITS bits; with y is x it squares on one forward transform.

    For b = bits(x) + bits(y), N = 2^k >= 2 is the largest power of two
    with N^2 <= b. |x| and |y| are cut into byte-sliced pieces of M >= b/N
    bits, zero-padded to N, and convolved cyclically mod F = 2^K + 1,
    K >= 2M+k+1 a multiple of N/2, so w = 2^(2K/N) is a primitive N-th
    root of unity and every twiddle is a shift: a decimation-in-frequency
    forward pass (bit-reversed out), pointwise products, a
    decimation-in-time inverse pass and a scaling by N^-1 = -2^(K-k). Sums
    in the passes stay unreduced, as every step is a congruence mod F.

    It is exact by construction: the factors' c and c' pieces have
    c + c' < b/M + 2 <= N + 2, so the c + c' - 1 <= N coefficients never
    wrap, however lopsided the factors, and each, a sum of at most N
    products below 2^(2M), is below 2^(2M+k) < F: its own residue.
    """
    b, c = x.bit_length(), y.bit_length()
    if b < _KERNEL_BITS or c < _KERNEL_BITS:
        return x * y
    if b < c:
        x, y = y, x
    b += c
    k = max((b.bit_length() - 1) >> 1, 1)
    N, half = 1 << k, 1 << k - 1
    M = -(-b // (8 * N)) * 8
    K = -(-(2 * M + k + 1) // half) * half
    F, mask = (1 << K) + 1, (1 << K) - 1
    a = _forward(x, N, M, K)
    # Pointwise: p*q = hi*2^K + lo == lo - hi. y, the smaller factor, has at
    # most N/2 pieces, which the first forward stage sends as they are to the
    # lower half and times 2^(j*2K/N) to the upper: one half at a time.
    for lo in (0, half):
        z = a[lo:lo + half] if y is x else _forward(y, half, M, K, lo and K // half)
        for i in range(half):
            p = z[i] % F
            p *= p if y is x else a[lo + i] % F
            z[i] = None
            a[lo + i] = (p & mask) - (p >> K)
    # Inverse: w^-(j*N/2h) = -2^(K-s) for s = j*K/h, and at j = 0 the same
    # formula is the identity.
    h = 1
    while h < N:
        for j in range(h):
            r = j * (K // h)
            s, low = K - r, (1 << r) - 1
            for i in range(j, N, 2 * h):
                p, q = a[i], a[i + h]
                q = (q >> r) - ((q & low) << s)
                a[i] = p + q
                a[i + h] = p - q
        h <<= 1
    # Scale by -2^(K-k), reduce into [0, F), and carry into M-bit pieces.
    s, low = K - k, (1 << k) - 1
    piece, width = (1 << M) - 1, M >> 3
    out, carry = bytearray(), 0
    for i in range(N):
        c = a[i]
        a[i] = None
        c = ((c >> k) - ((c & low) << s)) % F + carry
        out += (c & piece).to_bytes(width, "little")
        carry = c >> M
    c = int.from_bytes(out, "little")
    return -c if (x < 0) != (y < 0) else c


def _forward(x: int, N: int, M: int, K: int, t: int = 0) -> list[int]:
    """_mul's forward pass on |x| in M-bit pieces, the j-th times 2^(j*t), padded to N."""
    width = M >> 3
    data = abs(x).to_bytes(-(-x.bit_length() // 8), "little")
    a = [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]
    del data
    if t:
        a = [((d & (1 << K - j * t) - 1) << j * t) - (d >> K - j * t) for j, d in enumerate(a)]
    a += [0] * (N - len(a))
    # The pairs at distance h take w^(j*N/2h) = 2^(j*K/h), j < h, and
    # d*2^s = d_hi*2^K + d_lo*2^s == d_lo*2^s - d_hi for d_hi = d >> (K-s).
    h = N >> 1
    while h:
        for j in range(h):
            s = j * (K // h)
            r, low = K - s, (1 << (K - s)) - 1
            for i in range(j, N, 2 * h):
                p, q = a[i], a[i + h]
                a[i] = p + q
                d = p - q
                a[i + h] = ((d & low) << s) - (d >> r)
        h >>= 1
    return a


class AlphaGammaPair(_Record):
    """State of the left-column dynamical system after n steps.

    gamma >= alpha holds for every n >= 1 (and at n = 0 whenever the
    start column already satisfies it, as every column of the form
    (a, ua+c) does).
    """

    __slots__ = {"n": "int", "alpha": "int", "gamma": "int"}


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
    require_output_size(
        _answer_bytes(2 + u * v, n), "bytes", "the column after {} steps has about", n
    )
    U, V = _ladder(2 + u * v, n)
    prev = ((2 + u * v) * U - V) // 2
    alpha = U * (a + v * c) - prev * a
    gamma = U * (u * a + (1 + u * v) * c) - prev * c
    return AlphaGammaPair(n, alpha, gamma)


class ClosedFormParams(_Record):
    """Eigen data of the left-column map [[1, v], [u, 1+uv]], in 37-digit decimal.

    q_plus/q_minus = 2+uv +- sqrt(uv(4+uv)) are twice the eigenvalues
    (q_plus*q_minus = 4, lambda1*lambda2 = 1); p_plus/p_minus =
    +-v*sqrt(u) + sqrt(v(4+uv)) encode the eigenvector slopes; c1, c2
    solve the start column (a, c) = c1*vec1 + c2*vec2, giving

        gamma_n = c1*lambda1^n + c2*lambda2^n
        alpha_n = (c1*lambda1^n*p_minus - c2*lambda2^n*p_plus) / (2*sqrt(u))
    """

    __slots__ = dict.fromkeys(
        ("p_plus", "p_minus", "q_plus", "q_minus", "lambda1", "lambda2", "c1", "c2"), "Decimal"
    ) | {"u": "int"}

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
        lambda1, lambda2 = q_plus / 2, q_minus / 2
        return ClosedFormParams(p_plus, p_minus, q_plus, q_minus, lambda1, lambda2, c1, c2, u)


def closed_form_float(params: MonoidParams, n: int, depth_parity: str) -> Decimal:
    """Radical closed form for the maximal entry, in 37-digit (>= 120-bit) decimal.

    depth_parity "odd" evaluates the depth-(2n+1) formula

        sqrt(t) * (q+^{n+1} - q-^{n+1}) / (2^{n+1} * sqrt(s(4+uv)))

    and "even" the depth-(2n+2) formula, which branches on s = min(u,v):

        (p+ q+^{n+1} + p- q-^{n+1}) / (2^{n+2} sqrt(s(4+uv)))    s > 1
        sqrt(t) ((sqrt(t) p- + 2) q+^{n+1}
                 + (sqrt(t) p+ - 2) q-^{n+1}) / (2^{n+2} sqrt(4+uv))    s = 1

    with q+- = 2+uv +- sqrt(uv(4+uv)) and p+- = +-s*sqrt(t) + sqrt(s(4+uv)).
    They are evaluated on the column (alpha_n, gamma_n) of (LR)^n L from
    (1, t), oriented as (u, v) = (t, s): gamma_n, and at even depth
    alpha_n + s*gamma_n (R_s in front) when s > 1, else t*alpha_n + gamma_n
    (L_t in front). Float cross-check only; mu_depth is the exact truth.

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
    gamma = cf.gamma_float(n)
    if depth_parity == "odd":
        return gamma
    with localcontext(_CONTEXT):
        return cf.alpha_float(n) + s * gamma if s > 1 else t * cf.alpha_float(n) + gamma


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
    h = m >> 1, the last doubling is the single product X*V of X = X_h or
    X_{h+1}, where lucas(P, m) would pay for U*V and V^2; from _KERNEL_BITS
    on it is one transform product of _mul.
    """
    U, V = _ladder(P, m >> 1)
    up = (P * U + V) // 2  # U_{h+1}; U_{h+2} = P*U_{h+1} - U_h
    if m & 1:
        X, X0 = alpha * (P * up - U) + beta * up, alpha * P + beta
    else:
        X, X0 = alpha * up + beta * U, alpha
    if V.bit_length() < _KERNEL_BITS:
        return X * V - X0
    del U, up
    return _mul(X, V) - X0


def mu_depth(params: MonoidParams, n: int) -> int:
    """Exact maximal entry over all depth-n products, in O(log n) steps.

    mu(0) = 1, and for n >= 1 the parity formulas of _parity_coeffs give
    mu(n) = alpha*U_{m+1} + beta*U_m with m = n >> 1, for P = 2+uv. _combo
    evaluates it with the ladder at m >> 1 and one top product X*V, a single
    _mul transform product at full size, by the doubling identity
    X_{2h} = X_h*V_h - X_0 (X_{2h+1} = X_{h+1}*V_h - X_1), which every
    solution of the recurrence satisfies.
    """
    require_int("depth", n, 0)
    if n == 0:
        return 1
    s, t = params.s, params.t
    require_output_size(
        _answer_bytes(2 + s * t, n >> 1), "bytes", "the maximal entry at depth {} has about", n
    )
    alpha, beta = _parity_coeffs(s, t, n)
    return _combo(2 + s * t, n >> 1, alpha, beta)


class Witness(_Record):
    """A depth-n word whose matrix attains the depth-n maximal entry."""

    __slots__ = {"word": "str", "matrix": "Mat2", "position": "tuple[int, int]", "value": "int"}


def witness(params: MonoidParams, n: int) -> Witness:
    """Construct a maximal word of depth n >= 1 and verify it attains mu_depth.

    Odd n = 2k+1 uses the alternating word (LR)^k L at entry (2,1). Even
    n = 2k+2 puts a letter in front of it: L(LR)^k L at (2,1) if min(u,v) = 1,
    else R(LR)^k L = M^{k+1} at (1,1): M = R_v L_u = [[1+uv, v], [u, 1]] has
    M^j = U_j*M - U_{j-1}*I (Cayley-Hamilton, P = 2+uv), and as
    U_{j-1} < U_j the (1,1) entry (1+uv)*U_j - U_{j-1} exceeds v*U_j, u*U_j
    and U_j - U_{j-1}. A (2,1) word is for u >= v; when u < v its mirror
    (matrix._MIRROR) attains the value at (1,2). The value is always checked
    against mu_depth; a mismatch raises rather than returning a wrong witness.
    """
    require_int("witness depth", n, 1)
    require_output_size(n, "letters", "the witness word at depth {} has", n)
    expected = mu_depth(params, n)
    u, v = params.u, params.v
    word = "LR" * ((n - 1) // 2) + "L"
    if n % 2 == 0:
        word = ("R" if params.s > 1 else "L") + word
    position = (1, 1) if word[0] == "R" else (2, 1)
    if u < v and position == (2, 1):
        word, position = word.translate(_MIRROR), (1, 2)
    m = word_to_matrix(word, params)
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
    n >> 2 and one top product X*V, as in mu_depth, by the doubling identity
    X_{2h} = X_h*V_h - X_0 (X_{2h+1} = X_{h+1}*V_h - X_1).
    """
    require_int("index", n, 0)
    P = 2 + params.u * params.v
    require_output_size(_answer_bytes(P, n >> 1), "bytes", "F_{} has about", n)
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

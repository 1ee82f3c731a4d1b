"""Self-contained verification suites behind the `verify` CLI subcommand.

Each check pits an independent computation against the library's fast
path (brute-force row enumeration vs Lucas evaluation, recurrence builds
vs binomial closed forms, symbolic entries vs integer products) and
reports one pass/fail line. The (u, v, n, p) grids are fixed constants
so runs are reproducible.
"""
from __future__ import annotations

import functools
import random
from collections.abc import Callable, Generator
from itertools import product

from . import bsvhash, extremal, polydom, tree
from .errors import InvalidParams, WitnessMismatch, _Record, require_int, show
from .matrix import IDENTITY, MonoidParams, mu, word_to_matrix
from .polydom import ONE, X, ZERO, PolyN, dominates

__all__ = ["CheckResult", "MAX_DEPTH", "SUITE_NAMES", "run_suite"]

# Parameter grids shared by the suites (documented in the CLI help).
WIDE_GRID = [(u, v) for u in range(1, 5) for v in range(1, 5)]
NARROW_GRID = [(u, v) for u in range(1, 4) for v in range(1, 4)]
HASH_GRID = [(1, 1), (2, 3), (3, 2), (2, 2)]
HASH_PRIMES = [101, 257, 1009]
RNG_SEED = 20260815

# A Mersenne prime far above every max entry reachable at depth 16 on the
# wide grid, so hashing mod it must reproduce the exact integer product.
BIG_PRIME = 2**61 - 1


class CheckResult(_Record):
    __slots__ = {"name": "str", "scope": "str", "passed": "bool", "failures": "list[str]"}
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, name: str, scope: str, passed: bool, failures: list[str] | None = None):
        self.name, self.scope, self.passed = name, scope, passed
        self.failures = [] if failures is None else failures

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status} {self.name} ({self.scope})"
        if self.failures:
            out += "\n" + "\n".join(f"    {f}" for f in self.failures[:5])
            if len(self.failures) > 5:
                out += f"\n    ... and {len(self.failures) - 5} more"
        return out


# A check body yields one text per failure and returns its scope.
_Failures = Generator[str, None, str]


# Each suite's checks in report order, filled in by _check as they are defined.
_SUITES: dict[str, list[Callable[..., CheckResult]]] = {}


def _check(suite: str, name: str) -> Callable[[Callable], Callable[..., CheckResult]]:
    """Turn a check body into a function that runs it and returns its CheckResult,
    and append that to the suite's checks."""

    def wrap(body: Callable[..., _Failures]) -> Callable[..., CheckResult]:
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            failures = []
            run = body(*args, **kwargs)
            try:
                while True:
                    failures.append(next(run))
            except StopIteration as done:
                return CheckResult(name, done.value, not failures, failures)

        _SUITES.setdefault(suite, []).append(check)
        return check

    return wrap


# ---------------------------------------------------------------------------
# formulas: exact max-entry values against enumeration and radical forms


@_check("formulas", "max-entry-oracle")
def check_max_entry_oracle(max_depth: int) -> _Failures:
    depth = min(max_depth, 16)
    for u, v in WIDE_GRID:
        params = MonoidParams(u, v)
        for n in range(depth + 1):
            fast = extremal.mu_depth(params, n)
            slow = tree.mu_row_bruteforce(params, n)
            if fast != slow:
                yield f"u={u} v={v} n={n}: lucas {fast} != brute {slow}"
    return f"(u,v) in [1..4]^2, depth <= {depth}"


@_check("formulas", "radical-closed-form")
def check_radical_closed_form(max_depth: int) -> _Failures:
    for u, v in NARROW_GRID:
        params = MonoidParams(u, v)
        for n in range(max_depth + 1):
            for parity, depth in (("odd", 2 * n + 1), ("even", 2 * n + 2)):
                exact = extremal.mu_depth(params, depth)
                approx = extremal.closed_form_float(params, n, parity)
                if abs(approx - exact) / exact >= 1e-9:
                    yield f"u={u} v={v} depth={depth}: {approx} vs exact {exact}"
    return f"(u,v) in [1..3]^2, n <= {max_depth}, both parities, rel tol 1e-9"


@_check("formulas", "max-entry-uv-symmetric")
def check_uv_symmetry(max_depth: int) -> _Failures:
    top = 2 * max_depth + 2
    for u, v in WIDE_GRID:
        a, b = MonoidParams(u, v), MonoidParams(v, u)
        for n in range(top + 1):
            if extremal.mu_depth(a, n) != extremal.mu_depth(b, n):
                yield f"u={u} v={v} n={n}"
    return f"(u,v) in [1..4]^2, depth <= {top}"


@_check("formulas", "max-entry-monotone")
def check_monotonicity(max_depth: int) -> _Failures:
    top = 2 * max_depth + 2
    for u, v in WIDE_GRID:
        params = MonoidParams(u, v)
        values = [extremal.mu_depth(params, n) for n in range(top + 1)]
        for n in range(1, top):
            if not values[n] < values[n + 1]:
                yield f"u={u} v={v}: mu({n})={values[n]} !< mu({n + 1})={values[n + 1]}"
        if values[0] > values[1]:
            yield f"u={u} v={v}: mu(0) > mu(1)"
    return f"(u,v) in [1..4]^2, strict from depth 1 to {top}"


@_check("formulas", "witness-attainment")
def check_witness_attainment(max_depth: int) -> _Failures:
    top = 2 * max_depth
    for u, v in WIDE_GRID:
        params = MonoidParams(u, v)
        for n in range(1, top + 1):
            try:
                w = extremal.witness(params, n)
            except WitnessMismatch as e:
                yield str(e)
                continue
            r, c = w.position
            if w.matrix.rows()[r - 1][c - 1] != w.value:
                yield f"u={u} v={v} n={n}: position/value disagree"
    return f"(u,v) in [1..4]^2, depth 1..{top}"


@_check("formulas", "alternating-column")
def check_alternating_column(max_depth: int) -> _Failures:
    for u, v in NARROW_GRID:
        params = MonoidParams(u, v)
        cf = extremal.closed_form_params(params, 1, u)
        for n in range(max_depth + 1):
            pair = extremal.alpha_gamma(params, 1, u, n)
            m = word_to_matrix("LR" * n + "L", params)
            if (pair.alpha, pair.gamma) != (m.a, m.c):
                yield (
                    f"u={u} v={v} n={n}: alpha_gamma ({pair.alpha},{pair.gamma}) "
                    f"!= product column ({m.a},{m.c})"
                )
            for exact, approx in ((pair.alpha, cf.alpha_float(n)), (pair.gamma, cf.gamma_float(n))):
                if abs(approx - exact) / exact >= 1e-9:
                    yield f"u={u} v={v} n={n}: float {approx} vs {exact}"
    return f"(u,v) in [1..3]^2, n <= {max_depth}, start column (1,u), rel tol 1e-9"


@_check("formulas", "fibonacci-like-link")
def check_fibonacci_like_link(max_depth: int) -> _Failures:
    top = 2 * max_depth + 2
    for u, v in WIDE_GRID:
        s, t = min(u, v), max(u, v)
        if s == 1 and t > 1:
            continue
        params, oriented = MonoidParams(u, v), MonoidParams(s, t)
        F0, F1 = 0, 1  # F_n, F_{n+1} by the defining recurrence
        for n in range(top + 1):
            if not extremal.fseq(oriented, n + 1) == extremal.mu_depth(params, n) == F1:
                yield f"u={u} v={v} n={n}"
            F0, F1 = F1, (t, s)[n % 2] * F1 + F0
    return f"(u,v) in [1..4]^2 with min>1 or u=v=1, offset 1, depth <= {top}"


@_check("formulas", "lucas-pairs")
def check_lucas_pairs(max_depth: int) -> _Failures:
    top = 2 * max_depth + 2
    for P in range(3, 12):
        U2, U1 = 0, 1  # U_0, U_1 by the plain recurrence
        V2, V1 = 2, P
        for m in range(top + 1):
            pair = extremal.lucas(P, m)
            if pair.V**2 - (P * P - 4) * pair.U**2 != 4:
                yield f"P={P} m={m}: pair identity broken"
            if (pair.U, pair.V) != (U2, V2):
                yield f"P={P} m={m}: doubling {pair.U},{pair.V} != recurrence {U2},{V2}"
            U2, U1 = U1, P * U1 - U2
            V2, V1 = V1, P * V1 - V2
    return f"P in [3..11], m <= {top}, doubling vs recurrence"


# ---------------------------------------------------------------------------
# symmetry: tree mirror identities, classification, entry structure


@_check("symmetry", "mirror-symmetry")
def check_mirror_symmetry(max_depth: int) -> _Failures:
    depth = min(max_depth, 12)
    for u, v in NARROW_GRID:
        params, swapped = MonoidParams(u, v), MonoidParams(v, u)
        for n in range(depth + 1):
            tree.require_row(n)
            # mirror[i]: the antitranspose (d, c, b, a) of the (v, u) row's cell i from the right.
            mirror = [m[::-1] for m in tree._row_cells(IDENTITY, swapped, n)][::-1]
            for i, m in enumerate(tree._row_cells(IDENTITY, params, n)):
                if m != mirror[i]:
                    yield f"u={u} v={v} n={n} i={i + 1}"
                    break
    return f"(u,v) in [1..3]^2, depth <= {depth}, all cells"


@_check("symmetry", "entry-poly-flip")
def check_entry_poly_flip(max_depth: int) -> _Failures:
    depth = min(max_depth, 8)
    for n in range(depth + 1):
        size = 1 << n
        polys = [tree.entry_polys(tree.cell_word(n, i)) for i in range(1, size + 1)]
        for i in range(size):
            (f1, f2), (f3, f4) = polys[size - 1 - i]
            flipped = ((f4.swap_vars(), f3.swap_vars()), (f2.swap_vars(), f1.swap_vars()))
            if flipped != polys[i]:
                yield f"n={n} i={i + 1}"
    return f"all cells, depth <= {depth}"


@_check("symmetry", "left-half-dominance")
def check_left_half_dominance(max_depth: int) -> _Failures:
    depth = min(max_depth, 12)
    for u, v in [(u, v) for u, v in NARROW_GRID if u >= v]:
        params = MonoidParams(u, v)
        for n in range(1, depth + 1):
            tree.require_row(n)
            mus = list(map(max, tree._row_cells(IDENTITY, params, n)))
            for i in range(len(mus) // 2):
                if mus[-1 - i] > mus[i]:
                    yield f"u={u} v={v} n={n} i={i + 1}"
                    break
    return f"(u,v) in [1..3]^2 with u >= v, depth <= {depth}, left-half cells"


@_check("symmetry", "column-max")
def check_column_max(max_depth: int) -> _Failures:
    depth = min(max_depth, 8)
    for u, v in NARROW_GRID:
        params = MonoidParams(u, v)
        for n in range(1, depth + 1):
            for word in map("".join, product("LR", repeat=n)):
                m = word_to_matrix(word, params)
                expect = max(m.a, m.c) if word.endswith("L") else max(m.b, m.d)
                if mu(m) != expect:
                    yield f"u={u} v={v} word={word}"
    return f"(u,v) in [1..3]^2, all words of depth 1..{depth}, column by last letter"


@_check("symmetry", "single-peel-class")
def check_single_peel_class(max_depth: int) -> _Failures:
    depth = min(max_depth, 10)
    for u, v in NARROW_GRID:
        params = MonoidParams(u, v)
        if tree.classify(IDENTITY, params) is not tree.DominanceClass.NEITHER:
            yield f"u={u} v={v}: identity not NEITHER"
        for n in range(1, depth + 1):
            tree.require_row(n)
            for m in tree._row_cells(IDENTITY, params, n):
                cls = tree.classify(m, params)
                if cls in (tree.DominanceClass.BOTH, tree.DominanceClass.NEITHER):
                    yield f"u={u} v={v} n={n}: {m[:2], m[2:]} classified {cls.name}"
    return f"(u,v) in [1..3]^2, depth 1..{depth}: exactly one generator peels"


@_check("symmetry", "entry-poly-structure")
def check_entry_poly_structure(max_depth: int) -> _Failures:
    depth = min(max_depth, 10)
    eval_points = [(2, 3), (1, 4)]
    for n in range(depth + 1):
        for word in map("".join, product("LR", repeat=n)):
            (f1, f2), (f3, f4) = tree.entry_polys(word)
            ok = (
                all(i == j for (i, j), _ in f1.terms())
                and all(i == j for (i, j), _ in f4.terms())
                and all(j == i + 1 for (i, j), _ in f2.terms())
                and all(i == j + 1 for (i, j), _ in f3.terms())
                and max(f.total_degree for f in (f1, f2, f3, f4)) <= n
            )
            if not ok:
                yield f"structure broken for word {word}"
                continue
            for u, v in eval_points:
                m = word_to_matrix(word, MonoidParams(u, v))
                if (f1(u, v), f2(u, v), f3(u, v), f4(u, v)) != (m.a, m.b, m.c, m.d):
                    yield f"word {word} at u={u} v={v}: evaluation mismatch"
    return f"all words of depth <= {depth}; balanced/degree shape and evaluation"


@_check("symmetry", "left-column-bound")
def check_left_column_bound(max_depth: int) -> _Failures:
    top = min((max_depth - 1) // 2, 7)
    for u, v in WIDE_GRID:
        params = MonoidParams(u, v)
        # The bound lives on the left column when u >= v; the mirror tree
        # carries it on the right column otherwise.
        oriented = params if u >= v else params.swapped()
        for n in range(top + 1):
            pair = extremal.alpha_gamma(oriented, 1, oriented.u, n)
            tree.require_row(2 * n + 1)
            best_entry = best_sum = 0
            for a, b, c, d in tree._row_cells(IDENTITY, params, 2 * n + 1):
                x, y = (a, c) if u >= v else (b, d)
                if x + y > best_sum:
                    best_sum = x + y
                if x > best_entry or y > best_entry:
                    best_entry = max(x, y)
            if best_entry != pair.gamma:
                yield f"u={u} v={v} n={n}: column max {best_entry} != gamma {pair.gamma}"
            if best_sum != pair.alpha + pair.gamma:
                yield f"u={u} v={v} n={n}: column sum {best_sum} != {pair.alpha + pair.gamma}"
    return (f"(u,v) in [1..4]^2, odd depths <= {2 * top + 1}: dominant column capped by "
            "the alternating-word column, with equality attained")


# ---------------------------------------------------------------------------
# polydom: dominance order laws and the four binomial families


def _families_by_recurrence(n_max: int):
    """Build (F, G, H, I) lists straight from the recurrences."""
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


def _random_poly(rng: random.Random, max_deg: int = 8, max_coeff: int = 9) -> PolyN:
    deg = rng.randrange(max_deg + 1)
    return PolyN([rng.randrange(max_coeff + 1) for _ in range(deg + 1)])


def _dominating_pair(rng: random.Random) -> tuple[PolyN, PolyN]:
    """(f, g) with f guaranteed to dominate g by construction."""
    g = _random_poly(rng)
    f = g.shift(rng.randrange(3)) + _random_poly(rng, max_deg=4, max_coeff=3)
    return f, g


@_check("polydom", "family-closed-forms")
def check_family_closed_forms(n_max: int = 20) -> _Failures:
    fs, gs, hs, is_ = _families_by_recurrence(n_max)
    for n in range(n_max + 1):
        if polydom.f_poly(n) != fs[n]:
            yield f"f_poly({n})"
        if polydom.g_poly(n) != gs[n]:
            yield f"g_poly({n})"
        if n >= 1:
            if polydom.h_poly(n) != hs[n]:
                yield f"h_poly({n})"
            if polydom.i_poly(n) != is_[n]:
                yield f"i_poly({n})"
    return f"binomial vs recurrence build, n <= {n_max}"


@_check("polydom", "order-laws")
def check_order_laws(n_pairs: int = 2000, seed: int = RNG_SEED) -> _Failures:
    rng = random.Random(seed)
    for trial in range(n_pairs):
        f, g = _random_poly(rng), _random_poly(rng)
        if not dominates(f, f):
            yield f"trial {trial}: reflexivity broken for {f}"
        if dominates(f, g) and dominates(g, f) and f != g:
            yield f"trial {trial}: antisymmetry broken"
        if dominates(f, g) and f.degree < g.degree:
            yield f"trial {trial}: degree must not drop under dominance"
        # Pointwise-coefficient comparison is a sufficient condition.
        width = max(len(f.coeffs), len(g.coeffs))
        if all(f.coefficient(i) >= g.coefficient(i) for i in range(width)) and not dominates(f, g):
            yield f"trial {trial}: coefficientwise >= did not imply dominance"
        # Constructed chains exercise transitivity and additivity.
        a, b = _dominating_pair(rng)
        c = b.shift(rng.randrange(2)) if rng.random() < 0.5 else _random_poly(rng, max_deg=3)
        if not dominates(a, b):
            yield f"trial {trial}: constructed pair does not dominate"
        if dominates(b, c) and not dominates(a, c):
            yield f"trial {trial}: transitivity broken"
        f2, g2 = _dominating_pair(rng)
        if not dominates(a + f2, b + g2):
            yield f"trial {trial}: additivity broken"
        i, j = sorted((rng.randrange(4), rng.randrange(4)))
        if not dominates(f.shift(j), f.shift(i)):
            yield f"trial {trial}: shift monotonicity broken"
    return f"{n_pairs} seeded random pairs (seed {seed})"


@_check("polydom", "order-implies-pointwise")
def check_order_implies_pointwise(n_pairs: int = 2000, seed: int = RNG_SEED) -> _Failures:
    rng = random.Random(seed + 1)
    for _ in range(n_pairs):
        f, g = _dominating_pair(rng)
        for r in range(1, 11):
            if f(r) < g(r):
                yield f"{f} dominates {g} but f({r}) < g({r})"
    return f"{n_pairs} dominating pairs evaluated at r = 1..10"


@_check("polydom", "pointwise-converse-regression")
def check_pointwise_converse_regression() -> _Failures:
    f, g = PolyN((1, 0, 0, 1)), PolyN((0, 1, 1))  # x^3+1 vs x^2+x
    if dominates(f, g):
        yield "x^3+1 must not dominate x^2+x (suffix sum at N=1 is 1 vs 2)"
    if any(f(r) < g(r) for r in range(1, 11)):
        yield "x^3+1 >= x^2+x pointwise should hold; counterexample broken"
    return "x^3+1 vs x^2+x: pointwise >= without dominance"


@_check("polydom", "family-chain")
def check_family_chain(n_max: int = 12) -> _Failures:
    for n in range(1, n_max + 1):
        f, g = polydom.f_poly(n), polydom.g_poly(n)
        h, i = polydom.h_poly(n), polydom.i_poly(n)
        if not dominates(g, h):
            yield f"n={n}: g does not dominate h"
        if not dominates(h, i):
            yield f"n={n}: h does not dominate i"
        if not dominates(f + g, h + i):
            yield f"n={n}: f+g does not dominate h+i"
    return f"n = 1..{n_max}"


@_check("polydom", "family-step-chain")
def check_family_step_chain(n_max: int = 12) -> _Failures:
    two_x = PolyN((0, 2))
    for n in range(1, n_max + 1):
        f, g = polydom.f_poly(n), polydom.g_poly(n)
        h, i = polydom.h_poly(n), polydom.i_poly(n)
        if not dominates(polydom.g_poly(n + 1), two_x * h + i):
            yield f"n={n}: g_{{n+1}} does not dominate 2x*h+i"
        if not dominates(polydom.h_poly(n + 1), f + g + g):
            yield f"n={n}: h_{{n+1}} does not dominate f+2g"
        if f.shift(1) + g != polydom.i_poly(n + 1):
            yield f"n={n}: x*f+g != i_{{n+1}}"
    return f"n = 1..{n_max}"


@_check("polydom", "word-column-match")
def check_word_column_match(n_max: int = 10) -> _Failures:
    for n in range(n_max + 1):
        word = "LR" * n + "L"
        if polydom.left_column_polys(word) != (polydom.f_poly(n), polydom.g_poly(n)):
            yield f"(LR)^{n}L column polynomials"
        if n >= 1:
            word2 = "RL" * n + "L"
            if polydom.left_column_polys(word2) != (polydom.h_poly(n), polydom.i_poly(n)):
                yield f"(RL)^{n}L column polynomials"
        for r in range(1, 6):
            params = MonoidParams(r, 1)
            m = word_to_matrix(word, params)
            f, g = polydom.left_column_polys(word)
            if (f(r), g(r)) != (m.a, m.c):
                yield f"(LR)^{n}L at u={r}: evaluation mismatch"
    return f"alternating words n <= {n_max}, evaluated at u = 1..5 against products"


@_check("polydom", "binomial-merge")
def check_binomial_merge(a_max: int = 6) -> _Failures:
    for a in range(1, a_max + 1):
        for b in range(2 * a - 2, 2 * a + 7):
            if not polydom.pascal_merge_check(a, b):
                yield f"a={a} b={b}"
    return f"a = 1..{a_max}, b = 2a-2..2a+6"


@_check("polydom", "fibonacci-poly-link")
def check_fibonacci_poly_link(n_max: int = 6) -> _Failures:
    # Fibonacci polynomials: P_1 = 1, P_2 = x, P_{m+1} = x*P_m + P_{m-1}.
    fib = [ZERO, ONE, X]
    for _ in range(2 * n_max):
        fib.append(fib[-1].shift(1) + fib[-2])
    for n in range(1, n_max + 1):
        f = polydom.f_poly(n)
        spread = [0] * (2 * f.degree + 1)
        spread[::2] = f.coeffs
        if PolyN(spread) != fib[2 * n + 1]:
            yield f"n={n}: f_poly(x^2) != fibonacci poly 2n+1"
    return f"f_poly(x^2) vs odd-index Fibonacci polynomial, n <= {n_max}"


# ---------------------------------------------------------------------------
# hash: worked values, the no-collision horizon, streaming laws


@_check("hash", "worked-example")
def check_hash_worked_example() -> _Failures:
    small = bsvhash.HashParams(2, 3, 5)
    d = bsvhash.hash_string(small, "01100")
    if (d.a, d.b, d.c, d.d) != (0, 1, 4, 3):
        yield f"mod 5 digest {d} != [[0,1],[4,3]]"
    if bsvhash.digest_hex(d, small) != "00010403":
        yield f"hex {bsvhash.digest_hex(d, small)} != 00010403"
    wide = bsvhash.HashParams(2, 3, 101)
    d2 = bsvhash.hash_string(wide, "01100")
    if (d2.a, d2.b, d2.c, d2.d) != (25, 6, 54, 13):
        yield f"mod 101 digest {d2} != [[25,6],[54,13]]"
    return "u=2 v=3: 01100 mod 5 and mod 101"


@_check("hash", "horizon-no-collision")
def check_horizon_no_collision() -> _Failures:
    for (u, v), p in product(HASH_GRID, HASH_PRIMES):
        params = bsvhash.HashParams(u, v, p)
        n0 = bsvhash.bound_n0(params)
        hit = bsvhash.exhaustive_collision_check(params, n0)
        if hit is not None:
            yield f"u={u} v={v} p={p}: collision {hit} within horizon {n0}"
    return f"(u,v) in {HASH_GRID}, p in {HASH_PRIMES}, all strings up to n0"


@_check("hash", "small-modulus-collision")
def check_small_modulus_collision() -> _Failures:
    params = bsvhash.HashParams(2, 3, 5)
    hit = bsvhash.exhaustive_collision_check(params, 5)
    if hit != ("", "00000"):
        yield f"expected ('', '00000'), got {hit}"
    return "u=2 v=3 p=5: first shortlex collision"


@_check("hash", "streaming-one-shot")
def check_streaming_one_shot(n_strings: int = 200, seed: int = RNG_SEED) -> _Failures:
    rng = random.Random(seed + 2)
    params = bsvhash.HashParams(2, 3, 101)
    for trial in range(n_strings):
        bits = [rng.randrange(2) for _ in range(rng.randrange(64))]
        one_shot = bsvhash.hash_string(params, bits)
        st = bsvhash.HashState(params)
        for b in bits:
            st.update_bit(b)
        if st.digest() != one_shot:
            yield f"trial {trial}: bitwise streaming differs"
        cut = rng.randrange(len(bits) + 1)
        st2 = bsvhash.HashState(params).update(bits[:cut]).update(bits[cut:])
        if st2.digest() != one_shot:
            yield f"trial {trial}: chunked streaming differs"
        if st2.bits_consumed != len(bits):
            yield f"trial {trial}: bit counter off"
    return f"{n_strings} seeded random strings"


@_check("hash", "unit-determinant")
def check_unit_determinant(n_strings: int = 200, seed: int = RNG_SEED) -> _Failures:
    rng = random.Random(seed + 3)
    for trial in range(n_strings):
        u, v = rng.randrange(1, 6), rng.randrange(1, 6)
        p = rng.choice(HASH_PRIMES)
        st = bsvhash.HashState(bsvhash.HashParams(u, v, p))
        for _ in range(rng.randrange(1, 48)):
            st.update_bit(rng.randrange(2))
            if (st.a * st.d - st.b * st.c) % p != 1:
                yield f"trial {trial}: determinant left the unit class"
                break
    return f"{n_strings} seeded random update streams"


@_check("hash", "below-horizon-exact")
def check_below_horizon_exact(seed: int = RNG_SEED) -> _Failures:
    params = bsvhash.HashParams(2, 3, BIG_PRIME)
    rng = random.Random(seed + 4)
    for trial in range(100):
        bits = [rng.randrange(2) for _ in range(rng.randrange(17))]
        word = "".join("L" if b == 0 else "R" for b in bits)
        m = word_to_matrix(word, params.monoid_params)
        d = bsvhash.hash_string(params, bits)
        if (d.a, d.b, d.c, d.d) != (m.a, m.b, m.c, m.d):
            yield f"trial {trial}: reduction altered an in-range product"
    return "100 strings of length <= 16 against exact integer products (p = 2^61-1)"


# ---------------------------------------------------------------------------

SUITE_NAMES = tuple(_SUITES)
# The depth knob sizes these suites; polydom and hash run fixed ranges.
_DEPTH_SUITES = ("formulas", "symmetry")
# Ceiling of the depth knob (verify --max-depth). Both depth suites grow
# with it; at this ceiling `verify --suite all` takes about 2 s
# (Python 3.11, 2 shared vCPU).
MAX_DEPTH = 300


def run_suite(name: str, max_depth: int) -> list[CheckResult]:
    """Run one named suite (or 'all') and return its check results.

    A max_depth that is not a nonnegative int, or is above MAX_DEPTH, raises
    InvalidParams before any check runs.
    """
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    require_int("max_depth", max_depth, 0)
    if max_depth > MAX_DEPTH:
        raise InvalidParams(f"--max-depth must be at most {MAX_DEPTH}, got {show(max_depth)}")
    results = []
    for key in SUITE_NAMES if name == "all" else (name,):
        args = (max_depth,) if key in _DEPTH_SUITES else ()
        results.extend(check(*args) for check in _SUITES[key])
    return results

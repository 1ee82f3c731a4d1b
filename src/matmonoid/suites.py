"""Self-contained verification suites behind the `verify` CLI subcommand.

Each check pits an independent computation against the library's fast
path (brute-force row enumeration vs Lucas evaluation, recurrence builds
vs binomial closed forms, symbolic entries vs integer products) and
reports one pass/fail line. The (u, v, n, p) grids are fixed constants
so runs are reproducible.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

from . import bsvhash, extremal, polydom, tree
from .errors import WitnessMismatch
from .matrix import IDENTITY, MonoidParams, mu, word_to_matrix
from .polydom import ONE, X, ZERO, PolyN, dominates

__all__ = [
    "CheckResult",
    "SUITE_NAMES",
    "run_suite",
    "suite_formulas",
    "suite_hash",
    "suite_polydom",
    "suite_symmetry",
]

# Parameter grids shared by the suites (documented in the CLI help).
WIDE_GRID = [(u, v) for u in range(1, 5) for v in range(1, 5)]
NARROW_GRID = [(u, v) for u in range(1, 4) for v in range(1, 4)]
HASH_GRID = [(1, 1), (2, 3), (3, 2), (2, 2)]
HASH_PRIMES = [101, 257, 1009]
RNG_SEED = 20260815

# A Mersenne prime far above every max entry reachable at depth 16 on the
# wide grid, so hashing mod it must reproduce the exact integer product.
BIG_PRIME = 2**61 - 1


@dataclass
class CheckResult:
    name: str
    scope: str
    passed: bool
    failures: list[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status} {self.name} ({self.scope})"
        if self.failures:
            out += "\n" + "\n".join(f"    {f}" for f in self.failures[:5])
            if len(self.failures) > 5:
                out += f"\n    ... and {len(self.failures) - 5} more"
        return out


def _result(name: str, scope: str, failures: list[str]) -> CheckResult:
    return CheckResult(name, scope, not failures, failures)


# ---------------------------------------------------------------------------
# formulas: exact max-entry values against enumeration and radical forms


def check_max_entry_oracle(max_depth: int) -> CheckResult:
    depth = min(max_depth, 16)
    failures = []
    for u, v in WIDE_GRID:
        params = MonoidParams(u, v)
        for n in range(depth + 1):
            fast = extremal.mu_depth(params, n)
            slow = tree.mu_row_bruteforce(params, n)
            if fast != slow:
                failures.append(f"u={u} v={v} n={n}: lucas {fast} != brute {slow}")
    return _result("max-entry-oracle", f"(u,v) in [1..4]^2, depth <= {depth}", failures)


def check_radical_closed_form(max_depth: int) -> CheckResult:
    failures = []
    for u, v in NARROW_GRID:
        params = MonoidParams(u, v)
        for n in range(max_depth + 1):
            for parity, depth in (("odd", 2 * n + 1), ("even", 2 * n + 2)):
                exact = extremal.mu_depth(params, depth)
                approx = extremal.closed_form_float(params, n, parity)
                if abs(approx - exact) / exact >= 1e-9:
                    failures.append(
                        f"u={u} v={v} depth={depth}: {approx} vs exact {exact}"
                    )
    return _result(
        "radical-closed-form",
        f"(u,v) in [1..3]^2, n <= {max_depth}, both parities, rel tol 1e-9",
        failures,
    )


def check_uv_symmetry(max_depth: int) -> CheckResult:
    top = 2 * max_depth + 2
    failures = []
    for u, v in WIDE_GRID:
        a, b = MonoidParams(u, v), MonoidParams(v, u)
        for n in range(top + 1):
            if extremal.mu_depth(a, n) != extremal.mu_depth(b, n):
                failures.append(f"u={u} v={v} n={n}")
    return _result("max-entry-uv-symmetric", f"(u,v) in [1..4]^2, depth <= {top}", failures)


def check_monotonicity(max_depth: int) -> CheckResult:
    top = 2 * max_depth + 2
    failures = []
    for u, v in WIDE_GRID:
        params = MonoidParams(u, v)
        values = [extremal.mu_depth(params, n) for n in range(top + 1)]
        for n in range(1, top):
            if not values[n] < values[n + 1]:
                failures.append(f"u={u} v={v}: mu({n})={values[n]} !< mu({n + 1})={values[n + 1]}")
        if values[0] > values[1]:
            failures.append(f"u={u} v={v}: mu(0) > mu(1)")
    return _result(
        "max-entry-monotone", f"(u,v) in [1..4]^2, strict from depth 1 to {top}", failures
    )


def check_witness_attainment(max_depth: int) -> CheckResult:
    top = 2 * max_depth
    failures = []
    for u, v in WIDE_GRID:
        params = MonoidParams(u, v)
        for n in range(1, top + 1):
            try:
                w = extremal.witness(params, n)
            except WitnessMismatch as e:
                failures.append(str(e))
                continue
            r, c = w.position
            if w.matrix.rows()[r - 1][c - 1] != w.value:
                failures.append(f"u={u} v={v} n={n}: position/value disagree")
    return _result("witness-attainment", f"(u,v) in [1..4]^2, depth 1..{top}", failures)


def check_alternating_column(max_depth: int) -> CheckResult:
    failures = []
    for u, v in NARROW_GRID:
        params = MonoidParams(u, v)
        cf = extremal.closed_form_params(params, 1, u)
        for n in range(max_depth + 1):
            pair = extremal.alpha_gamma(params, 1, u, n)
            m = word_to_matrix("LR" * n + "L", params)
            if (pair.alpha, pair.gamma) != (m.a, m.c):
                failures.append(
                    f"u={u} v={v} n={n}: alpha_gamma ({pair.alpha},{pair.gamma}) "
                    f"!= product column ({m.a},{m.c})"
                )
            for exact, approx in ((pair.alpha, cf.alpha_float(n)), (pair.gamma, cf.gamma_float(n))):
                if abs(approx - exact) / exact >= 1e-9:
                    failures.append(f"u={u} v={v} n={n}: float {approx} vs {exact}")
    return _result(
        "alternating-column",
        f"(u,v) in [1..3]^2, n <= {max_depth}, start column (1,u), rel tol 1e-9",
        failures,
    )


def check_fibonacci_like_link(max_depth: int) -> CheckResult:
    top = 2 * max_depth + 2
    failures = []
    for u, v in WIDE_GRID:
        s, t = min(u, v), max(u, v)
        if s == 1 and t > 1:
            continue
        params = MonoidParams(u, v)
        oriented = MonoidParams(s, t)
        for n in range(top + 1):
            if extremal.fseq(oriented, n + 1) != extremal.mu_depth(params, n):
                failures.append(f"u={u} v={v} n={n}")
    return _result(
        "fibonacci-like-link",
        f"(u,v) in [1..4]^2 with min>1 or u=v=1, offset 1, depth <= {top}",
        failures,
    )


def check_lucas_pairs(max_depth: int) -> CheckResult:
    top = 2 * max_depth + 2
    failures = []
    for P in range(3, 12):
        U2, U1 = 0, 1  # U_0, U_1 by the plain recurrence
        V2, V1 = 2, P
        for m in range(top + 1):
            pair = extremal.lucas(P, m)
            if pair.V**2 - (P * P - 4) * pair.U**2 != 4:
                failures.append(f"P={P} m={m}: pair identity broken")
            if (pair.U, pair.V) != (U2, V2):
                failures.append(f"P={P} m={m}: doubling {pair.U},{pair.V} != recurrence {U2},{V2}")
            U2, U1 = U1, P * U1 - U2
            V2, V1 = V1, P * V1 - V2
    return _result("lucas-pairs", f"P in [3..11], m <= {top}, doubling vs recurrence", failures)


def suite_formulas(max_depth: int) -> list[CheckResult]:
    return [
        check_max_entry_oracle(max_depth),
        check_radical_closed_form(max_depth),
        check_uv_symmetry(max_depth),
        check_monotonicity(max_depth),
        check_witness_attainment(max_depth),
        check_alternating_column(max_depth),
        check_fibonacci_like_link(max_depth),
        check_lucas_pairs(max_depth),
    ]


# ---------------------------------------------------------------------------
# symmetry: tree mirror identities, classification, entry structure


def _row_mats(params: MonoidParams, n: int) -> list:
    return list(tree.row(IDENTITY, params, n))


def check_mirror_symmetry(max_depth: int) -> CheckResult:
    depth = min(max_depth, 12)
    failures = []
    for u, v in NARROW_GRID:
        params, swapped = MonoidParams(u, v), MonoidParams(v, u)
        for n in range(depth + 1):
            cells = _row_mats(params, n)
            mirror = _row_mats(swapped, n)
            size = 1 << n
            for i in range(size):
                if cells[i] != tree.antitranspose(mirror[size - 1 - i]):
                    failures.append(f"u={u} v={v} n={n} i={i + 1}")
                    break
    return _result(
        "mirror-symmetry", f"(u,v) in [1..3]^2, depth <= {depth}, all cells", failures
    )


def check_entry_poly_flip(max_depth: int) -> CheckResult:
    depth = min(max_depth, 8)
    failures = []
    for n in range(depth + 1):
        size = 1 << n
        polys = [tree.entry_polys(tree.cell_word(n, i)) for i in range(1, size + 1)]
        for i in range(size):
            (f1, f2), (f3, f4) = polys[size - 1 - i]
            flipped = (
                (f4.swap_vars(), f3.swap_vars()),
                (f2.swap_vars(), f1.swap_vars()),
            )
            if flipped != polys[i]:
                failures.append(f"n={n} i={i + 1}")
    return _result("entry-poly-flip", f"all cells, depth <= {depth}", failures)


def check_left_half_dominance(max_depth: int) -> CheckResult:
    depth = min(max_depth, 12)
    failures = []
    pairs = [(u, v) for u, v in NARROW_GRID if u >= v]
    for u, v in pairs:
        params = MonoidParams(u, v)
        for n in range(1, depth + 1):
            mus = [mu(m) for m in _row_mats(params, n)]
            size = 1 << n
            for i in range(size // 2):
                if mus[size - 1 - i] > mus[i]:
                    failures.append(f"u={u} v={v} n={n} i={i + 1}")
                    break
    return _result(
        "left-half-dominance",
        f"(u,v) in [1..3]^2 with u >= v, depth <= {depth}, left-half cells",
        failures,
    )


def check_column_max(max_depth: int) -> CheckResult:
    depth = min(max_depth, 8)
    failures = []
    for u, v in NARROW_GRID:
        params = MonoidParams(u, v)
        for n in range(1, depth + 1):
            for letters in product("LR", repeat=n):
                word = "".join(letters)
                m = word_to_matrix(word, params)
                expect = max(m.a, m.c) if word.endswith("L") else max(m.b, m.d)
                if mu(m) != expect:
                    failures.append(f"u={u} v={v} word={word}")
    return _result(
        "column-max",
        f"(u,v) in [1..3]^2, all words of depth 1..{depth}, column by last letter",
        failures,
    )


def check_single_peel_class(max_depth: int) -> CheckResult:
    depth = min(max_depth, 10)
    failures = []
    for u, v in NARROW_GRID:
        params = MonoidParams(u, v)
        if tree.classify(IDENTITY, params) is not tree.DominanceClass.NEITHER:
            failures.append(f"u={u} v={v}: identity not NEITHER")
        for n in range(1, depth + 1):
            for m in _row_mats(params, n):
                cls = tree.classify(m, params)
                if cls not in (
                    tree.DominanceClass.U_LOWER_DOMINANT,
                    tree.DominanceClass.V_UPPER_DOMINANT,
                ):
                    failures.append(f"u={u} v={v} n={n}: {m.rows()} classified {cls.name}")
    return _result(
        "single-peel-class",
        f"(u,v) in [1..3]^2, depth 1..{depth}: exactly one generator peels",
        failures,
    )


def check_entry_poly_structure(max_depth: int) -> CheckResult:
    depth = min(max_depth, 10)
    eval_points = [(2, 3), (1, 4)]
    failures = []
    for n in range(depth + 1):
        for letters in product("LR", repeat=n):
            word = "".join(letters)
            (f1, f2), (f3, f4) = tree.entry_polys(word)
            ok = (
                all(i == j for (i, j), _ in f1.terms())
                and all(i == j for (i, j), _ in f4.terms())
                and all(j == i + 1 for (i, j), _ in f2.terms())
                and all(i == j + 1 for (i, j), _ in f3.terms())
                and max(f.total_degree for f in (f1, f2, f3, f4)) <= n
            )
            if not ok:
                failures.append(f"structure broken for word {word}")
                continue
            for u, v in eval_points:
                m = word_to_matrix(word, MonoidParams(u, v))
                if (f1(u, v), f2(u, v), f3(u, v), f4(u, v)) != (m.a, m.b, m.c, m.d):
                    failures.append(f"word {word} at u={u} v={v}: evaluation mismatch")
    return _result(
        "entry-poly-structure",
        f"all words of depth <= {depth}; balanced/degree shape and evaluation",
        failures,
    )


def check_left_column_bound(max_depth: int) -> CheckResult:
    top = min((max_depth - 1) // 2, 7)
    failures = []
    for u, v in WIDE_GRID:
        params = MonoidParams(u, v)
        # The bound lives on the left column when u >= v; the mirror tree
        # carries it on the right column otherwise.
        oriented = params if u >= v else params.swapped()
        for n in range(top + 1):
            pair = extremal.alpha_gamma(oriented, 1, oriented.u, n)
            best_entry = best_sum = 0
            for m in _row_mats(params, 2 * n + 1):
                x, y = (m.a, m.c) if u >= v else (m.b, m.d)
                best_entry = max(best_entry, x, y)
                best_sum = max(best_sum, x + y)
            if best_entry != pair.gamma:
                failures.append(
                    f"u={u} v={v} n={n}: column max {best_entry} != gamma {pair.gamma}"
                )
            if best_sum != pair.alpha + pair.gamma:
                failures.append(
                    f"u={u} v={v} n={n}: column sum {best_sum} != {pair.alpha + pair.gamma}"
                )
    return _result(
        "left-column-bound",
        f"(u,v) in [1..4]^2, odd depths <= {2 * top + 1}: dominant column capped by "
        "the alternating-word column, with equality attained",
        failures,
    )


def suite_symmetry(max_depth: int) -> list[CheckResult]:
    return [
        check_mirror_symmetry(max_depth),
        check_entry_poly_flip(max_depth),
        check_left_half_dominance(max_depth),
        check_column_max(max_depth),
        check_single_peel_class(max_depth),
        check_entry_poly_structure(max_depth),
        check_left_column_bound(max_depth),
    ]


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


def check_family_closed_forms(n_max: int = 20) -> CheckResult:
    fs, gs, hs, is_ = _families_by_recurrence(n_max)
    failures = []
    for n in range(n_max + 1):
        if polydom.f_poly(n) != fs[n]:
            failures.append(f"f_poly({n})")
        if polydom.g_poly(n) != gs[n]:
            failures.append(f"g_poly({n})")
        if n >= 1:
            if polydom.h_poly(n) != hs[n]:
                failures.append(f"h_poly({n})")
            if polydom.i_poly(n) != is_[n]:
                failures.append(f"i_poly({n})")
    return _result(
        "family-closed-forms", f"binomial vs recurrence build, n <= {n_max}", failures
    )


def check_order_laws(n_pairs: int = 2000, seed: int = RNG_SEED) -> CheckResult:
    rng = random.Random(seed)
    failures = []
    for trial in range(n_pairs):
        f, g = _random_poly(rng), _random_poly(rng)
        if not dominates(f, f):
            failures.append(f"trial {trial}: reflexivity broken for {f}")
        if dominates(f, g) and dominates(g, f) and f != g:
            failures.append(f"trial {trial}: antisymmetry broken")
        if dominates(f, g) and f.degree < g.degree:
            failures.append(f"trial {trial}: degree must not drop under dominance")
        # Pointwise-coefficient comparison is a sufficient condition.
        width = max(len(f.coeffs), len(g.coeffs))
        if all(f.coefficient(i) >= g.coefficient(i) for i in range(width)) and not dominates(f, g):
            failures.append(f"trial {trial}: coefficientwise >= did not imply dominance")
        # Constructed chains exercise transitivity and additivity.
        a, b = _dominating_pair(rng)
        c = b.shift(rng.randrange(2)) if rng.random() < 0.5 else _random_poly(rng, max_deg=3)
        if not dominates(a, b):
            failures.append(f"trial {trial}: constructed pair does not dominate")
        if dominates(b, c) and not dominates(a, c):
            failures.append(f"trial {trial}: transitivity broken")
        f2, g2 = _dominating_pair(rng)
        if not dominates(a + f2, b + g2):
            failures.append(f"trial {trial}: additivity broken")
        i, j = sorted((rng.randrange(4), rng.randrange(4)))
        if not dominates(f.shift(j), f.shift(i)):
            failures.append(f"trial {trial}: shift monotonicity broken")
    return _result("order-laws", f"{n_pairs} seeded random pairs (seed {seed})", failures)


def check_order_implies_pointwise(n_pairs: int = 2000, seed: int = RNG_SEED) -> CheckResult:
    rng = random.Random(seed + 1)
    failures = []
    checked = 0
    for _ in range(n_pairs):
        f, g = _dominating_pair(rng)
        checked += 1
        for r in range(1, 11):
            if f(r) < g(r):
                failures.append(f"{f} dominates {g} but f({r}) < g({r})")
    return _result(
        "order-implies-pointwise",
        f"{checked} dominating pairs evaluated at r = 1..10",
        failures,
    )


def check_pointwise_converse_regression() -> CheckResult:
    f, g = PolyN((1, 0, 0, 1)), PolyN((0, 1, 1))  # x^3+1 vs x^2+x
    failures = []
    if dominates(f, g):
        failures.append("x^3+1 must not dominate x^2+x (suffix sum at N=1 is 1 vs 2)")
    if any(f(r) < g(r) for r in range(1, 11)):
        failures.append("x^3+1 >= x^2+x pointwise should hold; counterexample broken")
    return _result(
        "pointwise-converse-regression", "x^3+1 vs x^2+x: pointwise >= without dominance", failures
    )


def check_family_chain(n_max: int = 12) -> CheckResult:
    failures = []
    for n in range(1, n_max + 1):
        f, g = polydom.f_poly(n), polydom.g_poly(n)
        h, i = polydom.h_poly(n), polydom.i_poly(n)
        if not dominates(g, h):
            failures.append(f"n={n}: g does not dominate h")
        if not dominates(h, i):
            failures.append(f"n={n}: h does not dominate i")
        if not dominates(f + g, h + i):
            failures.append(f"n={n}: f+g does not dominate h+i")
    return _result("family-chain", f"n = 1..{n_max}", failures)


def check_family_step_chain(n_max: int = 12) -> CheckResult:
    two_x = PolyN((0, 2))
    failures = []
    for n in range(1, n_max + 1):
        f, g = polydom.f_poly(n), polydom.g_poly(n)
        h, i = polydom.h_poly(n), polydom.i_poly(n)
        if not dominates(polydom.g_poly(n + 1), two_x * h + i):
            failures.append(f"n={n}: g_{{n+1}} does not dominate 2x*h+i")
        if not dominates(polydom.h_poly(n + 1), f + g + g):
            failures.append(f"n={n}: h_{{n+1}} does not dominate f+2g")
        if f.shift(1) + g != polydom.i_poly(n + 1):
            failures.append(f"n={n}: x*f+g != i_{{n+1}}")
    return _result("family-step-chain", f"n = 1..{n_max}", failures)


def check_word_column_match(n_max: int = 10) -> CheckResult:
    failures = []
    for n in range(n_max + 1):
        word = "LR" * n + "L"
        if polydom.left_column_polys(word) != (polydom.f_poly(n), polydom.g_poly(n)):
            failures.append(f"(LR)^{n}L column polynomials")
        if n >= 1:
            word2 = "RL" * n + "L"
            if polydom.left_column_polys(word2) != (polydom.h_poly(n), polydom.i_poly(n)):
                failures.append(f"(RL)^{n}L column polynomials")
        for r in range(1, 6):
            params = MonoidParams(r, 1)
            m = word_to_matrix(word, params)
            f, g = polydom.left_column_polys(word)
            if (f(r), g(r)) != (m.a, m.c):
                failures.append(f"(LR)^{n}L at u={r}: evaluation mismatch")
    return _result(
        "word-column-match",
        f"alternating words n <= {n_max}, evaluated at u = 1..5 against products",
        failures,
    )


def check_binomial_merge(a_max: int = 6) -> CheckResult:
    failures = []
    for a in range(1, a_max + 1):
        for b in range(2 * a - 2, 2 * a + 7):
            if not polydom.pascal_merge_check(a, b):
                failures.append(f"a={a} b={b}")
    return _result("binomial-merge", f"a = 1..{a_max}, b = 2a-2..2a+6", failures)


def check_fibonacci_poly_link(n_max: int = 6) -> CheckResult:
    # Fibonacci polynomials: P_1 = 1, P_2 = x, P_{m+1} = x*P_m + P_{m-1}.
    fib = [ZERO, ONE, X]
    for _ in range(2 * n_max):
        fib.append(fib[-1].shift(1) + fib[-2])
    failures = []
    for n in range(1, n_max + 1):
        f = polydom.f_poly(n)
        spread = [0] * (2 * f.degree + 1)
        for k, coeff in enumerate(f.coeffs):
            spread[2 * k] = coeff
        if PolyN(spread) != fib[2 * n + 1]:
            failures.append(f"n={n}: f_poly(x^2) != fibonacci poly 2n+1")
    return _result(
        "fibonacci-poly-link", f"f_poly(x^2) vs odd-index Fibonacci polynomial, n <= {n_max}", failures
    )


def suite_polydom(max_depth: int) -> list[CheckResult]:
    del max_depth  # fixed ranges; the depth knob applies to tree suites
    return [
        check_family_closed_forms(),
        check_order_laws(),
        check_order_implies_pointwise(),
        check_pointwise_converse_regression(),
        check_family_chain(),
        check_family_step_chain(),
        check_word_column_match(),
        check_binomial_merge(),
        check_fibonacci_poly_link(),
    ]


# ---------------------------------------------------------------------------
# hash: worked values, the no-collision horizon, streaming laws


def check_hash_worked_example() -> CheckResult:
    failures = []
    small = bsvhash.HashParams(2, 3, 5)
    d = bsvhash.hash_string(small, "01100")
    if (d.a, d.b, d.c, d.d) != (0, 1, 4, 3):
        failures.append(f"mod 5 digest {d} != [[0,1],[4,3]]")
    if bsvhash.digest_hex(d, small) != "00010403":
        failures.append(f"hex {bsvhash.digest_hex(d, small)} != 00010403")
    wide = bsvhash.HashParams(2, 3, 101)
    d2 = bsvhash.hash_string(wide, "01100")
    if (d2.a, d2.b, d2.c, d2.d) != (25, 6, 54, 13):
        failures.append(f"mod 101 digest {d2} != [[25,6],[54,13]]")
    return _result("worked-example", "u=2 v=3: 01100 mod 5 and mod 101", failures)


def check_horizon_no_collision() -> CheckResult:
    failures = []
    for (u, v), p in product(HASH_GRID, HASH_PRIMES):
        params = bsvhash.HashParams(u, v, p)
        n0 = bsvhash.bound_n0(params)
        hit = bsvhash.exhaustive_collision_check(params, n0)
        if hit is not None:
            failures.append(f"u={u} v={v} p={p}: collision {hit} within horizon {n0}")
    return _result(
        "horizon-no-collision",
        f"(u,v) in {HASH_GRID}, p in {HASH_PRIMES}, all strings up to n0",
        failures,
    )


def check_small_modulus_collision() -> CheckResult:
    params = bsvhash.HashParams(2, 3, 5)
    hit = bsvhash.exhaustive_collision_check(params, 5)
    failures = []
    if hit != ("", "00000"):
        failures.append(f"expected ('', '00000'), got {hit}")
    return _result(
        "small-modulus-collision", "u=2 v=3 p=5: first shortlex collision", failures
    )


def check_streaming_one_shot(n_strings: int = 200, seed: int = RNG_SEED) -> CheckResult:
    rng = random.Random(seed + 2)
    params = bsvhash.HashParams(2, 3, 101)
    failures = []
    for trial in range(n_strings):
        bits = [rng.randrange(2) for _ in range(rng.randrange(64))]
        one_shot = bsvhash.hash_string(params, bits)
        st = bsvhash.HashState(params)
        for b in bits:
            st.update_bit(b)
        if st.digest() != one_shot:
            failures.append(f"trial {trial}: bitwise streaming differs")
        cut = rng.randrange(len(bits) + 1)
        st2 = bsvhash.HashState(params).update(bits[:cut]).update(bits[cut:])
        if st2.digest() != one_shot:
            failures.append(f"trial {trial}: chunked streaming differs")
        if st2.bits_consumed != len(bits):
            failures.append(f"trial {trial}: bit counter off")
    return _result("streaming-one-shot", f"{n_strings} seeded random strings", failures)


def check_unit_determinant(n_strings: int = 200, seed: int = RNG_SEED) -> CheckResult:
    rng = random.Random(seed + 3)
    failures = []
    for trial in range(n_strings):
        u, v = rng.randrange(1, 6), rng.randrange(1, 6)
        p = rng.choice(HASH_PRIMES)
        st = bsvhash.HashState(bsvhash.HashParams(u, v, p))
        for _ in range(rng.randrange(1, 48)):
            st.update_bit(rng.randrange(2))
            if (st.a * st.d - st.b * st.c) % p != 1:
                failures.append(f"trial {trial}: determinant left the unit class")
                break
    return _result("unit-determinant", f"{n_strings} seeded random update streams", failures)


def check_below_horizon_exact(seed: int = RNG_SEED) -> CheckResult:
    params = bsvhash.HashParams(2, 3, BIG_PRIME)
    rng = random.Random(seed + 4)
    failures = []
    for trial in range(100):
        bits = [rng.randrange(2) for _ in range(rng.randrange(17))]
        word = "".join("L" if b == 0 else "R" for b in bits)
        m = word_to_matrix(word, params.monoid_params)
        d = bsvhash.hash_string(params, bits)
        if (d.a, d.b, d.c, d.d) != (m.a, m.b, m.c, m.d):
            failures.append(f"trial {trial}: reduction altered an in-range product")
    return _result(
        "below-horizon-exact",
        "100 strings of length <= 16 against exact integer products (p = 2^61-1)",
        failures,
    )


def suite_hash(max_depth: int) -> list[CheckResult]:
    del max_depth
    return [
        check_hash_worked_example(),
        check_horizon_no_collision(),
        check_small_modulus_collision(),
        check_streaming_one_shot(),
        check_unit_determinant(),
        check_below_horizon_exact(),
    ]


# ---------------------------------------------------------------------------

SUITE_NAMES = ("formulas", "symmetry", "polydom", "hash")
_SUITES = {
    "formulas": suite_formulas,
    "symmetry": suite_symmetry,
    "polydom": suite_polydom,
    "hash": suite_hash,
}


def run_suite(name: str, max_depth: int) -> list[CheckResult]:
    """Run one named suite (or 'all') and return its check results."""
    if name == "all":
        results = []
        for key in SUITE_NAMES:
            results.extend(_SUITES[key](max_depth))
        return results
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return _SUITES[name](max_depth)

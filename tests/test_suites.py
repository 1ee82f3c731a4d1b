"""Every `verify` check can fail: each one, with the library call it compares
broken, must report FAIL, and each of its failure lines must be reachable."""
import pytest

from matmonoid import bsvhash, extremal, polydom, suites, tree
from matmonoid.bsvhash import Digest, HashState
from matmonoid.extremal import AlphaGammaPair, LucasPair, Witness
from matmonoid.matrix import MonoidParams
from matmonoid.polydom import ONE, ZERO, BiPolyN, PolyN

# The unpatched library calls, captured before any test patches them.
mu_depth, witness, alpha_gamma, lucas = (
    extremal.mu_depth, extremal.witness, extremal.alpha_gamma, extremal.lucas)
closed_form_float, fseq = extremal.closed_form_float, extremal.fseq
mu_row_bruteforce, entry_polys = tree.mu_row_bruteforce, tree.entry_polys
row_cells = tree._row_cells
dominates, evaluate, update = suites.dominates, PolyN.__call__, HashState.update


def plus_one(f):
    return lambda *args: f(*args) + 1


def alpha_gamma_plus_one(params, a, c, n):
    pair = alpha_gamma(params, a, c, n)
    return AlphaGammaPair(n, pair.alpha + 1, pair.gamma + 1)


def transposed_witness(params, n):
    w = witness(params, n)
    return Witness(w.word, w.matrix, w.position[::-1], w.value)


def zero_digest(params, bits):
    return Digest(0, 0, 0, 0)


# Each check -> (patches, lines): a patch is (owner, attribute, replacement),
# lines[0] must be the first failure, and every line, one for each failure
# text the check can yield, must be among the failures.
CASES = {
    suites.check_max_entry_oracle: (
        [(tree, "mu_row_bruteforce", plus_one(mu_row_bruteforce))],
        ["u=1 v=1 n=0: lucas 1 != brute 2"]),
    suites.check_radical_closed_form: (
        [(extremal, "closed_form_float", plus_one(closed_form_float))],
        ["u=1 v=1 depth=1: 2.000000000000000000000000000 vs exact 1"]),
    # mu_depth reads only min(u, v) and max(u, v); one that reads the
    # orientation must break the symmetry check.
    suites.check_uv_symmetry: (
        [(extremal, "mu_depth", lambda params, n: mu_depth(params, n) + (params.u > params.v))],
        ["u=1 v=2 n=0"]),
    suites.check_monotonicity: (
        [(extremal, "mu_depth", lambda params, n: -n)],
        ["u=1 v=1: mu(1)=-1 !< mu(2)=-2", "u=1 v=1: mu(0) > mu(1)"]),
    # A witness at the transposed position, and a depth-2 maximum that no
    # witness attains, which witness() itself refuses.
    suites.check_witness_attainment: (
        [(extremal, "witness", transposed_witness),
         (extremal, "mu_depth", lambda params, n: mu_depth(params, n) + (n == 2))],
        ["u=1 v=1 n=1: position/value disagree",
         "word LL for u=1, v=1, depth 2: entry (2, 1) is 2, matrix max is 2, "
         "but the depth maximum is 3"]),
    suites.check_alternating_column: (
        [(extremal, "alpha_gamma", alpha_gamma_plus_one)],
        ["u=1 v=1 n=0: alpha_gamma (2,2) != product column (1,1)",
         "u=1 v=1 n=0: float 1.000000000000000000000000000000000000 vs 2"]),
    suites.check_fibonacci_like_link: (
        [(extremal, "fseq", plus_one(fseq))],
        ["u=1 v=1 n=0"]),
    suites.check_lucas_pairs: (
        [(extremal, "lucas", lambda P, m: LucasPair(P, m, lucas(P, m).U + 1, lucas(P, m).V))],
        ["P=3 m=0: pair identity broken", "P=3 m=0: doubling 1,2 != recurrence 0,2"]),
    # The symmetry checks read cells from the lazy row walk: one that steps R_(v+1)
    # for R_v breaks the mirror, and one that walks right to left, the dominance.
    suites.check_mirror_symmetry: (
        [(tree, "_row_cells",
          lambda root, params, n: row_cells(root, MonoidParams(params.u, params.v + 1), n))],
        ["u=1 v=1 n=1 i=1"]),
    suites.check_entry_poly_flip: (
        [(BiPolyN, "swap_vars", lambda f: f)],
        ["n=1 i=1"]),
    suites.check_left_half_dominance: (
        [(tree, "_row_cells", lambda root, params, n: reversed(list(row_cells(root, params, n))))],
        ["u=2 v=1 n=1 i=1"]),
    suites.check_column_max: (
        [(suites, "mu", lambda m: 0)],
        ["u=1 v=1 word=L"]),
    suites.check_single_peel_class: (
        [(tree, "classify", lambda m, params: tree.DominanceClass.BOTH)],
        ["u=1 v=1: identity not NEITHER", "u=1 v=1 n=1: ((1, 0), (1, 1)) classified BOTH"]),
    # The entries of the doubled word: L's are shaped right but evaluate wrong,
    # LR's have degree 4.
    suites.check_entry_poly_structure: (
        [(tree, "entry_polys", lambda word: entry_polys(word * 2))],
        ["word L at u=2 v=3: evaluation mismatch", "structure broken for word LR"]),
    suites.check_left_column_bound: (
        [(extremal, "alpha_gamma", alpha_gamma_plus_one)],
        ["u=1 v=1 n=0: column max 1 != gamma 2", "u=1 v=1 n=0: column sum 2 != 4"]),
    suites.check_family_closed_forms: (
        [(polydom, name, lambda n: ZERO) for name in ("f_poly", "g_poly", "h_poly", "i_poly")],
        ["f_poly(0)", "g_poly(0)", "h_poly(1)", "i_poly(1)"]),
    suites.check_order_laws: (
        [(suites, "dominates", lambda f, g: not dominates(f, g))],
        ["trial 0: reflexivity broken for 8x", "trial 16: antisymmetry broken",
         "trial 0: degree must not drop under dominance",
         "trial 9: coefficientwise >= did not imply dominance",
         "trial 0: constructed pair does not dominate", "trial 0: transitivity broken",
         "trial 0: additivity broken", "trial 0: shift monotonicity broken"]),
    suites.check_order_implies_pointwise: (
        [(PolyN, "__call__", lambda f, r: -evaluate(f, r))],
        ["5x^8 + 2x^7 + 6x^6 + 5x^5 + 4x^3 + 8x^2 + 8x + 3 dominates "
         "5x^7 + 2x^6 + 6x^5 + 5x^4 + 4x^2 + 7x + 5 but f(1) < g(1)"]),
    suites.check_pointwise_converse_regression: (
        [(suites, "dominates", lambda f, g: True), (PolyN, "__call__", lambda f, r: -evaluate(f, r))],
        ["x^3+1 must not dominate x^2+x (suffix sum at N=1 is 1 vs 2)",
         "x^3+1 >= x^2+x pointwise should hold; counterexample broken"]),
    suites.check_family_chain: (
        [(suites, "dominates", lambda f, g: False)],
        ["n=1: g does not dominate h", "n=1: h does not dominate i",
         "n=1: f+g does not dominate h+i"]),
    suites.check_family_step_chain: (
        [(suites, "dominates", lambda f, g: False), (polydom, "i_poly", lambda n: ZERO)],
        ["n=1: g_{n+1} does not dominate 2x*h+i", "n=1: h_{n+1} does not dominate f+2g",
         "n=1: x*f+g != i_{n+1}"]),
    suites.check_word_column_match: (
        [(polydom, "left_column_polys", lambda word: (ZERO, ZERO))],
        ["(LR)^0L column polynomials", "(RL)^1L column polynomials",
         "(LR)^0L at u=1: evaluation mismatch"]),
    suites.check_binomial_merge: (
        [(polydom, "pascal_merge_check", lambda a, b: False)],
        ["a=1 b=0"]),
    suites.check_fibonacci_poly_link: (
        [(polydom, "f_poly", lambda n: ONE)],
        ["n=1: f_poly(x^2) != fibonacci poly 2n+1"]),
    suites.check_hash_worked_example: (
        [(bsvhash, "hash_string", zero_digest)],
        ["mod 5 digest Digest(a=0, b=0, c=0, d=0) != [[0,1],[4,3]]",
         "hex 00000000 != 00010403",
         "mod 101 digest Digest(a=0, b=0, c=0, d=0) != [[25,6],[54,13]]"]),
    suites.check_horizon_no_collision: (
        [(bsvhash, "exhaustive_collision_check", lambda params, max_len: ("", "0"))],
        ["u=1 v=1 p=101: collision ('', '0') within horizon 10"]),
    suites.check_small_modulus_collision: (
        [(bsvhash, "exhaustive_collision_check", lambda params, max_len: None)],
        ["expected ('', '00000'), got None"]),
    # update drops the last bit of each chunk, so hash_string does too.
    suites.check_streaming_one_shot: (
        [(HashState, "update", lambda state, bits: update(state, list(bits)[:-1]))],
        ["trial 0: bitwise streaming differs", "trial 1: chunked streaming differs",
         "trial 0: bit counter off"]),
    suites.check_unit_determinant: (
        [(HashState, "update_bit", lambda state, bit: setattr(state, "a", 0))],
        ["trial 0: determinant left the unit class"]),
    suites.check_below_horizon_exact: (
        [(bsvhash, "hash_string", zero_digest)],
        ["trial 0: reduction altered an in-range product"]),
}


@pytest.mark.parametrize("suite,check", [
    (suite, check) for suite, checks in suites._SUITES.items() for check in checks
], ids=lambda x: getattr(x, "__name__", x))
def test_every_check_can_fail(monkeypatch, suite, check):
    patches, lines = CASES[check]
    for owner, name, replacement in patches:
        monkeypatch.setattr(owner, name, replacement)
    result = check(2) if suite in suites._DEPTH_SUITES else check()
    assert (result.passed, result.failures[0]) == (False, lines[0])
    assert set(lines) <= set(result.failures)

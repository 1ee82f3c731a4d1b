"""Tree rows, random cell access, vertex classification, and the
antitranspose / entry-polynomial symmetries."""
import itertools
import os
import resource
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

import matmonoid
from matmonoid import (
    IDENTITY,
    BiPolyN,
    DominanceClass,
    IndexOutOfRange,
    InvalidParams,
    LimitExceeded,
    Mat2,
    MonoidParams,
    TreeRow,
    antitranspose,
    cell,
    cell_word,
    children,
    classify,
    entry_polys,
    lmat,
    mu,
    mu_row_bruteforce,
    rmat,
    row,
    word_to_matrix,
)
from matmonoid import polydom, suites, tree
from matmonoid.errors import ENUM_LIMIT_ENV, OUTPUT_LIMIT_ENV
from matmonoid.extremal import mu_depth

P23 = MonoidParams(2, 3)

words = st.text(alphabet="LR", max_size=12)
small_params = st.builds(MonoidParams, st.integers(1, 5), st.integers(1, 5))


def all_words(max_len):
    for n in range(max_len + 1):
        for letters in itertools.product("LR", repeat=n):
            yield "".join(letters)


def entry_polys_by_shift_and_add(word):
    """Reference: the fold on BiPolyN.shift and + that entry_polys replaced
    with coefficient lists, a new BiPolyN of every term per letter."""
    f1, f2, f3, f4 = BiPolyN({(0, 0): 1}), BiPolyN(), BiPolyN(), BiPolyN({(0, 0): 1})
    for ch in reversed(word):
        if ch == "L":
            f3 = f1.shift(1, 0) + f3
            f4 = f2.shift(1, 0) + f4
        else:
            f1 = f1 + f3.shift(0, 1)
            f2 = f2 + f4.shift(0, 1)
    return (f1, f2), (f3, f4)


class TestChildren:
    def test_root_children_are_the_generators(self):
        assert children(IDENTITY, P23) == (Mat2(1, 0, 2, 1), Mat2(1, 3, 0, 1))

    def test_deeper_vertex(self):
        left, right = children(Mat2(1, 3, 2, 7), P23)
        assert left == Mat2(1, 3, 4, 13)
        assert right == Mat2(7, 24, 2, 7)

    @given(words, small_params)
    def test_children_left_multiply(self, w, params):
        m = word_to_matrix(w, params)
        left, right = children(m, params)
        assert left == lmat(params) * m
        assert right == rmat(params) * m


class TestTreeRow:
    def test_row_values_to_depth_two(self):
        assert row(IDENTITY, P23, 0).cells == (IDENTITY,)
        assert row(IDENTITY, P23, 1).cells == (Mat2(1, 0, 2, 1), Mat2(1, 3, 0, 1))
        assert row(IDENTITY, P23, 2).cells == (
            Mat2(1, 0, 4, 1),
            Mat2(7, 3, 2, 1),
            Mat2(1, 3, 2, 7),
            Mat2(1, 6, 0, 1),
        )

    def test_rows_chain_by_children(self):
        params = MonoidParams(3, 1)
        for n in range(5):
            parents = row(IDENTITY, params, n)
            kids = row(IDENTITY, params, n + 1)
            for j, m in enumerate(parents, start=1):
                assert (kids.cell(2 * j - 1), kids.cell(2 * j)) == children(m, params)

    def test_non_identity_root(self):
        root = Mat2(1, 3, 0, 1)
        assert row(root, P23, 1).cells == children(root, P23)

    def test_cell_accessor_is_one_indexed(self):
        r = row(IDENTITY, P23, 2)
        assert len(r) == 4
        assert list(r) == list(r.cells)
        assert r.cell(1) == Mat2(1, 0, 4, 1)
        assert r.cell(4) == Mat2(1, 6, 0, 1)
        with pytest.raises(IndexOutOfRange):
            r.cell(0)
        with pytest.raises(IndexOutOfRange):
            r.cell(5)

    def test_cell_count_is_validated(self):
        with pytest.raises(ValueError, match=r"^row at depth 1 must have 2 cells, got 1$"):
            TreeRow(1, (IDENTITY,))
        # 2^depth is neither built nor printed past the cells given.
        for depth in (3, 20000, 10**12):
            with pytest.raises(ValueError, match=rf"^row at depth {depth} must have 2\^{depth} "):
                TreeRow(depth, ())
        with pytest.raises(IndexOutOfRange):
            TreeRow(-1, ())
        with pytest.raises(InvalidParams):
            TreeRow(1.5, ())

    def test_negative_depth(self):
        with pytest.raises(IndexOutOfRange):
            row(IDENTITY, P23, -1)

    def test_cells_stream_lazily(self):
        # Depth 60 is far past the cap: the walk holds one cell per level, not the row.
        cells = tree._row_cells(IDENTITY, P23, 60)
        for i in (1, 2):
            m = cell(60, i, P23)
            assert next(cells) == (m.a, m.b, m.c, m.d)


class TestEnumerationLimits:
    def test_default_row_cap(self):
        with pytest.raises(LimitExceeded):
            row(IDENTITY, P23, 21)

    def test_cap_admits_a_row_of_exactly_its_size(self, monkeypatch):
        monkeypatch.setenv(ENUM_LIMIT_ENV, "16")
        with pytest.raises(LimitExceeded):
            row(IDENTITY, P23, 5)
        assert len(row(IDENTITY, P23, 4)) == 16

    def test_env_var_lowers_the_cap(self, monkeypatch):
        monkeypatch.setenv("MATMONOID_ENUM_LIMIT", "8")
        with pytest.raises(LimitExceeded):
            row(IDENTITY, P23, 4)
        assert len(row(IDENTITY, P23, 3)) == 8

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("MATMONOID_ENUM_LIMIT", "lots")
        with pytest.raises(LimitExceeded):
            row(IDENTITY, P23, 2)

    def test_bruteforce_respects_limit(self, monkeypatch):
        monkeypatch.setenv(ENUM_LIMIT_ENV, "16")
        with pytest.raises(LimitExceeded):
            mu_row_bruteforce(P23, 5)

    @pytest.mark.parametrize("n", [20000, 10**8])
    def test_deep_rows_name_the_knob(self, n):
        # 2^n has far more than 4300 decimal digits here; the refusal must
        # neither write it out nor fail on the conversion.
        with pytest.raises(LimitExceeded, match=f"2\\^{n} cells.*MATMONOID_ENUM_LIMIT"):
            row(IDENTITY, P23, n)
        with pytest.raises(LimitExceeded, match="; raise it with MATMONOID_ENUM_LIMIT$"):
            mu_row_bruteforce(P23, n)


class TestMuRowBruteforce:
    def test_known_values(self):
        assert mu_row_bruteforce(P23, 0) == 1
        assert mu_row_bruteforce(P23, 1) == 3
        assert mu_row_bruteforce(P23, 2) == 7
        assert mu_row_bruteforce(P23, 3) == 24
        assert mu_row_bruteforce(MonoidParams(2, 1), 4) == 14

    @pytest.mark.parametrize("n", range(7))
    def test_matches_row_scan(self, n):
        assert mu_row_bruteforce(P23, n) == max(mu(m) for m in row(IDENTITY, P23, n))


def plain_maxima(params, depth):
    """Max entry of each row 0..depth, from a plain enumeration of 4-tuples."""
    u, v = params.u, params.v
    cells, out = [(1, 0, 0, 1)], [1]
    for _ in range(depth):
        cells = [
            m
            for a, b, c, d in cells
            for m in ((a, b, c + u * a, d + u * b), (a + v * c, b + v * d, c, d))
        ]
        out.append(max(map(max, cells)))
    return out


# Entries of hundreds of bits, so every lane is wider than a machine word.
WIDE_PARAMS = [(2**64, 1), (1, 2**64), (10**23, 3), (2, 10**23), (10**40, 7), (10**40, 10**40)]


class TestSplitEnumeration:
    """mu_row_bruteforce pairs the entrywise-maximal rows of one half with the
    entrywise-maximal columns of the other."""

    @pytest.mark.parametrize("u", range(1, 9))
    def test_matches_a_plain_enumeration(self, u):
        for v in range(1, 9):
            params = MonoidParams(u, v)
            for n, want in enumerate(plain_maxima(params, 12)):
                assert mu_row_bruteforce(params, n) == want, (u, v, n)

    @pytest.mark.parametrize("uv", [(1, 1), (2, 3), (8, 1), *WIDE_PARAMS])
    def test_around_the_split(self, uv):
        # Depth 0 splits into two empty halves, depth 1 into an empty one and
        # one letter; odd depths give the second half one level more.
        params = MonoidParams(*uv)
        want = plain_maxima(params, 13)
        for n in (0, 1, 2, 3, 12, 13):
            assert mu_row_bruteforce(params, n) == want[n], n

    @pytest.mark.parametrize("uv", [(5, 7), (3, 2**64)])
    def test_matches_a_plain_enumeration_on_more_pairs(self, uv):
        params = MonoidParams(*uv)
        for n, want in enumerate(plain_maxima(params, 9)):
            assert mu_row_bruteforce(params, n) == want, (uv, n)

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=40))
    @example([(3, 4)])
    @example([(2, 5), (5, 2), (2, 5), (4, 4), (5, 2), (1, 1)])
    def test_front_is_the_set_of_maximal_pairs(self, pairs):
        # Small coordinates force ties and duplicates; min_size 1 includes a single point.
        maximal = {p for p in pairs
                   if not any(q != p and q[0] >= p[0] and q[1] >= p[1] for q in pairs)}
        front = tree._front(iter(pairs))
        assert len(front) == len(set(front))
        assert set(front) == maximal

    @pytest.mark.parametrize("uv", [(1, 1), (2, 3), (5, 7)])
    def test_matches_the_lucas_value_at_the_cap(self, uv):
        params = MonoidParams(*uv)
        assert mu_row_bruteforce(params, 20) == mu_depth(params, 20)

    def test_cap_depth_in_little_memory(self):
        # A depth-20 row held as 2^20 tuples needs some 300 MB, past this limit.
        proc = brute_force_in_200_mb(20)
        want = mu_depth(MonoidParams(5, 7), 20)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{want}\n", "")

    def test_depth_30_in_little_memory_with_the_cap_raised(self):
        # Two halves of 2^15 cells each, where a full row would be 2^30.
        proc = brute_force_in_200_mb(30, **{ENUM_LIMIT_ENV: str(2**30)})
        want = mu_depth(MonoidParams(5, 7), 30)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{want}\n", "")


def brute_force_in_200_mb(depth, **env):
    """`mu --method brute` on (5, 7) in a child process with a 200 MB address space."""
    src = str(Path(matmonoid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    limit = 200 * 2**20
    return subprocess.run(
        [sys.executable, "-m", "matmonoid.cli", "mu", "--method", "brute",
         "--u", "5", "--v", "7", "--depth", str(depth)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path, **env),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


class TestCellAccess:
    def test_root_cell(self):
        assert cell(0, 1, P23) == IDENTITY
        assert cell_word(0, 1) == ""

    def test_depth_two_cells(self):
        assert cell(2, 2, P23) == Mat2(7, 3, 2, 1)
        assert cell(2, 3, P23) == Mat2(1, 3, 2, 7)
        assert cell_word(2, 2) == "RL"
        assert cell_word(2, 3) == "LR"

    @pytest.mark.parametrize("uv", [(2, 3), (3, 1)])
    def test_cell_matches_row(self, uv):
        params = MonoidParams(*uv)
        for n in range(7):
            r = row(IDENTITY, params, n)
            for i in range(1, (1 << n) + 1):
                assert cell(n, i, params) == r.cell(i)

    def test_cell_word_round_trips_through_products(self):
        for n in range(9):
            for i in range(1, (1 << n) + 1, max(1, (1 << n) // 16)):
                assert word_to_matrix(cell_word(n, i), P23) == cell(n, i, P23)

    @pytest.mark.parametrize("n,i", [(2, 0), (2, 5), (-1, 1), (0, 2), (20000, 0)])
    def test_index_validation(self, n, i):
        with pytest.raises(IndexOutOfRange):
            cell(n, i, P23)
        with pytest.raises(IndexOutOfRange):
            cell_word(n, i)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: row(IDENTITY, P23, 2.0), id="row-float"),
        pytest.param(lambda: row(IDENTITY, P23, True), id="row-bool"),
        pytest.param(lambda: mu_row_bruteforce(P23, 2.0), id="bruteforce-float"),
        pytest.param(lambda: cell(2.0, 1, P23), id="cell-depth-float"),
        pytest.param(lambda: cell(2, 1.0, P23), id="cell-index-float"),
        pytest.param(lambda: cell(2, True, P23), id="cell-index-bool"),
        pytest.param(lambda: cell_word(2, 1.0), id="word-index-float"),
        pytest.param(lambda: cell_word(True, 1), id="word-depth-bool"),
        pytest.param(lambda: row(IDENTITY, P23, 2).cell(1.0), id="row-cell-float"),
        pytest.param(lambda: row(IDENTITY, P23, 2).cell(True), id="row-cell-bool"),
    ])
    def test_non_integer_depth_or_index(self, call):
        with pytest.raises(InvalidParams, match="must be an integer"):
            call()


class TestClassify:
    def test_identity_is_neither(self):
        assert classify(IDENTITY, P23) is DominanceClass.NEITHER
        assert classify(IDENTITY, MonoidParams(1, 1)) is DominanceClass.NEITHER

    def test_zero_matrix_is_both(self):
        # BOTH needs a determinant other than 1, so only a non-element reaches it.
        assert classify(Mat2(0, 0, 0, 0), P23) is DominanceClass.BOTH

    def test_generators(self):
        assert classify(lmat(P23), P23) is DominanceClass.U_LOWER_DOMINANT
        assert classify(rmat(P23), P23) is DominanceClass.V_UPPER_DOMINANT

    @pytest.mark.parametrize("uv", [(2, 3), (1, 1)])
    def test_first_letter_decides_the_class(self, uv):
        # Every depth >= 1 vertex peels exactly one generator, the one
        # named by the first letter of its word; BOTH never occurs.
        params = MonoidParams(*uv)
        for w in all_words(8):
            if not w:
                continue
            got = classify(word_to_matrix(w, params), params)
            want = (
                DominanceClass.U_LOWER_DOMINANT
                if w[0] == "L"
                else DominanceClass.V_UPPER_DOMINANT
            )
            assert got is want, w

    @pytest.mark.parametrize("uv", [(2, 3), (1, 1), (3, 1)])
    def test_a_cell_classifies_as_its_matrix(self, uv):
        # The row walk's cells (a, b, c, d) classify without building a Mat2.
        params = MonoidParams(*uv)
        for n in range(7):
            for cell in tree._row_cells(IDENTITY, params, n):
                assert classify(cell, params) is classify(Mat2(*cell), params)
        assert classify((0, 0, 0, 0), P23) is DominanceClass.BOTH

    def test_full_range_suite(self):
        r = suites.check_single_peel_class(10)
        assert r.passed, r.failures


class TestAntitranspose:
    def test_known_values(self):
        assert antitranspose(IDENTITY) == IDENTITY
        assert antitranspose(Mat2(1, 3, 2, 7)) == Mat2(7, 2, 3, 1)
        assert antitranspose(lmat(P23)) == rmat(MonoidParams(3, 2))

    @given(st.tuples(*[st.integers(0, 10**12)] * 4))
    def test_involution(self, entries):
        m = Mat2(*entries)
        assert antitranspose(antitranspose(m)) == m

    @given(words, words, small_params)
    def test_multiplicative(self, w1, w2, params):
        # Conjugation by the coordinate flip: a ring automorphism that
        # exchanges the two shear families.
        m = word_to_matrix(w1, params)
        n = word_to_matrix(w2, params)
        assert antitranspose(m * n) == antitranspose(m) * antitranspose(n)


class TestMirrorSymmetry:
    def test_small_range_directly(self):
        # Swapping (u,v) mirrors each row up to antitransposition.
        p32 = MonoidParams(3, 2)
        for n in range(7):
            for i in range(1, (1 << n) + 1):
                mirrored = antitranspose(cell(n, (1 << n) + 1 - i, p32))
                assert cell(n, i, P23) == mirrored

    def test_full_range_suite(self):
        r = suites.check_mirror_symmetry(12)
        assert r.passed, r.failures


class TestLeftHalfDominance:
    def test_left_half_majorizes_when_u_is_at_least_v(self):
        params = MonoidParams(3, 2)
        for n in range(1, 9):
            cells = row(IDENTITY, params, n).cells
            for i in range(1, (1 << (n - 1)) + 1):
                assert mu(cells[(1 << n) - i]) <= mu(cells[i - 1])

    def test_orientation_is_required(self):
        # With u < v the left half does not majorize; pin one violation so
        # the u >= v restriction stays honest.
        params = MonoidParams(1, 2)
        found = False
        for n in range(1, 9):
            cells = row(IDENTITY, params, n).cells
            for i in range(1, (1 << (n - 1)) + 1):
                if mu(cells[(1 << n) - i]) > mu(cells[i - 1]):
                    found = True
                    break
            if found:
                break
        assert found

    def test_full_range_suite(self):
        r = suites.check_left_half_dominance(12)
        assert r.passed, r.failures


class TestColumnMax:
    def test_last_letter_names_the_dominant_column(self):
        for w in all_words(6):
            if not w:
                continue
            m = word_to_matrix(w, P23)
            if w[-1] == "L":
                assert mu(m) == max(m.a, m.c), w
            else:
                assert mu(m) == max(m.b, m.d), w

    def test_full_range_suite(self):
        r = suites.check_column_max(8)
        assert r.passed, r.failures


class TestEntryPolys:
    def test_empty_word(self):
        one, zero = BiPolyN.constant(1), BiPolyN()
        assert entry_polys("") == ((one, zero), (zero, one))

    def test_two_letter_words(self):
        x = BiPolyN({(1, 0): 1})
        y = BiPolyN({(0, 1): 1})
        one = BiPolyN.constant(1)
        one_xy = BiPolyN({(0, 0): 1, (1, 1): 1})
        assert entry_polys("LR") == ((one, y), (x, one_xy))
        assert entry_polys("RL") == ((one_xy, y), (x, one))

    @given(words, st.integers(1, 4), st.integers(1, 4))
    def test_evaluation_recovers_the_product(self, w, u, v):
        (f1, f2), (f3, f4) = entry_polys(w)
        m = word_to_matrix(w, MonoidParams(u, v))
        assert (f1(u, v), f2(u, v), f3(u, v), f4(u, v)) == (m.a, m.b, m.c, m.d)

    def test_monomial_shape_small_range(self):
        # Diagonal entries are balanced in (X, Y); the off-diagonals carry
        # one extra Y (top right) or X (bottom left). Total degree <= depth.
        for w in all_words(6):
            (f1, f2), (f3, f4) = entry_polys(w)
            assert all(i == j for (i, j) in f1.coeffs)
            assert all(i == j for (i, j) in f4.coeffs)
            assert all(j == i + 1 for (i, j) in f2.coeffs)
            assert all(i == j + 1 for (i, j) in f3.coeffs)
            for f in (f1, f2, f3, f4):
                assert f.total_degree <= len(w)

    def test_full_range_suite(self):
        r = suites.check_entry_poly_structure(10)
        assert r.passed, r.failures

    def test_matches_the_shift_and_add_fold(self):
        for w in all_words(10):
            assert entry_polys(w) == entry_polys_by_shift_and_add(w), w

    @given(st.text(alphabet="LR", min_size=40, max_size=200))
    def test_matches_the_shift_and_add_fold_on_long_words(self, w):
        assert entry_polys(w) == entry_polys_by_shift_and_add(w)

    def test_an_unmirrored_right_column_is_caught(self, monkeypatch):
        # The right column is the column fold of the mirrored word. With the mirror
        # table the identity it is the left column again, and the integer products show it.
        assert suites.check_entry_poly_structure(4).passed
        monkeypatch.setattr(tree, "_MIRROR", str.maketrans("LR", "LR"))
        r = suites.check_entry_poly_structure(4)
        assert not r.passed
        assert all(f.endswith("evaluation mismatch") for f in r.failures)

    def test_huge_word_is_refused_at_once(self, monkeypatch):
        # 10^5 letters would take some 1.75e9 bytes; the refusal comes before any fold step.
        for name in ("shift", "__add__"):
            monkeypatch.setattr(BiPolyN, name, lambda *a: pytest.fail("the fold ran"))
        monkeypatch.setattr(polydom, "_add", lambda *a: pytest.fail("the fold ran"))
        with pytest.raises(LimitExceeded, match="^the entry polynomials of a 100000-letter word "
                           f"have about .*raise it with {OUTPUT_LIMIT_ENV}$"):
            entry_polys("LR" * 50_000)


class TestEntryPolyFlip:
    def test_mirror_cell_is_the_swapped_antitranspose(self):
        for n in range(1, 7):
            for i in range(1, (1 << n) + 1):
                (e1, e2), (e3, e4) = entry_polys(cell_word(n, i))
                mirror = entry_polys(cell_word(n, (1 << n) + 1 - i))
                expected = (
                    (e4.swap_vars(), e3.swap_vars()),
                    (e2.swap_vars(), e1.swap_vars()),
                )
                assert mirror == expected

    def test_full_range_suite(self):
        r = suites.check_entry_poly_flip(8)
        assert r.passed, r.failures


class TestLeftColumnBound:
    def test_full_range_suite(self):
        # Odd depths up to 15: every left-column entry of a depth-(2n+1)
        # matrix is bounded by the alternating-word column, which attains it.
        r = suites.check_left_column_bound(15)
        assert r.passed, r.failures

"""Generator arithmetic, word products, and unique factorization."""
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given

import matmonoid
from matmonoid import (
    IDENTITY,
    InvalidParams,
    LimitExceeded,
    Mat2,
    MonoidParams,
    NotInMonoid,
    factor,
    lmat,
    matrix,
    mu,
    mul,
    rmat,
    witness,
    word_to_matrix,
)
from matmonoid.errors import show

P23 = MonoidParams(2, 3)

words = st.text(alphabet="LR", max_size=24)
small_params = st.builds(MonoidParams, st.integers(1, 5), st.integers(1, 5))
params_1_to_4 = st.builds(MonoidParams, st.integers(1, 4), st.integers(1, 4))


def seeded_word(n, seed, mean_run):
    """n letters that switch with probability 1/mean_run, from a seeded generator."""
    rng = random.Random(seed)
    letters, ch = [], rng.choice("LR")
    for _ in range(n):
        if rng.random() * mean_run < 1:
            ch = "L" if ch == "R" else "R"
        letters.append(ch)
    return "".join(letters)


# Up to 2,000 letters, alternating, random, or in runs of about 8 or 50.
long_words = st.builds(
    seeded_word, st.integers(0, 2000), st.integers(0, 2**32), st.sampled_from([1, 2, 8, 50])
)


def word_to_matrix_by_letters(word, params):
    """The letter-by-letter product: the reference for word_to_matrix."""
    u, v = params.u, params.v
    a, b, c, d = 1, 0, 0, 1
    for ch in word:
        if ch == "L":
            a += u * b
            c += u * d
        else:
            b += v * a
            d += v * c
    return Mat2(a, b, c, d)


def factor_by_letters(m, params):
    """The letter-by-letter peel: the reference for factor, errors included."""
    u, v = params.u, params.v
    a, b, c, d = m.a, m.b, m.c, m.d
    if a * d - b * c != 1:
        raise NotInMonoid(f"determinant is {show(a * d - b * c)}, not 1")
    letters = []
    while (a, b, c, d) != (1, 0, 0, 1):
        lower = c >= u * a and d >= u * b
        upper = a >= v * c and b >= v * d
        if lower and upper:
            raise NotInMonoid("matrix is both lower- and upper-dominant; not in the free monoid")
        if lower:
            letters.append("L")
            c -= u * a
            d -= u * b
        elif upper:
            letters.append("R")
            a -= v * c
            b -= v * d
        else:
            raise NotInMonoid("no generator divides the matrix; not in the monoid")
    return "".join(letters)


def outcome(fn, m, params):
    """fn's word for m, or the type and message of what it raised."""
    try:
        return fn(m, params)
    except Exception as exc:
        return type(exc), str(exc)


def times(m, n):
    return Mat2(m.a * n.a + m.b * n.c, m.a * n.b + m.b * n.d,
                m.c * n.a + m.d * n.c, m.c * n.b + m.d * n.d)


def power(m, k):
    """m^k by repeated squaring: a product oracle that shares no code with word_to_matrix."""
    result = IDENTITY
    while k:
        if k & 1:
            result = times(result, m)
        m, k = times(m, m), k >> 1
    return result


def all_words_with_matrices(params, max_depth):
    """Yield (word, Mat2) for every word of depth 0..max_depth, by depth."""
    level = [("", (1, 0, 0, 1))]
    u, v = params.u, params.v
    for _ in range(max_depth + 1):
        for w, (a, b, c, d) in level:
            yield w, Mat2(a, b, c, d)
        # Appending a letter right-multiplies by its generator.
        level = [
            (w + ch, m)
            for w, (a, b, c, d) in level
            for ch, m in (
                ("L", (a + u * b, b, c + u * d, d)),
                ("R", (a, b + v * a, c, d + v * c)),
            )
        ]


class TestMonoidParams:
    def test_fields_and_orientation(self):
        p = MonoidParams(2, 3)
        assert (p.u, p.v) == (2, 3)
        assert (p.s, p.t) == (2, 3)
        assert (MonoidParams(3, 2).s, MonoidParams(3, 2).t) == (2, 3)
        assert p.swapped() == MonoidParams(3, 2)

    @pytest.mark.parametrize("u,v", [(0, 1), (1, 0), (-1, 2), (0, 0)])
    def test_rejects_nonpositive(self, u, v):
        with pytest.raises(InvalidParams):
            MonoidParams(u, v)

    def test_rejects_non_integers(self):
        with pytest.raises(InvalidParams):
            MonoidParams(1.5, 1)


class TestMat2:
    def test_rows_and_det(self):
        m = Mat2(1, 3, 2, 7)
        assert m.rows() == ((1, 3), (2, 7))
        assert m.det() == 1
        assert Mat2(1, 1, 1, 1).det() == 0

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            Mat2(1, 0, -1, 1)

    def test_rejects_non_integer_entries(self):
        with pytest.raises(ValueError):
            Mat2(1.0, 0, 0, 1)

    def test_immutable(self):
        with pytest.raises(Exception):
            IDENTITY.a = 2

    def test_json_uses_decimal_strings(self):
        m = Mat2(10**40, 0, 1, 1)
        assert m.to_json() == [[str(10**40), "0"], ["1", "1"]]
        assert Mat2.from_json(m.to_json()) == m

    @given(st.tuples(*[st.integers(0, 10**30)] * 4))
    def test_json_round_trip(self, entries):
        m = Mat2(*entries)
        assert Mat2.from_json(m.to_json()) == m


class TestGenerators:
    def test_lower_shear(self):
        assert lmat(P23) == Mat2(1, 0, 2, 1)
        assert lmat(MonoidParams(7, 1)) == Mat2(1, 0, 7, 1)

    def test_upper_shear(self):
        assert rmat(P23) == Mat2(1, 3, 0, 1)
        assert rmat(MonoidParams(1, 5)) == Mat2(1, 5, 0, 1)

    def test_generator_product(self):
        assert mul(lmat(P23), rmat(P23)) == Mat2(1, 3, 2, 7)
        assert mul(rmat(P23), lmat(P23)) == Mat2(7, 3, 2, 1)
        assert lmat(P23) * rmat(P23) == Mat2(1, 3, 2, 7)

    def test_identity_is_neutral(self):
        m = Mat2(1, 3, 2, 7)
        assert mul(IDENTITY, m) == m
        assert mul(m, IDENTITY) == m


class TestMu:
    def test_known_values(self):
        assert mu(IDENTITY) == 1
        assert mu(Mat2(1, 3, 2, 7)) == 7
        assert mu(Mat2(25, 6, 54, 13)) == 54

    @given(words.filter(bool), words.filter(bool), small_params)
    def test_product_does_not_shrink(self, w1, w2, params):
        m, n = word_to_matrix(w1, params), word_to_matrix(w2, params)
        assert mu(mul(m, n)) >= max(mu(m), mu(n))


class TestWordToMatrix:
    def test_empty_word(self):
        assert word_to_matrix("", P23) == IDENTITY

    def test_single_letters(self):
        assert word_to_matrix("L", P23) == Mat2(1, 0, 2, 1)
        assert word_to_matrix("R", P23) == Mat2(1, 3, 0, 1)

    def test_letter_order_is_left_to_right(self):
        assert word_to_matrix("LR", P23) == Mat2(1, 3, 2, 7)
        assert word_to_matrix("RL", P23) == Mat2(7, 3, 2, 1)

    def test_five_letter_product(self):
        assert word_to_matrix("LRRLL", P23) == Mat2(25, 6, 54, 13)

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            word_to_matrix("LRX", P23)

    @given(words, small_params)
    def test_unit_determinant(self, w, params):
        assert word_to_matrix(w, params).det() == 1

    @given(words, words, small_params)
    def test_concatenation_is_multiplication(self, w1, w2, params):
        lhs = word_to_matrix(w1 + w2, params)
        rhs = mul(word_to_matrix(w1, params), word_to_matrix(w2, params))
        assert lhs == rhs


class TestFactor:
    def test_identity_factors_to_empty_word(self):
        assert factor(IDENTITY, P23) == ""

    def test_generator_product_example(self):
        assert factor(Mat2(1, 3, 2, 7), P23) == "LR"

    def test_rejects_degenerate_determinant(self):
        with pytest.raises(NotInMonoid):
            factor(Mat2(1, 1, 1, 1), P23)

    def test_rejects_unreachable_unimodular_matrix(self):
        # det 1, but no generator of the (2,3) monoid divides it.
        with pytest.raises(NotInMonoid):
            factor(Mat2(2, 1, 1, 1), P23)

    def test_rejects_wrong_params(self):
        m = word_to_matrix("LRL", MonoidParams(4, 1))
        with pytest.raises(NotInMonoid):
            factor(m, MonoidParams(4, 3))

    @given(words, small_params)
    def test_round_trip_random(self, w, params):
        assert factor(word_to_matrix(w, params), params) == w

    @pytest.mark.parametrize("u", [1, 2, 3, 4])
    @pytest.mark.parametrize("v", [1, 2, 3, 4])
    def test_round_trip_exhaustive_depth_14(self, u, v):
        # Freeness: every one of the 2^15 - 1 words up to depth 14 is the
        # unique factorization of its own product.
        params = MonoidParams(u, v)
        for w, m in all_words_with_matrices(params, 14):
            assert factor(m, params) == w


class TestAgainstLetterOracles:
    """The product tree and the certified half-GCD peel against the
    letter-by-letter loops they replaced."""

    @given(long_words, params_1_to_4)
    def test_random_words_up_to_2000_letters(self, w, params):
        m = word_to_matrix(w, params)
        assert m == word_to_matrix_by_letters(w, params)
        assert factor(m, params) == factor_by_letters(m, params) == w

    @given(long_words, params_1_to_4, st.sampled_from([1, 2, 5]), st.sampled_from([8, 24, 100]))
    def test_small_leaves_run_every_path_on_short_words(self, w, params, letters, bits):
        # Tiny leaves send short words through the product tree's splits and
        # through factor's guesses, certification and give-backs.
        with mock.patch.object(matrix, "_LEAF_LETTERS", letters), \
                mock.patch.object(matrix, "_LEAF_BITS", bits):
            m = word_to_matrix(w, params)
            assert m == word_to_matrix_by_letters(w, params)
            assert factor(m, params) == w
            near = (mul(m, Mat2(2, 1, 1, 1)), mul(Mat2(1, 1, 1, 2), m),
                    Mat2(m.a, m.b + m.a, m.c, m.d + m.c))
            for x in near:
                assert outcome(factor, x, params) == outcome(factor_by_letters, x, params)

    @given(long_words, long_words, params_1_to_4)
    def test_concatenation_is_multiplication(self, w1, w2, params):
        left, right = word_to_matrix_by_letters(w1, params), word_to_matrix_by_letters(w2, params)
        assert word_to_matrix(w1 + w2, params) == mul(left, right)

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
    @pytest.mark.parametrize("uv", [(1, 1), (2, 3), (4, 1)])
    def test_leaf_boundaries(self, n, uv):
        params = MonoidParams(*uv)
        for w in ("LR" * n)[:n], "L" * n, "R" + "L" * (n - 1), format(3**n, "b")[:n].translate(
            str.maketrans("01", "LR")
        ):
            m = word_to_matrix(w, params)
            assert m == word_to_matrix_by_letters(w, params)
            assert factor(m, params) == w

    @pytest.mark.parametrize("uv", [(1, 1), (4, 4)])
    def test_entry_sizes_across_the_peel_leaf(self, uv):
        # Alternating and random words whose entries grow through the bit
        # size below which factor peels run by run.
        params = MonoidParams(*uv)
        for n in range(40, 220, 3):
            for w in ("LR" * n)[:n], format(5**n, "b")[:n].translate(str.maketrans("01", "LR")):
                assert factor(word_to_matrix(w, params), params) == w

    @pytest.mark.parametrize(
        "u, v, n, head, unit, tail",
        [
            (3, 2, 100001, "", "LR", "L"),
            (2, 3, 100001, "", "RL", "R"),
            (2, 3, 100000, "", "RL", ""),
            (3, 1, 100000, "L", "LR", "L"),
            (1, 3, 100000, "R", "RL", "R"),
        ],
    )
    def test_deep_witness_words(self, u, v, n, head, unit, tail):
        # Every witness shape at depth 10^5. The letter-by-letter oracles
        # are quadratic there, so the product is pinned by repeated
        # squaring and the factorization by the word itself.
        params = MonoidParams(u, v)
        k = (n - len(head) - len(tail)) // len(unit)
        w = witness(params, n)
        assert w.word == head + unit * k + tail
        letters = word_to_matrix_by_letters
        expected = times(times(letters(head, params), power(letters(unit, params), k)),
                         letters(tail, params))
        assert w.matrix == expected == word_to_matrix(w.word, params)
        assert factor(expected, params) == w.word

    @pytest.mark.parametrize("uv", [(1, 1), (2, 3), (4, 1), (3, 4)])
    def test_witness_shapes_against_the_letter_oracles(self, uv):
        params = MonoidParams(*uv)
        for n in (9999, 10000):
            word = witness(params, n).word
            m = word_to_matrix(word, params)
            assert m == word_to_matrix_by_letters(word, params)
            assert factor(m, params) == factor_by_letters(m, params) == word

    @pytest.mark.parametrize("uv", [(1, 1), (2, 3), (4, 1), (1, 4), (3, 3)])
    def test_non_members_fail_as_the_oracle_does(self, uv):
        params = MonoidParams(*uv)
        u, v = uv
        others = [MonoidParams(u + 1, v), MonoidParams(u, v + 1), MonoidParams(v, u)]
        for n in (1, 50, 700, 6000):
            w = (format(7**n, "b") * 2)[:n].translate(str.maketrans("01", "LR"))
            m = word_to_matrix(w, params)
            # The product of a word under (u, v), read under other parameters.
            cases = [(m, q) for q in others]
            # Entries perturbed with the determinant kept at 1, and one not.
            for t in (1, 2, 3):
                cases += [
                    (mul(m, Mat2(1, t, 0, 1)), params),
                    (mul(Mat2(1, 0, t, 1), m), params),
                    (mul(m, Mat2(1 + t, 1, t, 1)), params),
                    (mul(Mat2(1, t, 1, 1 + t), m), params),
                ]
            cases.append((Mat2(m.a + 1, m.b, m.c, m.d), params))
            for x, q in cases:
                assert outcome(factor, x, q) == outcome(factor_by_letters, x, q)

    def test_a_member_times_a_non_member_fails_at_the_end(self):
        # A det-1, nonnegative non-member of the (2, 3) monoid put after a
        # deep element: the peel takes every letter of the element, then fails.
        params = MonoidParams(2, 3)
        stuck = Mat2(2, 1, 1, 1)
        for n in (200, 5000):
            m = mul(word_to_matrix("LRR" * n, params), stuck)
            expected = outcome(factor_by_letters, m, params)
            assert expected == (NotInMonoid, "no generator divides the matrix; not in the monoid")
            assert outcome(factor, m, params) == expected


class TestRunPeeling:
    def test_a_single_long_run_is_peeled_at_once(self):
        params = MonoidParams(1, 1)
        start = time.perf_counter()
        assert factor(Mat2(1, 10**7, 0, 1), params) == "R" * 10**7
        assert factor(Mat2(1, 0, 10**7, 1), params) == "L" * 10**7
        # One division per run, not one loop step per letter (several seconds).
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("k", [2**63, 2**64, 3 * 2**64 + 5])
    def test_a_word_too_long_for_a_str_is_refused(self, k):
        # The run lengths are summed and checked against the output cap
        # before the join, which no str could hold at these lengths.
        for m, params in ((Mat2(1, k, 0, 1), MonoidParams(1, 1)),
                          (Mat2(1, 0, 3 * k, 1), MonoidParams(3, 2))):
            with pytest.raises(LimitExceeded, match=f"the word has {k} letters, more than"):
                factor(m, params)

    def test_a_word_past_the_output_cap_is_refused_before_the_join(self):
        # Under a 2 GB address space, building 2^40 letters would raise a bare
        # MemoryError; the summed run lengths are checked first.
        script = (
            "from matmonoid import LimitExceeded, Mat2, MonoidParams, factor\n"
            "try:\n"
            "    factor(Mat2(1, 2**40, 0, 1), MonoidParams(1, 1))\n"
            "except LimitExceeded as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(matmonoid.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        limit = 2_000_000 * 1024
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=path),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith(f"the word has {2**40} letters, more than the limit of ")
        assert proc.stdout.endswith("raise it with MATMONOID_OUTPUT_LIMIT\n")

    def test_two_runs_are_summed(self):
        # The message names the summed length of both runs, not the longer
        # run: a check on the longest run alone would print 2^62.
        half = 2**62
        m = mul(Mat2(1, half, 0, 1), Mat2(1, 0, half, 1))
        with pytest.raises(LimitExceeded, match=f"the word has {2 * half} letters"):
            factor(m, MonoidParams(1, 1))

    @pytest.mark.parametrize("uv", [(1, 1), (2, 3), (4, 1), (1, 4), (3, 5)])
    def test_mixed_runs(self, uv):
        params = MonoidParams(*uv)
        w = "R" * 5000 + "LR" * 3000 + "L" * 7000
        m = word_to_matrix(w, params)
        assert m == word_to_matrix_by_letters(w, params)
        assert factor(m, params) == w

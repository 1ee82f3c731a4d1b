"""The package's public names, the integer check every parameter shares,
the enumeration cap every brute-force search shares, how error messages
and exact answers print huge integers, and running with the standard
library alone."""
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import matmonoid
from matmonoid import (
    BiPolyN,
    HashParams,
    InvalidParams,
    Mat2,
    MonoidParams,
    alpha_gamma,
    fseq,
    IDENTITY,
    ONE,
    X,
    LimitExceeded,
    bsvhash,
    closed_form_params,
    errors,
    exhaustive_collision_check,
    extremal,
    f_poly,
    factor,
    h_poly,
    is_probable_prime,
    lucas,
    matrix,
    mu_depth,
    pascal_merge_check,
    polydom,
    row,
    tree,
    validate_word,
    witness,
)
from matmonoid.errors import (
    DEFAULT_OUTPUT_LIMIT,
    ENUM_LIMIT_ENV,
    OUTPUT_FLOOR,
    OUTPUT_LIMIT_ENV,
    IndexOutOfRange,
    MatMonoidError,
    NotInMonoid,
    require_enum_size,
    require_int,
    show,
)
from matmonoid.tree import cell, cell_word

MODULES = (bsvhash, errors, extremal, matrix, polydom, tree)

# Every name the package exported before the module lists became the
# single source of its __all__ (the functional hash aliases init and
# update_bit were dropped then).
LEGACY_NAMES = [
    "AlphaGammaPair", "BiPolyN", "ClosedFormParams", "Digest", "DominanceClass",
    "HashParams", "HashState", "IDENTITY", "IndexOutOfRange", "InvalidParams",
    "LimitExceeded", "LucasPair", "Mat2", "MatMonoidError", "MonoidParams",
    "NotInMonoid", "ONE", "PolyN", "TreeRow", "Witness", "WitnessMismatch", "X",
    "ZERO", "alpha_gamma", "antitranspose", "bits_from_ascii01",
    "bits_from_bytes_msb", "bound_n0", "cell", "cell_word", "children", "classify",
    "closed_form_float", "closed_form_params", "collision_horizon", "digest_hex",
    "dominates", "entry_polys", "exhaustive_collision_check", "f_poly", "factor",
    "fseq", "g_poly", "h_poly", "hash_string", "i_poly", "is_probable_prime",
    "left_column_polys", "lmat", "lucas", "mu", "mu_depth", "mu_row_bruteforce",
    "mul", "parse", "pascal_merge_check", "rmat", "row", "serialize", "witness",
    "word_to_matrix",
]

P23 = MonoidParams(2, 3)
HP235 = HashParams(2, 3, 5)


class TestPublicNames:
    def test_all_is_the_union_of_the_module_lists(self):
        union = set().union(*(m.__all__ for m in MODULES))
        assert matmonoid.__all__ == sorted(union)

    def test_every_name_resolves(self):
        for name in matmonoid.__all__:
            assert getattr(matmonoid, name) is not None
        for module in MODULES:
            for name in module.__all__:
                assert getattr(matmonoid, name) is getattr(module, name)

    def test_legacy_names_still_import(self):
        missing = [name for name in LEGACY_NAMES if not hasattr(matmonoid, name)]
        assert missing == []
        assert set(LEGACY_NAMES) <= set(matmonoid.__all__)

    def test_star_import_binds_every_legacy_name(self):
        namespace = {}
        exec("from matmonoid import *", namespace)
        assert set(LEGACY_NAMES) <= set(namespace)

    def test_dir_lists_all_and_every_public_name(self):
        names = dir(matmonoid)
        assert "__all__" in names
        assert set(matmonoid.__all__) <= set(names)

    def test_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            matmonoid.no_such_name

    def test_hash_aliases_are_gone(self):
        assert not hasattr(matmonoid, "init")
        assert not hasattr(matmonoid, "update_bit")


class TestRequireInt:
    @pytest.mark.parametrize("low,kind", [
        (0, "a nonnegative integer"),
        (1, "a positive integer"),
        (2, "an integer >= 2"),
        (3, "an integer >= 3"),
    ])
    def test_message_names_the_bound(self, low, kind):
        require_int("x", low, low)
        with pytest.raises(InvalidParams) as exc:
            require_int("x", low - 1, low)
        assert str(exc.value) == f"x must be {kind}, got {low - 1}"

    @pytest.mark.parametrize("value", [True, False, 1.0, "1", None])
    def test_rejects_bool_and_non_int(self, value):
        with pytest.raises(InvalidParams, match=f"got {value!r}"):
            require_int("x", value, 0)

    def test_monoid_params_message(self):
        with pytest.raises(InvalidParams, match=r"^u must be a positive integer, got 0$"):
            MonoidParams(0, 1)


class TestRequireEnumSize:
    @pytest.mark.parametrize("cap", [-1, 0, 1, 2, 3, 15, 16, 17, 2**20, 2**64])
    def test_refuses_exactly_when_two_to_the_k_exceeds_the_cap(self, cap, monkeypatch):
        monkeypatch.setenv(ENUM_LIMIT_ENV, str(cap))
        for k in range(71):
            try:
                require_enum_size("x has", k, "items", 1)
                refused = False
            except LimitExceeded:
                refused = True
            assert refused == (1 << k > cap), (k, cap)

    def test_message_names_the_size_the_cap_and_the_knob(self, monkeypatch):
        monkeypatch.setenv(ENUM_LIMIT_ENV, "4")
        with pytest.raises(LimitExceeded) as exc:
            require_enum_size("row at depth 3 has", 3, "cells", 2**20)
        assert str(exc.value) == (
            "row at depth 3 has 2^3 cells, above the limit of 4; "
            "raise it with MATMONOID_ENUM_LIMIT"
        )

    def test_huge_size_is_refused_without_building_it(self):
        with pytest.raises(LimitExceeded, match=r"^x has 2\^1000000000000 items"):
            require_enum_size("x has", 10**12, "items", 2**20)


# Each exact answer as a function of its depth or index n, an n past the
# output floor, and the answer's size in bytes there for (u, v) = (2, 3),
# P = 8: about n*log2(8)/8, half that where the answer is U at n/2, and a
# byte a letter for the witness word.
GUARDED = [
    pytest.param(lambda n: mu_depth(P23, n), 400_000, 75_000, id="mu_depth"),
    pytest.param(lambda n: lucas(8, n), 200_000, 75_000, id="lucas"),
    pytest.param(lambda n: fseq(P23, n), 400_000, 75_000, id="fseq"),
    pytest.param(lambda n: alpha_gamma(P23, 1, 2, n), 200_000, 75_000, id="alpha_gamma"),
    pytest.param(lambda n: witness(P23, n), 100_000, 100_000, id="witness"),
]
# Each call that builds n letters or n tuple slots (8 bytes a slot), with
# the same n and size; it refuses past the cap before building.
BUILDS = [
    pytest.param(lambda n: cell_word(n, 1), 100_000, 100_000, id="cell_word"),
    pytest.param(lambda n: cell(n, 1, P23), 100_000, 100_000, id="cell"),
    pytest.param(lambda n: X.shift(n), 100_000, 800_000, id="PolyN.shift"),
]


class TestRequireOutputSize:
    @pytest.mark.parametrize("call,n,size", GUARDED)
    def test_refuses_a_huge_answer_before_any_work(self, call, n, size):
        start = time.perf_counter()
        for huge in (10**9, 10**12, 10**400):
            with pytest.raises(LimitExceeded) as exc:
                call(huge)
            assert str(exc.value).endswith(f"more than the limit of {DEFAULT_OUTPUT_LIMIT} "
                                           f"bytes; raise it with {OUTPUT_LIMIT_ENV}")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("call,n,size", BUILDS)
    def test_refuses_a_huge_build_with_the_typed_error(self, call, n, size):
        # Unguarded, 2^70 failed inside the build: a format width past the
        # digit limit, or a repeat count past sys.maxsize.
        for huge in (2**70, 10**400):
            with pytest.raises(LimitExceeded) as exc:
                call(huge)
            assert str(exc.value).endswith(f"more than the limit of {DEFAULT_OUTPUT_LIMIT} "
                                           f"bytes; raise it with {OUTPUT_LIMIT_ENV}")

    @pytest.mark.parametrize("call,n,size", GUARDED + BUILDS)
    def test_the_knob_moves_the_cap(self, call, n, size, monkeypatch):
        assert size > OUTPUT_FLOOR
        monkeypatch.setenv(OUTPUT_LIMIT_ENV, str(size - 16))
        with pytest.raises(LimitExceeded, match=f"more than the limit of {size - 16} bytes"):
            call(n)
        monkeypatch.setenv(OUTPUT_LIMIT_ENV, str(size + 16))
        call(n)

    def test_the_cap_stays_between_the_floor_and_sys_maxsize(self, monkeypatch):
        monkeypatch.setenv(OUTPUT_LIMIT_ENV, "0")
        mu_depth(P23, 2 * OUTPUT_FLOOR)
        with pytest.raises(LimitExceeded, match=f"more than the limit of {OUTPUT_FLOOR} bytes"):
            mu_depth(P23, 2 * 10**6)
        monkeypatch.setenv(OUTPUT_LIMIT_ENV, str(2**70))
        with pytest.raises(LimitExceeded, match=f"more than the limit of {sys.maxsize} bytes"):
            factor(Mat2(1, 2**63, 0, 1), MonoidParams(1, 1))

    def test_malformed_knob_is_a_domain_error(self, monkeypatch):
        monkeypatch.setenv(OUTPUT_LIMIT_ENV, "lots")
        mu_depth(P23, 10)
        with pytest.raises(LimitExceeded, match=f"^{OUTPUT_LIMIT_ENV} must be an integer"):
            mu_depth(P23, 10**9)


@pytest.mark.parametrize("call,error", [
    pytest.param(lambda: MonoidParams(True, 1), InvalidParams, id="MonoidParams"),
    pytest.param(lambda: HashParams(True, 3, 5), InvalidParams, id="HashParams"),
    pytest.param(lambda: mu_depth(P23, True), InvalidParams, id="mu_depth"),
    pytest.param(lambda: lucas(5, True), InvalidParams, id="lucas"),
    pytest.param(lambda: witness(P23, True), InvalidParams, id="witness"),
    pytest.param(lambda: Mat2(True, 0, 0, True), ValueError, id="Mat2"),
    pytest.param(
        lambda: exhaustive_collision_check(HP235, True), InvalidParams, id="collision_check"
    ),
    pytest.param(lambda: alpha_gamma(P23, True, 1, 2), InvalidParams, id="alpha_gamma"),
    pytest.param(lambda: closed_form_params(P23, 1.5, 2), InvalidParams, id="closed_form_params"),
    pytest.param(lambda: f_poly(2.5), InvalidParams, id="f_poly-float"),
    pytest.param(lambda: f_poly(True), InvalidParams, id="f_poly-bool"),
    pytest.param(lambda: h_poly(1.5), InvalidParams, id="h_poly"),
    pytest.param(lambda: pascal_merge_check(1.5, 2), InvalidParams, id="pascal_merge_check"),
    pytest.param(lambda: ONE.shift(1.5), InvalidParams, id="PolyN.shift"),
    pytest.param(lambda: BiPolyN({(0.5, 0): 1}), InvalidParams, id="BiPolyN-exponent-float"),
    pytest.param(lambda: BiPolyN({(0, True): 1}), InvalidParams, id="BiPolyN-exponent-bool"),
    pytest.param(lambda: BiPolyN.constant(1).shift(1.5, 0), InvalidParams, id="BiPolyN.shift-float"),
    pytest.param(lambda: BiPolyN.constant(1).shift(True, 0), InvalidParams, id="BiPolyN.shift-bool"),
    pytest.param(lambda: BiPolyN.constant(1).shift(0, 2.0), InvalidParams, id="BiPolyN.shift-dy"),
    pytest.param(lambda: is_probable_prime(1.5), InvalidParams, id="is_probable_prime"),
    pytest.param(lambda: validate_word(None), ValueError, id="validate_word"),
])
def test_bool_and_non_integer_parameters_are_rejected(call, error):
    with pytest.raises(error):
        call()


HUGE = 10**5000  # 16610 bits: past CPython's 4300-digit int-to-str limit

needs_digit_cap = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int digit cap in this Python")


@pytest.mark.parametrize("call,error", [
    pytest.param(lambda: cell_word(3, HUGE), IndexOutOfRange, id="cell_word"),
    pytest.param(lambda: row(IDENTITY, P23, 2).cell(-HUGE), IndexOutOfRange, id="TreeRow.cell"),
    pytest.param(lambda: mu_depth(P23, -HUGE), InvalidParams, id="mu_depth"),
    pytest.param(lambda: lucas(-HUGE, 3), InvalidParams, id="lucas"),
    pytest.param(lambda: MonoidParams(-HUGE, 1), InvalidParams, id="MonoidParams"),
    pytest.param(lambda: HashParams(2, 3, HUGE), InvalidParams, id="HashParams"),
    pytest.param(lambda: row(IDENTITY, P23, HUGE), LimitExceeded, id="row-limit"),
    pytest.param(
        lambda: exhaustive_collision_check(HP235, HUGE), LimitExceeded,
        id="collision_check-limit",
    ),
    pytest.param(lambda: factor(Mat2(HUGE, 1, 1, 1), P23), NotInMonoid, id="factor"),
    pytest.param(lambda: alpha_gamma(P23, HUGE, -1, 3), InvalidParams, id="alpha_gamma"),
    pytest.param(
        lambda: closed_form_params(P23, HUGE, -1), InvalidParams, id="closed_form_params"
    ),
])
def test_huge_integers_in_messages_keep_the_typed_error(call, error):
    with pytest.raises(error) as exc:
        call()
    assert isinstance(exc.value, MatMonoidError)
    if hasattr(sys, "set_int_max_str_digits"):
        assert "-bit integer>" in str(exc.value)


class TestShow:
    @pytest.mark.parametrize("value", [0, -1, 2**64, True, 1.5, "1", None])
    def test_small_values_print_as_repr(self, value):
        assert show(value) == repr(value)

    @needs_digit_cap
    def test_huge_ints_print_as_their_bit_length(self):
        assert show(HUGE) == "<16610-bit integer>"
        assert show(-HUGE) == "<negative 16610-bit integer>"


class TestDecimalStr:
    @needs_digit_cap
    @pytest.mark.parametrize("cap", [None, 640, 0])
    def test_to_json_is_exact_past_the_cap_and_keeps_the_callers_cap(self, cap):
        m = witness(P23, 20001).matrix
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = [[str(m.a), str(m.b)], [str(m.c), str(m.d)]]
            sys.set_int_max_str_digits(before if cap is None else cap)
            caller = sys.get_int_max_str_digits()
            got = m.to_json()
            after = sys.get_int_max_str_digits()
        finally:
            sys.set_int_max_str_digits(before)
        assert got == expected
        assert max(map(len, sum(expected, []))) > 4300
        assert after == caller


def test_verify_runs_without_mpmath():
    """The package has no runtime dependency: verify passes with mpmath blocked."""
    src = str(Path(matmonoid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from matmonoid.cli import main\n"
        "sys.exit(main(['verify']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )
    expected = (Path(__file__).parent / "data" / "verify_all.txt").read_text()
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected

"""End-to-end command-line behavior: outputs, formats, and exit codes."""
import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import matmonoid
from matmonoid import (
    InvalidParams, MonoidParams, bsvhash, errors, extremal, mu_depth, suites, tree, witness,
)
from matmonoid.cli import _SUITE_CHOICES, main
from matmonoid.errors import _STR_BITS, decimal_str
from matmonoid.matrix import IDENTITY
from test_acceptance import PRIME_2048

# Python 3.10.7+ refuses int <-> decimal conversions past this many digits.
DIGIT_CAP = 4300


@contextlib.contextmanager
def digit_cap(limit):
    """Runs the block at int digit cap limit (0 for none), then restores the caller's."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


def no_digit_cap():
    """Lets the test itself print the library's huge integers."""
    return digit_cap(0)


needs_digit_cap = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int digit cap in this Python")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHashCommand:
    def test_file_input_hex(self, capsys, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("01100")
        code, out, err = run(capsys, [
            "hash", "--u", "2", "--v", "3", "--p", "5", "--input", str(path)])
        assert (code, out, err) == (0, "00010403\n", "")

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"0 11 0\n0")))
        code, out, _ = run(capsys, ["hash", "--u", "2", "--v", "3", "--p", "5"])
        assert (code, out) == (0, "00010403\n")

    def test_json_format(self, capsys, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("01100")
        code, out, _ = run(capsys, [
            "hash", "--u", "2", "--v", "3", "--p", "5",
            "--input", str(path), "--format", "json"])
        assert code == 0
        assert json.loads(out) == [["0", "1"], ["4", "3"]]

    @pytest.mark.parametrize(
        "p", [5, 101, 2**127 - 1, PRIME_2048], ids=["5", "101", "m127", "rfc3526"])
    def test_json_format_is_the_bytes_of_json_dumps(self, capsys, tmp_path, p):
        bits = "".join(random.Random(p).choice("01") for _ in range(300))
        path = tmp_path / "bits.txt"
        path.write_text(bits)
        code, out, err = run(capsys, [
            "hash", "--u", "2", "--v", "3", "--p", str(p),
            "--input", str(path), "--format", "json"])
        digest = bsvhash.hash_string(bsvhash.HashParams(2, 3, p), bits)
        assert (code, out, err) == (0, json.dumps(digest.to_json()) + "\n", "")

    def test_bytes_input(self, capsys, tmp_path):
        # 0xa5 = bits 10100101, msb first.
        path = tmp_path / "payload.bin"
        path.write_bytes(b"\xa5")
        code, out, _ = run(capsys, [
            "hash", "--u", "2", "--v", "3", "--p", "5",
            "--input", str(path), "--bits", "bytes-msb", "--format", "json"])
        assert code == 0
        from matmonoid import HashParams, hash_string
        expected = hash_string(HashParams(2, 3, 5), [1, 0, 1, 0, 0, 1, 0, 1])
        assert json.loads(out) == expected.to_json()

    def test_bytes_input_from_stdin(self, capsys, monkeypatch):
        payload = bytes(range(256))
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(payload)))
        code, out, _ = run(capsys, [
            "hash", "--u", "2", "--v", "3", "--p", "101", "--bits", "bytes-msb",
            "--format", "json"])
        assert code == 0
        from matmonoid import HashParams, HashState
        expected = HashState(HashParams(2, 3, 101)).update_bytes(payload).digest()
        assert json.loads(out) == expected.to_json()

    @needs_digit_cap
    def test_a_huge_u_hashes_alike_under_a_low_output_cap(self, capsys, monkeypatch, tmp_path):
        # mu(32) of u = 10^10000 + 1 has about 66,441 bytes, past the lowered
        # cap, but the hash never builds it: the digest is four residues below p.
        from matmonoid import bsvhash
        path = tmp_path / "bits.txt"
        path.write_text("01" * 32)
        outputs = []
        with no_digit_cap():
            argv = ["hash", "--u", str(10**10000 + 1), "--v", "3", "--p", str(2**127 - 1),
                    "--input", str(path)]
            for limit in ("65536", None):
                if limit is None:
                    monkeypatch.delenv(errors.OUTPUT_LIMIT_ENV, raising=False)
                else:
                    monkeypatch.setenv(errors.OUTPUT_LIMIT_ENV, limit)
                bsvhash._byte_table.cache_clear()
                outputs.append(run(capsys, argv))
        code, out, err = outputs[0]
        assert (code, err, len(out)) == (0, "", 4 * 32 + 1)
        assert outputs[1] == outputs[0]

    def test_composite_modulus_is_a_domain_error(self, capsys, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("01100")
        code, out, err = run(capsys, [
            "hash", "--u", "2", "--v", "3", "--p", "4", "--input", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("name,reason", [("absent.txt", "No such file or directory"),
                                             ("", "Is a directory")])
    def test_unreadable_input_file(self, capsys, tmp_path, name, reason):
        # One error line naming the option, the path and the OS reason, with
        # no "[Errno N]"; a directory (tmp_path / "") fails like a missing file.
        path = str(tmp_path / name)
        code, out, err = run(capsys, [
            "hash", "--u", "2", "--v", "3", "--p", "5", "--input", path])
        assert (code, out) == (1, "")
        assert err == f"error: cannot read --input {path!r}: {reason}\n"

    def test_bad_bit_characters(self, capsys, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("01102")
        code, out, err = run(capsys, [
            "hash", "--u", "2", "--v", "3", "--p", "5", "--input", str(path)])
        assert (code, out) == (1, "")
        assert err == "error: invalid character '2'; expected '0', '1', or whitespace\n"

    @pytest.mark.parametrize("payload", [b"01\xd9\xa0", b"01\xff", b"0\xc2\xa01"])
    def test_non_ascii_fails_alike_from_stdin_and_file(self, capsys, monkeypatch, tmp_path,
                                                        payload):
        path = tmp_path / "bits.txt"
        path.write_bytes(payload)
        argv = ["hash", "--u", "2", "--v", "3", "--p", "5"]
        from_file = run(capsys, [*argv, "--input", str(path)])
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(payload)))
        assert run(capsys, argv) == from_file
        code, out, err = from_file
        assert (code, out) == (1, "")
        at = next(i for i, byte in enumerate(payload) if byte > 0x7f)
        assert err == (f"error: invalid byte {hex(payload[at])} at offset {at}; "
                       "expected '0', '1', or whitespace\n")

    @pytest.mark.parametrize("text", ["", " \n\t", "1", "0 1\n1\t0\x0b1\x0c0\r1 1 0"])
    def test_ascii01_digits_hash_like_the_bit_list(self, capsys, monkeypatch, text):
        from matmonoid import HashParams, bits_from_ascii01, digest_hex, hash_string
        hp = HashParams(2, 3, 101)
        expected = digest_hex(hash_string(hp, bits_from_ascii01(text)), hp)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode("ascii"))))
        code, out, err = run(capsys, ["hash", "--u", "2", "--v", "3", "--p", "101"])
        assert (code, out, err) == (0, expected + "\n", "")


class TestBoundCommand:
    def test_known_value(self, capsys):
        code, out, _ = run(capsys, ["bound", "--u", "2", "--v", "3", "--p", "101"])
        assert (code, out) == (0, "4\n")

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, ["bound", "--u", "2", "--v", "3", "--p", "1009"])
        _, second, _ = run(capsys, ["bound", "--u", "2", "--v", "3", "--p", "1009"])
        assert first == second


class TestMuCommand:
    @pytest.mark.parametrize("method", ["lucas", "witness", "brute"])
    def test_methods_agree(self, capsys, method):
        code, out, _ = run(capsys, [
            "mu", "--u", "2", "--v", "3", "--depth", "3", "--method", method])
        assert (code, out) == (0, "24\n")

    def test_depth_zero(self, capsys):
        for method in ("lucas", "witness", "brute"):
            code, out, _ = run(capsys, [
                "mu", "--u", "2", "--v", "3", "--depth", "0", "--method", method])
            assert (code, out) == (0, "1\n")

    def test_brute_past_the_cap_names_the_knob(self, capsys):
        code, out, err = run(capsys, [
            "mu", "--u", "1", "--v", "1", "--depth", "20000", "--method", "brute"])
        assert (code, out) == (1, "")
        assert err.startswith("error: row at depth 20000 has 2^20000 cells")
        assert "MATMONOID_ENUM_LIMIT" in err

    def test_large_depth_stays_exact_decimal(self, capsys):
        code, out, _ = run(capsys, ["mu", "--u", "1", "--v", "1", "--depth", "300"])
        assert code == 0
        assert out.strip().isdigit()
        assert int(out) == 359579325206583560961765665172189099052367214309267232255589801


    @pytest.mark.parametrize("command", ["mu", "witness"])
    def test_depth_past_the_output_cap_names_the_knob(self, capsys, command):
        start = time.perf_counter()
        code, out, err = run(capsys, [command, "--u", "2", "--v", "3", "--depth", str(10**12)])
        assert (code, out) == (1, "")
        assert err.startswith("error: the ")
        assert "depth 1000000000000 has" in err
        assert err.endswith("bytes; raise it with MATMONOID_OUTPUT_LIMIT\n")
        assert time.perf_counter() - start < 1.0

    @needs_digit_cap
    def test_answer_past_the_digit_cap(self, capsys):
        cap = sys.get_int_max_str_digits()
        code, out, err = run(capsys, ["mu", "--u", "2", "--v", "3", "--depth", "10000"])
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == cap
        with no_digit_cap():
            expected = str(mu_depth(MonoidParams(2, 3), 10000))
        assert len(expected) > DIGIT_CAP
        assert out == expected + "\n"


@needs_digit_cap
class TestDecimalStr:
    """decimal_str against str with the digit cap lifted, on both sides of
    the cap and far past it, where it converts by divide and conquer."""

    def test_matches_str(self):
        rng = random.Random(90716)
        values = [0, 1, -1]
        for bits in (64, 14_000, 14_400, 65_536, 200_000, 10**6):
            values += [rng.getrandbits(bits), -rng.getrandbits(bits)]
        for j in (DIGIT_CAP - 1, DIGIT_CAP, DIGIT_CAP + 1, 10**4, 10**5):
            values += [10**j - 1, 10**j, 10**j + 1, 1 - 10**j]
        for bits in range(_STR_BITS - 2, _STR_BITS + 3):
            value = rng.getrandbits(bits) | 1 << (bits - 1)
            values += [value, -value]
        cap = sys.get_int_max_str_digits()
        for value in values:
            with no_digit_cap():
                expected = str(value)
                assert decimal_str(value) == expected, value.bit_length()
            assert decimal_str(value) == expected, value.bit_length()
            assert sys.get_int_max_str_digits() == cap

    def test_the_path_goes_by_size_with_the_cap_off(self, monkeypatch):
        # With the cap off str never refuses, but it is quadratic past the constant.
        calls = []
        convert = errors._decimal_digits
        monkeypatch.setattr(errors, "_decimal_digits", lambda *a: calls.append(a) or convert(*a))
        with no_digit_cap():
            for bits in (_STR_BITS, _STR_BITS + 1):
                value = (1 << bits) - 1
                assert decimal_str(value) == str(value)
        assert calls and calls[0][1] == _STR_BITS + 1


class TestWitnessCommand:
    def test_text_format(self, capsys):
        code, out, _ = run(capsys, ["witness", "--u", "2", "--v", "3", "--depth", "3"])
        assert code == 0
        assert out.splitlines() == [
            "word: RLR",
            'matrix: [["7", "24"], ["2", "7"]]',
            "entry: (1,2)",
            "value: 24",
        ]

    def test_even_depth_text_format(self, capsys):
        code, out, _ = run(capsys, ["witness", "--u", "2", "--v", "3", "--depth", "10"])
        assert code == 0
        assert out.splitlines() == [
            "word: RLRLRLRLRL",
            'matrix: [["26839", "11715"], ["7810", "3409"]]',
            "entry: (1,1)",
            "value: 26839",
        ]

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, [
            "witness", "--u", "2", "--v", "3", "--depth", "3", "--format", "json"])
        assert code == 0
        assert json.loads(out) == {
            "word": "RLR",
            "matrix": [["7", "24"], ["2", "7"]],
            "position": [1, 2],
            "value": "24",
        }

    @needs_digit_cap
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_answer_past_the_digit_cap(self, capsys, fmt):
        cap = sys.get_int_max_str_digits()
        code, out, err = run(capsys, [
            "witness", "--u", "2", "--v", "3", "--depth", "10000", "--format", fmt])
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == cap
        w = witness(MonoidParams(2, 3), 10000)
        with no_digit_cap():
            value = str(w.value)
            matrix = w.matrix.to_json()
        assert len(value) > DIGIT_CAP
        if fmt == "json":
            assert json.loads(out) == {
                "word": w.word, "matrix": matrix,
                "position": list(w.position), "value": value,
            }
        else:
            assert out == (
                f"word: {w.word}\nmatrix: {json.dumps(matrix)}\n"
                f"entry: ({w.position[0]},{w.position[1]})\nvalue: {value}\n"
            )

    @pytest.mark.parametrize("depth", [1, 2, 3, 10, 11, 20001])
    @pytest.mark.parametrize("uv", [(2, 3), (3, 2), (1, 5), (5, 1), (4, 4)])
    def test_both_formats_are_the_bytes_of_json_dumps(self, capsys, uv, depth):
        argv = ["witness", "--u", str(uv[0]), "--v", str(uv[1]), "--depth", str(depth)]
        w = witness(MonoidParams(*uv), depth)
        value = decimal_str(w.value)
        matrix = w.matrix.to_json()
        record = {"word": w.word, "matrix": matrix, "position": list(w.position), "value": value}
        assert run(capsys, [*argv, "--format", "json"]) == (0, json.dumps(record) + "\n", "")
        assert run(capsys, argv) == (0, (
            f"word: {w.word}\nmatrix: {json.dumps(matrix)}\n"
            f"entry: ({w.position[0]},{w.position[1]})\nvalue: {value}\n"
        ), "")

    def test_depth_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["witness", "--u", "2", "--v", "3", "--depth", "0"])
        assert exc.value.code == 2


class TestTreeCommand:
    def test_rows_to_depth_two(self, capsys):
        code, out, _ = run(capsys, ["tree", "--u", "2", "--v", "3", "--depth", "2"])
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["depth"] for r in rows] == [0, 1, 2]
        assert [len(r["cells"]) for r in rows] == [1, 2, 4]
        assert rows[2]["cells"] == [
            [["1", "0"], ["4", "1"]],
            [["7", "3"], ["2", "1"]],
            [["1", "3"], ["2", "7"]],
            [["1", "6"], ["0", "1"]],
        ]

    @staticmethod
    def json_rows(u, v, depth):
        """The rows as json.dumps prints them from whole TreeRows."""
        params = MonoidParams(u, v)
        return "".join(
            json.dumps({"depth": n, "cells": [m.to_json() for m in tree.row(IDENTITY, params, n)]})
            + "\n" for n in range(depth + 1)
        )

    @pytest.mark.parametrize("u, v", [(1, 1), (2, 3), (5, 7)])
    @pytest.mark.parametrize("depth", [0, 1, 8])
    def test_streamed_rows_match_json_dumps(self, capsys, u, v, depth):
        code, out, err = run(capsys, ["tree", "--u", str(u), "--v", str(v), "--depth", str(depth)])
        assert (code, out, err) == (0, self.json_rows(u, v, depth), "")

    @needs_digit_cap
    def test_entries_past_the_digit_cap(self, capsys):
        # 4,000-digit arguments parse at the default cap; their depth-2 products pass it.
        u, v = "1" + "0" * 3998 + "7", "2" * 4000
        with digit_cap(DIGIT_CAP):
            code, out, err = run(capsys, ["tree", "--u", u, "--v", v, "--depth", "2"])
            expected = self.json_rows(int(u), int(v), 2)
        assert (code, out, err) == (0, expected, "")
        assert len(max(out.split('"'), key=len)) > DIGIT_CAP

    def test_enumeration_cap_is_a_domain_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MATMONOID_ENUM_LIMIT", "4")
        code, out, err = run(capsys, ["tree", "--u", "2", "--v", "3", "--depth", "3"])
        assert code == 1
        assert err.startswith("error:")
        assert out == ""


class TestVerifyCommand:
    def test_full_report_is_pinned(self, capsys):
        expected = (Path(__file__).parent / "data" / "verify_all.txt").read_text()
        code, out, _ = run(capsys, ["verify"])
        assert code == 0
        assert out == expected

    @pytest.mark.parametrize("depth", [0, 6])
    def test_report_at_other_depths_is_pinned(self, capsys, depth):
        # Scope texts follow --max-depth, so the default depth alone does not pin them.
        expected = (Path(__file__).parent / "data" / f"verify_depth{depth}.txt").read_text()
        code, out, _ = run(capsys, ["verify", "--max-depth", str(depth)])
        assert code == 0
        assert out == expected

    def test_suite_choices_are_the_suite_names(self):
        assert _SUITE_CHOICES == suites.SUITE_NAMES + ("all",)

    def test_suite_order(self):
        assert suites.SUITE_NAMES == ("formulas", "symmetry", "polydom", "hash")
        each = [r.line() for name in suites.SUITE_NAMES for r in suites.run_suite(name, 2)]
        assert [r.line() for r in suites.run_suite("all", 2)] == each

    def test_failure_report(self, capsys, monkeypatch):
        true_maximum = tree.mu_row_bruteforce
        monkeypatch.setattr(
            tree, "mu_row_bruteforce", lambda params, n: true_maximum(params, n) + 1
        )
        code, out, _ = run(capsys, ["verify", "--suite", "formulas", "--max-depth", "3"])
        assert code == 1
        assert out == (
            "FAIL max-entry-oracle ((u,v) in [1..4]^2, depth <= 3)\n"
            "    u=1 v=1 n=0: lucas 1 != brute 2\n"
            "    u=1 v=1 n=1: lucas 1 != brute 2\n"
            "    u=1 v=1 n=2: lucas 2 != brute 3\n"
            "    u=1 v=1 n=3: lucas 3 != brute 4\n"
            "    u=1 v=2 n=0: lucas 1 != brute 2\n"
            "    ... and 59 more\n"
            "PASS radical-closed-form ((u,v) in [1..3]^2, n <= 3, both parities, rel tol 1e-9)\n"
            "PASS max-entry-uv-symmetric ((u,v) in [1..4]^2, depth <= 8)\n"
            "PASS max-entry-monotone ((u,v) in [1..4]^2, strict from depth 1 to 8)\n"
            "PASS witness-attainment ((u,v) in [1..4]^2, depth 1..6)\n"
            "PASS alternating-column ((u,v) in [1..3]^2, n <= 3, start column (1,u), rel tol 1e-9)\n"
            "PASS fibonacci-like-link ((u,v) in [1..4]^2 with min>1 or u=v=1, offset 1, depth <= 8)\n"
            "PASS lucas-pairs (P in [3..11], m <= 8, doubling vs recurrence)\n"
            "7/8 checks passed\n"
        )

    @pytest.mark.parametrize("module,name", [(tree, "mu_row_bruteforce"), (extremal, "mu_depth")])
    def test_max_entry_oracle_fails_on_one_wrong_value(self, monkeypatch, module, name):
        # One more at (3, 2, 7), from either side, is the one failure reported.
        true_value = getattr(module, name)
        monkeypatch.setattr(module, name, lambda params, n: true_value(params, n) + (
            (params.u, params.v, n) == (3, 2, 7)))
        result = suites.check_max_entry_oracle(10)
        right = mu_depth(MonoidParams(3, 2), 7)
        lucas, brute = (right + 1, right) if module is extremal else (right, right + 1)
        assert (result.passed, result.failures) == (
            False, [f"u=3 v=2 n=7: lucas {lucas} != brute {brute}"])

    def test_polydom_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "polydom"])
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_hash_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "hash"])
        assert code == 0
        assert "FAIL" not in out

    def test_low_depth_all_suites(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "all", "--max-depth", "6"])
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize("depth", [suites.MAX_DEPTH + 1, 100000])
    def test_depth_past_the_ceiling_is_a_domain_error(self, capsys, depth):
        code, out, err = run(capsys, ["verify", "--max-depth", str(depth)])
        assert code == 1
        assert out == ""
        assert err == f"error: --max-depth must be at most {suites.MAX_DEPTH}, got {depth}\n"

    @pytest.mark.parametrize("depth", [suites.MAX_DEPTH + 1, 100000])
    @pytest.mark.parametrize("name", suites.SUITE_NAMES + ("all",))
    def test_run_suite_refuses_depth_past_the_ceiling(self, name, depth):
        with pytest.raises(InvalidParams, match=f"--max-depth must be at most {suites.MAX_DEPTH}"):
            suites.run_suite(name, depth)

    @pytest.mark.parametrize("depth", [1.5, None, -3, True, "10"])
    @pytest.mark.parametrize("name", ["formulas", "all"])
    def test_run_suite_refuses_a_depth_that_is_not_a_nonnegative_int(self, name, depth):
        with pytest.raises(InvalidParams, match="max_depth must be a nonnegative integer"):
            suites.run_suite(name, depth)

    def test_unknown_suite_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "everything"])
        assert exc.value.code == 2
        with pytest.raises(ValueError, match="unknown suite 'nope'"):
            suites.run_suite("nope", 10)


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["mu", "--u", "0", "--v", "3", "--depth", "1"],
        ["mu", "--u", "2", "--v", "3", "--depth", "-1"],
        ["mu", "--u", "2", "--v", "3", "--depth", "two"],
        ["hash", "--u", "2", "--v", "3"],
        ["frobnicate"],
        [],
    ])
    def test_exit_code_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @needs_digit_cap
    def test_an_integer_past_the_digit_cap_names_the_knob(self, capsys):
        limit = sys.get_int_max_str_digits() or DIGIT_CAP
        with digit_cap(limit), pytest.raises(SystemExit) as exc:
            main(["bound", "--u", "1", "--v", "1", "--p", "3" * (limit + 1)])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert len(errors) == 1 and len(errors[0]) < 200
        assert errors[0].endswith(f"argument --p: an integer of {limit + 1} digits, above the "
                                  f"limit of {limit}; raise it with PYTHONINTMAXSTRDIGITS")

    @needs_digit_cap
    def test_the_digit_cap_lifted_the_same_integer_is_read(self, monkeypatch):
        monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "0")
        proc = run_python("-m", "matmonoid.cli", "bound", "--u", "1", "--v", "1",
                          "--p", "3" * (DIGIT_CAP + 1))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: p must be prime, got 333")

    @needs_digit_cap
    @pytest.mark.parametrize("env,argv,want", [
        (errors.ENUM_LIMIT_ENV, ["mu", "--method", "brute", "--u", "1", "--v", "1", "--depth", "5"],
         lambda: mu_depth(MonoidParams(1, 1), 5)),
        # An answer of some 75 KB, past the output floor, so the cap is read.
        (errors.OUTPUT_LIMIT_ENV, ["mu", "--u", str(10**23), "--v", str(10**23), "--depth", "8000"],
         lambda: mu_depth(MonoidParams(10**23, 10**23), 8000)),
    ], ids=["enum", "output"])
    def test_a_limit_past_the_digit_cap_names_both_knobs(self, monkeypatch, env, argv, want):
        answer = decimal_str(want()) + "\n"
        monkeypatch.setenv(env, "7" * (DIGIT_CAP + 1))
        monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", str(DIGIT_CAP))
        proc = run_python("-m", "matmonoid.cli", *argv)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert len(proc.stderr.splitlines()) == 1 and len(proc.stderr) < 200
        assert proc.stderr == (f"error: {env} is an integer of {DIGIT_CAP + 1} digits, above the "
                               f"limit of {DIGIT_CAP}; raise it with PYTHONINTMAXSTRDIGITS\n")
        monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "0")
        proc = run_python("-m", "matmonoid.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, answer, "")

    @pytest.mark.parametrize("env", [errors.ENUM_LIMIT_ENV, errors.OUTPUT_LIMIT_ENV])
    def test_a_limit_that_is_not_a_number_is_echoed(self, monkeypatch, env):
        monkeypatch.setenv(env, "lots")
        with pytest.raises(errors.LimitExceeded, match=f"^{env} must be an integer, got 'lots'$"):
            errors._cap(env, 1)

    @pytest.mark.parametrize("text", ["1e3", "--3", "3.0", "0x10", "٣²"])
    def test_a_non_integer_is_echoed(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--u", "1", "--v", "1", f"--p={text}"])
        assert exc.value.code == 2
        assert f"argument --p: expected an integer, got {text!r}" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("matmonoid ")


class TestHelp:
    @pytest.mark.parametrize("argv,name", [
        (["--help"], "help.txt"),
        (["verify", "--help"], "help_verify.txt"),
    ])
    def test_help_is_pinned(self, capsys, monkeypatch, argv, name):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out == (Path(__file__).parent / "data" / name).read_text()

    def test_mu_help_describes_the_brute_force_by_halves(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["mu", "--help"])
        assert exc.value.code == 0
        assert " ".join(capsys.readouterr().out.split()).endswith(
            "--method {lucas,witness,brute} lucas: O(log n) doubling; witness: build the "
            "extremal word; brute: enumerate two half-depth rows (default: lucas)")


def run_python(*args, timeout=120, **kwargs):
    """A fresh interpreter that imports this checkout's matmonoid."""
    src = str(Path(matmonoid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout,
        env=dict(os.environ, PYTHONPATH=path), **kwargs,
    )


def imported_modules(argv):
    """The modules a fresh interpreter imports for cli.main(argv), or for
    `import matmonoid` alone when argv is None. They are listed before json
    is imported to print them."""
    script = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import matmonoid\n"
        "if len(sys.argv) > 1:\n"
        "    from matmonoid.cli import main\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(sys.argv[1:]) == 0\n"
        "loaded = sorted(set(sys.modules) - before)\n"
        "import json\n"
        "print(json.dumps(loaded))\n"
    )
    proc = run_python("-c", script, *(argv or []))
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def loaded_modules(argv):
    """The matmonoid submodules imported_modules(argv) holds."""
    return {
        name.removeprefix("matmonoid.")
        for name in imported_modules(argv) if name.startswith("matmonoid.")
    }


UV = ["--u", "2", "--v", "3"]
HASH = ["hash", *UV, "--p", "101", "--input", os.devnull]
# Each command, by a short name.
COMMANDS = {
    "mu": ["mu", *UV, "--depth", "10"],
    "mu-witness": ["mu", *UV, "--depth", "10", "--method", "witness"],
    "mu-brute": ["mu", *UV, "--depth", "4", "--method", "brute"],
    "witness-text": ["witness", *UV, "--depth", "10"],
    "witness-json": ["witness", *UV, "--depth", "10", "--format", "json"],
    "bound": ["bound", *UV, "--p", "101"],
    "hash-hex": [*HASH, "--format", "hex"],
    "hash-json": [*HASH, "--format", "json"],
    "tree": ["tree", *UV, "--depth", "2"],
    "verify": ["verify", "--max-depth", "2"],
}


def commands(*names):
    return pytest.mark.parametrize(
        "argv", [COMMANDS[name] for name in names or COMMANDS], ids=names or list(COMMANDS)
    )


NINES = "9" * 5000
# Inputs past a limit, each with the exit code it ends in.
PROBES = {
    "tree-depth-40": (["tree", "--u", "1", "--v", "1", "--depth", "40"], 1),
    "brute-depth-40": (["mu", "--method", "brute", "--u", "1", "--v", "1", "--depth", "40"], 1),
    "mu-depth-10^12": (["mu", *UV, "--depth", "1000000000000"], 1),
    "mu-depth-1e3": (["mu", *UV, "--depth", "1e3"], 2),
    "mu-depth-5000-nines": (["mu", *UV, "--depth", NINES], 2),
    "verify-max-depth-301": (["verify", "--max-depth", "301"], 1),
    "hash-p-4": (["hash", *UV, "--p", "4"], 1),
    "bound-p-1": (["bound", *UV, "--p", "1"], 1),
    "hash-u-0": (["hash", "--u", "0", "--v", "3", "--p", "5"], 2),
    "witness-u-10^23": (["witness", "--u", str(10**23), "--v", "1", "--depth", "5"], 0),
    "hash-missing-input": (["hash", *UV, "--p", "5", "--input", "missing.bits"], 1),
    "witness-depth-10^11": (["witness", *UV, "--depth", "100000000000"], 1),
    "bound-p-5000-nines": (["bound", *UV, "--p", NINES], 2),
}


@pytest.mark.parametrize("argv, code", PROBES.values(), ids=PROBES)
def test_probe_ends_in_its_exit_code_not_a_traceback(tmp_path, argv, code):
    # A 2 GB address space, in the child only: a runaway allocation fails fast.
    limit = 2 * 2**30
    proc = run_python(
        "-m", "matmonoid.cli", *argv, timeout=20, cwd=tmp_path, stdin=subprocess.DEVNULL,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


class TestImportOnDemand:
    """Each command imports only the modules it runs."""

    def test_package_import_loads_no_module(self):
        assert loaded_modules(None) == set()

    @pytest.mark.parametrize("argv", [
        ["mu", "--u", "2", "--v", "3", "--depth", "10"],
        ["mu", "--u", "2", "--v", "3", "--depth", "10", "--method", "witness"],
        ["witness", "--u", "2", "--v", "3", "--depth", "10"],
    ])
    def test_mu_and_witness_load_the_ladder_only(self, argv):
        assert loaded_modules(argv) == {"cli", "errors", "matrix", "extremal"}

    @pytest.mark.parametrize("argv", [
        ["bound", "--u", "2", "--v", "3", "--p", "101"],
        ["hash", "--u", "2", "--v", "3", "--p", "101", "--input", os.devnull],
    ])
    def test_hash_and_bound_add_bsvhash(self, argv):
        assert loaded_modules(argv) == {"cli", "errors", "matrix", "extremal", "bsvhash"}

    @pytest.mark.parametrize("argv", [
        ["tree", "--u", "2", "--v", "3", "--depth", "2"],
        ["mu", "--u", "2", "--v", "3", "--depth", "4", "--method", "brute"],
    ])
    def test_tree_and_brute_load_the_tree(self, argv):
        assert loaded_modules(argv) == {"cli", "errors", "matrix", "tree"}

    @commands()
    def test_no_command_loads_dataclasses_or_inspect(self, argv):
        assert not imported_modules(argv) & {"dataclasses", "inspect"}

    @commands()
    def test_no_command_loads_json(self, argv):
        assert "json" not in imported_modules(argv)

    def test_package_never_imports_the_cli(self):
        # Were cli in sys.modules before `-m matmonoid.cli` ran it, runpy would warn.
        proc = run_python("-X", "dev", "-W", "error", "-m", "matmonoid.cli", "--version")
        version = f"matmonoid {matmonoid.__version__}\n"
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, version, "")

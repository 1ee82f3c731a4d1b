"""End-to-end command-line behavior: outputs, formats, and exit codes."""
import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

import pytest

from matmonoid import InvalidParams, MonoidParams, mu_depth, suites, tree, witness
from matmonoid.cli import main
from matmonoid.errors import decimal_str

# Python 3.10.7+ refuses int <-> decimal conversions past this many digits.
DIGIT_CAP = 4300


@contextlib.contextmanager
def no_digit_cap():
    """Lets the test itself print the library's huge integers."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


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
        monkeypatch.setattr("sys.stdin", io.StringIO("0 11 0\n0"))
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

    def test_composite_modulus_is_a_domain_error(self, capsys, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("01100")
        code, out, err = run(capsys, [
            "hash", "--u", "2", "--v", "3", "--p", "4", "--input", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run(capsys, [
            "hash", "--u", "2", "--v", "3", "--p", "5",
            "--input", str(tmp_path / "absent.txt")])
        assert code == 1
        assert err.startswith("error:")

    def test_bad_bit_characters(self, capsys, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("01102")
        code, out, err = run(capsys, [
            "hash", "--u", "2", "--v", "3", "--p", "5", "--input", str(path)])
        assert (code, out) == (1, "")
        assert err == "error: invalid character '2'; expected '0', '1', or whitespace\n"

    @pytest.mark.parametrize("text", ["", " \n\t", "1", "0 1\n1\t0\x0b1\x0c0\r1 1 0"])
    def test_ascii01_digits_hash_like_the_bit_list(self, capsys, monkeypatch, text):
        from matmonoid import HashParams, bits_from_ascii01, digest_hex, hash_string
        hp = HashParams(2, 3, 101)
        expected = digest_hex(hash_string(hp, bits_from_ascii01(text)), hp)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
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
        cap = sys.get_int_max_str_digits()
        for value in values:
            with no_digit_cap():
                expected = str(value)
            assert decimal_str(value) == expected, value.bit_length()
            assert sys.get_int_max_str_digits() == cap


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

    def test_suite_order(self):
        assert suites.SUITE_NAMES == ("formulas", "symmetry", "polydom", "hash")
        each = [r.line() for name in suites.SUITE_NAMES for r in suites.run_suite(name, 2)]
        assert [r.line() for r in suites.run_suite("all", 2)] == each

    def test_failure_report(self, capsys, monkeypatch):
        true_maximum = tree.mu_row_bruteforce
        monkeypatch.setattr(
            tree, "mu_row_bruteforce", lambda params, n, limit=None: true_maximum(params, n) + 1
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

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("matmonoid ")

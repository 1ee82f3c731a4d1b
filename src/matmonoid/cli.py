"""Command-line interface: hashing, bounds, max entries, witnesses, trees.

All numeric output is exact decimal; big integers go into JSON as
decimal strings so any parser round-trips them. Exit codes: 0 success,
1 domain errors (bad primes, unreachable matrices, exceeded limits,
failed verification), 2 usage errors. Each command imports what it runs
inside its own function: `mu` never loads the hash, the tree or json.
"""
from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import MatMonoidError, decimal_str, past_digit_cap
from .matrix import IDENTITY, MonoidParams


def _int_at_least(low: int, kind: str):
    """An argparse type: an integer of at least low, described as kind."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            why = past_digit_cap(text) or f"expected an integer, got {text!r}"
            raise argparse.ArgumentTypeError(why) from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {value}")
        return value

    return convert


_positive_int = _int_at_least(1, "a positive integer")
_nonneg_int = _int_at_least(0, "a nonnegative integer")
# suites.SUITE_NAMES plus "all", written out so --help need not load suites.
_SUITE_CHOICES = ("formulas", "symmetry", "polydom", "hash", "all")


def _add_uv(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--u", type=_positive_int, required=True, help="lower shear multiplier")
    parser.add_argument("--v", type=_positive_int, required=True, help="upper shear multiplier")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matmonoid",
        description="Exact maximal entries, witness words, and the SL2(F_p) "
        "bit-string hash for the free monoid of two shear matrices.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_hash = sub.add_parser("hash", help="hash a bit stream into SL2(F_p)")
    _add_uv(p_hash)
    p_hash.add_argument("--p", type=_positive_int, required=True, help="prime modulus")
    p_hash.add_argument(
        "--input", default="-", metavar="FILE",
        help="input path, or '-' for stdin (default)",
    )
    p_hash.add_argument(
        "--bits", choices=("ascii01", "bytes-msb"), default="ascii01",
        help="ascii01: literal 0/1 characters, whitespace ignored; "
        "bytes-msb: raw bytes, most significant bit first (default: ascii01)",
    )
    p_hash.add_argument(
        "--format", choices=("hex", "json"), default="hex",
        help="hex: fixed-width big-endian digest bytes in lowercase hex; "
        "json: matrix of decimal strings (default: hex)",
    )

    p_bound = sub.add_parser(
        "bound", help="largest length n0 with no collisions between strings up to n0"
    )
    _add_uv(p_bound)
    p_bound.add_argument("--p", type=_positive_int, required=True, help="prime modulus")

    p_mu = sub.add_parser("mu", help="exact maximal entry over all products of a depth")
    _add_uv(p_mu)
    p_mu.add_argument("--depth", type=_nonneg_int, required=True)
    p_mu.add_argument(
        "--method", choices=("lucas", "witness", "brute"), default="lucas",
        help="lucas: O(log n) doubling; witness: build the extremal word; "
        "brute: enumerate two half-depth rows (default: lucas)",
    )

    p_wit = sub.add_parser("witness", help="a word attaining the depth maximum")
    _add_uv(p_wit)
    p_wit.add_argument("--depth", type=_positive_int, required=True)
    p_wit.add_argument("--format", choices=("text", "json"), default="text")

    p_tree = sub.add_parser("tree", help="emit tree rows 0..depth as JSON lines")
    _add_uv(p_tree)
    p_tree.add_argument("--depth", type=_nonneg_int, required=True)

    p_verify = sub.add_parser(
        "verify",
        help="run the self-check suites",
        description="Runs cross-verification suites and prints one PASS/FAIL "
        "line per property. Grids are fixed: formulas checks (u,v) in [1..4]^2 "
        "against brute force and (u,v) in [1..3]^2 against 120-bit radical "
        "forms; symmetry checks mirror/flip/half-row/column/classification "
        "properties over [1..3]^2 (bound checks over [1..4]^2); polydom checks "
        "the dominance order laws on seeded random polynomials and the four "
        "binomial families for n <= 20; hash checks the worked example, the "
        "no-collision horizon over (u,v) in {(1,1),(2,3),(3,2),(2,2)} x "
        "p in {101,257,1009}, and streaming laws. --max-depth caps the "
        "enumeration depth of the formulas/symmetry suites.",
    )
    p_verify.add_argument("--suite", choices=_SUITE_CHOICES, default="all")
    p_verify.add_argument("--max-depth", type=_nonneg_int, default=10)
    return parser


def _read_input(args: argparse.Namespace) -> bytes:
    """The raw bytes of the --input file, or of stdin."""
    if args.input == "-":
        return sys.stdin.buffer.read()
    try:
        with open(args.input, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise OSError(f"cannot read --input {args.input!r}: {exc.strerror}") from None


def _cmd_hash(args: argparse.Namespace) -> int:
    from . import bsvhash
    params = bsvhash.HashParams(args.u, args.v, args.p)
    data = _read_input(args)
    if args.bits == "ascii01":
        if not data.isascii():
            at = len(data) - len(data.lstrip(bytes(range(128))))
            raise ValueError(f"invalid byte {data[at]:#04x} at offset {at}; "
                             "expected '0', '1', or whitespace")
        digest = bsvhash.hash_string(params, bsvhash._ascii01_digits(data.decode("ascii")))
    else:
        digest = bsvhash.HashState(params).update_bytes(data).digest()
    if args.format == "hex":
        print(bsvhash.digest_hex(digest, params))
    else:
        import json
        print(json.dumps(digest.to_json()))
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    from . import bsvhash
    params = bsvhash.HashParams(args.u, args.v, args.p)
    print(bsvhash.bound_n0(params))
    return 0


def _cmd_mu(args: argparse.Namespace) -> int:
    params = MonoidParams(args.u, args.v)
    if args.method == "brute":
        from .tree import mu_row_bruteforce
        value = mu_row_bruteforce(params, args.depth)
    elif args.method == "witness" and args.depth >= 1:
        from .extremal import witness
        value = witness(params, args.depth).value
    else:
        from .extremal import mu_depth
        value = mu_depth(params, args.depth)
    print(decimal_str(value))
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    import json
    from . import extremal
    params = MonoidParams(args.u, args.v)
    w = extremal.witness(params, args.depth)
    # Format everything before printing, so a failure prints nothing.
    value = decimal_str(w.value)
    matrix = w.matrix.to_json()
    if args.format == "json":
        text = json.dumps(
            {"word": w.word, "matrix": matrix, "position": list(w.position), "value": value}
        )
    else:
        text = (
            f"word: {w.word}\n"
            f"matrix: {json.dumps(matrix)}\n"
            f"entry: ({w.position[0]},{w.position[1]})\n"
            f"value: {value}"
        )
    print(text)
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    from . import tree
    params = MonoidParams(args.u, args.v)
    # Rows grow with depth: if the deepest row is within the cap, all are.
    tree.require_row(args.depth)
    write = sys.stdout.write
    # Each row streams one cell at a time, in the bytes json.dumps would print.
    for n in range(args.depth + 1):
        sep = '{"depth": %d, "cells": [' % n
        for cell in tree._row_cells(IDENTITY, params, n):
            write(sep + '[["%s", "%s"], ["%s", "%s"]]' % tuple(map(decimal_str, cell)))
            sep = ", "
        write("]}\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import suites
    results = suites.run_suite(args.suite, args.max_depth)
    for result in results:
        print(result.line())
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except (MatMonoidError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

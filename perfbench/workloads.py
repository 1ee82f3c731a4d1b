"""The three benchmark workloads, built from a seed.

Each workload is a fixed list of requests. Sizes (depths, payload bytes,
bound bits) sit on fixed geometric ladders that the seed moves by a few
percent, so the work in one pass barely depends on the seed; the seed
picks everything else (payload bytes, residues, bounds, start columns,
parameter pairs). Expected outputs come from oracles.py and are computed
here, before any timing starts.

exact-deep   library calls in extremal and matrix: a few huge big-integer
             products (the Lucas ladder) next to O(n) loops of big-integer
             additions (witness, factor, alpha_gamma). No bsvhash, tree or cli.
hash-stream  library bsvhash calls: many cheap modular shear steps
             (hash_string), digest round trips, bound_n0, and dict-heavy
             exhaustive collision searches. The primality gate of every
             HashParams lands in set-up, not in the requests.
cli-mix      the matmonoid command line as a subprocess, one at a time:
             interpreter start, the package import, the primality gate,
             input decoding and decimal output, plus the only calls into
             tree, polydom and suites.
"""
from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable

import oracles as orc

PAIRS = ((1, 1), (2, 3), (5, 7))

# RFC 3526 group 14 (2048-bit MODP) prime, as in the acceptance tests.
PRIME_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
SMALL_PRIMES = (101, 2**61 - 1, 2**127 - 1, 2**521 - 1)
# Every (u, v, p) a hash-stream request uses. The 2048-bit prime gets a
# single pair because each HashParams for it costs seconds of Miller-Rabin.
HASH_PARAMS = tuple((u, v, p) for p in SMALL_PRIMES for u, v in PAIRS) + ((2, 3, PRIME_2048),)
# The (u, v, p) the cli-mix commands build HashParams for.
CLI_HASH_PARAMS = ((2, 3, 101), (1, 1, 2**61 - 1), (5, 7, 2**127 - 1),
                   (2, 3, 2**521 - 1), (2, 3, PRIME_2048))

# Python refuses to turn integers of more than this many digits into text
# unless told otherwise; the CLI does not, which is a known defect.
INT_TEXT_CAP = 4300

WORKLOADS = ("exact-deep", "hash-stream", "cli-mix")
CLI_TIMEOUT_S = 150


@dataclass
class Request:
    """One call: run() does the timed work, check() compares its output.

    check returns True when the output matches the reference. run raising,
    or a CLI exit code other than 0, is a failed request, not a wrong one.
    size (a depth, length or byte count) picks the smallest request of each
    kind for the warm-up.
    """

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    size: int = 0


def strata(rng, k, lo, hi):
    """k values log-uniform on [lo, hi], one drawn from each of k equal strata."""
    span = math.log(hi / lo)
    return [lo * math.exp(span * (i + rng.random()) / k) for i in range(k)]


def ladder(rng, k, lo, hi, jitter=0.05):
    """k sizes on a geometric ladder from lo to hi, each moved by up to +-jitter."""
    ratio = (hi / lo) ** (1 / (k - 1))
    return [int(lo * ratio**i * (1 + jitter * (2 * rng.random() - 1))) for i in range(k)]


def _residues(mat):
    return tuple(x % orc.Q61 for x in mat)


def _mat(m):
    return (m.a, m.b, m.c, m.d)


# ---------------------------------------------------------------------------
# exact-deep


def exact_deep(rng, mm, params_by_pair):
    ext, mx = mm.extremal, mm.matrix
    reqs = []
    for u, v in PAIRS:
        params = params_by_pair[(u, v)]
        for n in ladder(rng, 12, 100, 10**6):
            reqs.append(_mu_depth_request(ext, params, n))
        for n in ladder(rng, 12, 100, 10**6):
            P, m = 2 + u * v, n // 2
            expected = orc.lucas_residues(P, m)
            reqs.append(Request(
                "lucas", f"lucas(P={P}, m={m})",
                lambda P=P, m=m: ext.lucas(P, m),
                lambda out, P=P, m=m, e=expected: (out.P, out.m) == (P, m)
                and (out.U % orc.Q61, out.V % orc.Q61) == e, m,
            ))
        for n in ladder(rng, 8, 100, 30000):
            reqs.append(_witness_request(ext, params, n))
        for n in ladder(rng, 8, 100, 30000):
            word = orc.witness_word(u, v, n)
            expected = _residues(orc.word_product(word, u, v, orc.Q61))
            reqs.append(Request(
                "roundtrip", f"factor(word_to_matrix(w)) u={u} v={v} |w|={n}",
                lambda w=word, p=params: (lambda m: (m, mx.factor(m, p)))(mx.word_to_matrix(w, p)),
                lambda out, w=word, e=expected: out[1] == w and _residues(_mat(out[0])) == e,
                n,
            ))
        for n in ladder(rng, 6, 100, 10**4):
            a, c = rng.randrange(0, 10), rng.randrange(1, 10)
            expected = orc.alpha_gamma_exact(u, v, a, c, n)
            reqs.append(Request(
                "alpha_gamma", f"alpha_gamma u={u} v={v} ({a},{c}) n={n}",
                lambda p=params, a=a, c=c, n=n: ext.alpha_gamma(p, a, c, n),
                lambda out, n=n, e=expected: out.n == n and (out.alpha, out.gamma) == e, n,
            ))
        for n in ladder(rng, 6, 100, 10**4):
            expected = orc.fseq_exact(u, v, n)
            reqs.append(Request(
                "fseq", f"fseq u={u} v={v} n={n}",
                lambda p=params, n=n: ext.fseq(p, n),
                lambda out, e=expected: out == e, n,
            ))
        for bits in ladder(rng, 8, 7, 2048):
            bound = rng.randrange(1 << (bits - 1), 1 << bits)
            expected = orc.horizon(u, v, bound)
            reqs.append(Request(
                "collision_horizon", f"collision_horizon u={u} v={v} bound~2^{bits}",
                lambda p=params, b=bound: ext.collision_horizon(p, b),
                lambda out, e=expected: out == e, bits,
            ))
    return reqs


def _mu_depth_request(ext, params, n):
    u, v = params.u, params.v
    # Exact up to the witness range, residues mod a 61-bit prime beyond it.
    exact = orc.max_entry(u, v, n) if n <= 30000 else None
    residue = orc.max_entry(u, v, n, orc.Q61)
    return Request(
        "mu_depth", f"mu_depth u={u} v={v} n={n}",
        lambda: ext.mu_depth(params, n),
        lambda out: out % orc.Q61 == residue and (exact is None or out == exact), n,
    )


def _witness_request(ext, params, n):
    u, v = params.u, params.v
    value = orc.max_entry(u, v, n)
    checked = {}

    def check(out):
        word = out.word
        if len(word) != n or word.strip("LR"):
            return False
        if checked.get("word") != word:
            checked["word"] = word
            checked["product"] = _residues(orc.word_product(word, u, v, orc.Q61))
        mat = _mat(out.matrix)
        return (_residues(mat) == checked["product"]
                and orc.entry(mat, out.position) == out.value == value)

    return Request("witness", f"witness u={u} v={v} n={n}",
                   lambda: ext.witness(params, n), check, n)


# ---------------------------------------------------------------------------
# hash-stream


def ascii01_payload(rng, size):
    """size characters of '0'/'1' text, broken into 64-character lines."""
    bits = format(rng.getrandbits(size), f"0{size}b")
    return "\n".join(bits[i:i + 64] for i in range(0, size, 64))


def hash_stream(rng, mm, params_by_key):
    bs = mm.bsvhash
    reqs = []
    # (decoder, size, prime): 1 KB to 256 KB of raw bytes (up to 2 Mbit) and
    # 1 KB to 1 MB of '0'/'1' text (up to 1 Mbit). The largest payloads go
    # to the cheaper primes so that one pass stays a few seconds; every
    # prime sees both decoders.
    skeleton = list(zip(
        ["bytes-msb"] * 5 + ["ascii01"] * 6,
        ladder(rng, 5, 1 << 10, 1 << 18) + ladder(rng, 6, 1 << 10, 1 << 20),
        (101, 2**521 - 1, PRIME_2048, 2**61 - 1, 101,
         2**127 - 1, 2**61 - 1, 101, PRIME_2048, 2**521 - 1, 2**127 - 1),
    ))
    for decoder, size, p in skeleton:
        u, v = (2, 3) if p == PRIME_2048 else rng.choice(PAIRS)
        hp = params_by_key[(u, v, p)]
        if decoder == "bytes-msb":
            data = rng.randbytes(size)
            expected = orc.hash_bytes_msb(data, u, v, p)
            run = lambda hp=hp, data=data: bs.hash_string(hp, bs.bits_from_bytes_msb(data))
        else:
            data = ascii01_payload(rng, size)
            expected = orc.hash_bits(data, u, v, p)
            run = lambda hp=hp, data=data: bs.hash_string(hp, bs.bits_from_ascii01(data))
        reqs.append(Request(
            "hash_string", f"hash {decoder} {size} B u={u} v={v} p~2^{p.bit_length()}",
            run, lambda out, e=expected: (out.a, out.b, out.c, out.d) == e,
            size * 8 if decoder == "bytes-msb" else size,
        ))
    for (u, v, p), hp in params_by_key.items():
        residues = tuple(rng.randrange(p) for _ in range(4))
        digest = bs.Digest(*residues)
        expected = orc.digest_bytes(residues, p)
        reqs.append(Request(
            "serialize_parse", f"serialize/parse p~2^{p.bit_length()}",
            lambda d=digest, hp=hp: (lambda raw: (raw, bs.parse(raw, hp)))(bs.serialize(d, hp)),
            lambda out, d=digest, e=expected: out[0] == e and out[1] == d, p.bit_length(),
        ))
        n0 = orc.horizon(u, v, p)
        reqs.append(Request(
            "bound_n0", f"bound_n0 u={u} v={v} p~2^{p.bit_length()}",
            lambda hp=hp: bs.bound_n0(hp), lambda out, e=n0: out == e, p.bit_length(),
        ))
    for max_len in range(14, 19):
        # The pair is pinned per length: it sets the entry sizes and so the
        # memory of the search, which must not depend on the seed.
        u, v = PAIRS[max_len % 3]
        key = rng.choice([k for k in params_by_key if k[:2] == (u, v) and k[2] > 101])
        hp = params_by_key[key]
        # Below the horizon no two strings collide, so the search finds none.
        if max_len > orc.horizon(u, v, key[2]):
            raise ValueError(f"max_len {max_len} is past the horizon for {key}")
        reqs.append(Request(
            "exhaustive_collision_check",
            f"exhaustive_collision_check max_len={max_len} u={u} v={v} p~2^{key[2].bit_length()}",
            lambda hp=hp, m=max_len: bs.exhaustive_collision_check(hp, m),
            lambda out: out is None,
            max_len,
        ))
    return reqs


# ---------------------------------------------------------------------------
# cli-mix


def _digits_per_depth(u, v):
    uv = u * v
    return math.log10((2 + uv + math.sqrt(uv * (4 + uv))) / 2) / 2


def _depths_for_digits(rng, u, v, k):
    """k depths: k - 1 answers of 10 digits up to just under the text cap, one past it.

    The last depth always answers with more than INT_TEXT_CAP digits, so the
    known digit-cap defect shows as exactly one failure per list; the margin
    of 300 digits absorbs the rounding of digits to depths.
    """
    digits = (strata(rng, k - 1, 10, INT_TEXT_CAP - 300)
              + strata(rng, 1, INT_TEXT_CAP + 300, 10000))
    return [max(1, round(d / _digits_per_depth(u, v))) for d in digits]


class CliRunner:
    """Runs `python -m matmonoid.cli ARGV` with PYTHONPATH at the checkout's src.

    Each child is reaped with os.wait4 to read its own peak RSS; peak_kb is
    the largest so far. A child's peak also counts the memory of the process
    that started it, so that process should stay small.
    """

    def __init__(self, root, tmpdir):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        # The child keeps Python's default int-to-text cap.
        self.env.pop("PYTHONINTMAXSTRDIGITS", None)
        self.out_path = os.path.join(tmpdir, "stdout")
        self.err_path = os.path.join(tmpdir, "stderr")
        self.last_rss_kb = self.peak_kb = 0

    def __call__(self, argv, stdin_path=None):
        with open(stdin_path or os.devnull, "rb") as fin, \
                open(self.out_path, "w+b") as out, open(self.err_path, "w+b") as err:
            proc = subprocess.Popen([sys.executable, "-m", "matmonoid.cli", *argv],
                                    stdin=fin, stdout=out, stderr=err, env=self.env)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.last_rss_kb = usage.ru_maxrss
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read(), err.read()


def in_process(cli_main, argv, stdin_path=None):
    """cli.main(argv) with stdin/stdout/stderr swapped; same result shape as CliRunner."""
    data = b""
    if stdin_path is not None:
        with open(stdin_path, "rb") as fh:
            data = fh.read()
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="ascii")
    sys.stdout, sys.stderr = out, err
    try:
        rc = cli_main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return rc, out.getvalue().encode(), err.getvalue().encode()


def uncapped_str(x):
    """Decimal text of x, lifting the digit cap in this process only."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(old)


def cli_mix(rng, mm, tmpdir):
    """The cli-mix commands as JSON-ready specs, payload files written to tmpdir.

    A spec holds the kind, label, argv, stdin file (or None), the expected
    stdout text and the size.
    """
    specs = []

    def add(cmd, argv, expected, size, stdin=None):
        specs.append({"kind": f"cli.{cmd}", "label": "matmonoid " + " ".join(argv),
                      "argv": argv, "stdin": stdin, "expected": expected, "size": size})

    def hash_args(u, v, p, fmt):
        return ["hash", "--u", str(u), "--v", str(v), "--p", str(p), "--format", fmt]

    def hash_text(mat, p, fmt):
        return (orc.digest_bytes(mat, p).hex() if fmt == "hex" else orc.matrix_json(mat)) + "\n"

    for i, (size, (u, v, p), fmt) in enumerate(zip(
        ladder(rng, 3, 4 << 10, 64 << 10), CLI_HASH_PARAMS[:3], ("hex", "json", "hex")
    )):
        data = rng.randbytes(size)
        path = os.path.join(tmpdir, f"payload{i}.bin")
        with open(path, "wb") as fh:
            fh.write(data)
        add("hash", hash_args(u, v, p, fmt) + ["--bits", "bytes-msb", "--input", path],
            hash_text(orc.hash_bytes_msb(data, u, v, p), p, fmt), size)
    for size, (u, v, p), fmt in zip(
        ladder(rng, 2, 2 << 10, 32 << 10), (CLI_HASH_PARAMS[3], CLI_HASH_PARAMS[0]), ("hex", "json")
    ):
        text = ascii01_payload(rng, size)
        path = os.path.join(tmpdir, f"payload{size}.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        add("hash", hash_args(u, v, p, fmt) + ["--bits", "ascii01"],
            hash_text(orc.hash_bits(text, u, v, p), p, fmt), size, stdin=path)
    for u, v, p in CLI_HASH_PARAMS[:3] + CLI_HASH_PARAMS[4:]:
        add("bound", ["bound", "--u", str(u), "--v", str(v), "--p", str(p)],
            f"{orc.horizon(u, v, p)}\n", p.bit_length())
    u, v = rng.choice(PAIRS)
    for n in _depths_for_digits(rng, u, v, 6):
        text = uncapped_str(orc.max_entry(u, v, n))
        add("mu", ["mu", "--u", str(u), "--v", str(v), "--depth", str(n)],
            text + "\n", len(text))
    for n in range(14, 19):
        u, v = PAIRS[n % 3]
        add("mu", ["mu", "--u", str(u), "--v", str(v), "--depth", str(n), "--method", "brute"],
            f"{orc.max_entry(u, v, n)}\n", n)
    for fmt in ("text", "json"):
        u, v = rng.choice(PAIRS)
        for n in _depths_for_digits(rng, u, v, 2):
            add("witness", ["witness", "--u", str(u), "--v", str(v), "--depth", str(n),
                            "--format", fmt],
                _witness_text(mm, u, v, n, fmt), n)
    for lo, hi in ((8, 10), (11, 12)):
        u, v = rng.choice(PAIRS)
        depth = rng.randint(lo, hi)
        add("tree", ["tree", "--u", str(u), "--v", str(v), "--depth", str(depth)],
            orc.tree_lines(u, v, depth), depth)
    for suite in ("formulas", "symmetry", "polydom", "hash"):
        add("verify", ["verify", "--suite", suite], _verify_text(mm, suite), 0)
    return specs


def cli_requests(specs, invoke):
    """Requests for cli-mix specs; invoke(argv, stdin_path) runs one command."""
    return [Request(
        s["kind"], s["label"],
        lambda s=s: invoke(s["argv"], s["stdin"]),
        lambda out, e=s["expected"].encode(): out[0] == 0 and out[1] == e,
        s["size"],
    ) for s in specs]


def _witness_text(mm, u, v, n, fmt):
    """The library's witness as the README prints it, after checking it."""
    w = mm.extremal.witness(mm.matrix.MonoidParams(u, v), n)
    mat = _mat(w.matrix)
    if (len(w.word) != n or w.value != orc.max_entry(u, v, n)
            or orc.word_product(w.word, u, v) != mat or orc.entry(mat, w.position) != w.value):
        raise ValueError(f"library witness for u={u} v={v} n={n} fails its oracle")
    value = uncapped_str(w.value)
    rows = [[uncapped_str(mat[0]), uncapped_str(mat[1])], [uncapped_str(mat[2]), uncapped_str(mat[3])]]
    if fmt == "json":
        return json.dumps({"word": w.word, "matrix": rows,
                           "position": list(w.position), "value": value}) + "\n"
    return (f"word: {w.word}\nmatrix: {json.dumps(rows)}\n"
            f"entry: ({w.position[0]},{w.position[1]})\nvalue: {value}\n")


def _verify_text(mm, suite):
    results = mm.suites.run_suite(suite, 10)
    if not all(r.passed for r in results):
        raise ValueError(f"verify suite {suite} fails in-process")
    lines = [r.line() for r in results] + [f"{len(results)}/{len(results)} checks passed"]
    return "".join(line + "\n" for line in lines)


def setup_params(name, mm):
    """The parameter objects a workload builds before its first request.

    For cli-mix these are the objects each command builds for itself; the
    benchmark's own process does not use them.
    """
    if name == "exact-deep":
        return {k: mm.matrix.MonoidParams(*k) for k in PAIRS}
    if name == "hash-stream":
        return {k: mm.bsvhash.HashParams(*k) for k in HASH_PARAMS}
    return ({k: mm.matrix.MonoidParams(*k) for k in PAIRS}
            | {k: mm.bsvhash.HashParams(*k) for k in CLI_HASH_PARAMS})


def seeded(name, seed):
    return random.Random(f"{name}:{seed}")


def mixed(name, reqs):
    """The requests in a fixed mixed order.

    Every seed yields the same kinds in the same list positions, so one
    fixed permutation gives every seed the same sequence of kinds: what a
    request leaves behind in caches and the allocator for the next one does
    not change with the seed.
    """
    random.Random(name).shuffle(reqs)
    return reqs


def build(name, seed, mm, params, tmpdir, invoke):
    """The request list of a workload; cli-mix runs each command with invoke."""
    rng = seeded(name, seed)
    if name == "exact-deep":
        reqs = exact_deep(rng, mm, params)
    elif name == "hash-stream":
        reqs = hash_stream(rng, mm, params)
    else:
        reqs = cli_requests(cli_mix(rng, mm, tmpdir), invoke)
    return mixed(name, reqs)

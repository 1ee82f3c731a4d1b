"""Regenerate the ROADMAP baseline table: named single-operation timings.

    python3 perfbench/baseline.py            # from the checkout root

Each row is timed several times; the table shows the median and the
quartiles. `matmonoid` rows run the CLI as a subprocess and also report
that child's peak RSS; library rows run in this process after one
untimed call, with their inputs built outside the timing. A final JSON line records every sample together with
the Python version, commit and machine.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def time_call(prepare, fn, repeats):
    """Times fn(prepare()) after one untimed call; the input is built untimed."""
    arg = prepare()
    fn(arg)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(arg)
        samples.append(time.perf_counter() - t0)
    return samples, None


def time_cli(cli_runner, argv, repeats):
    """Wall time and peak RSS of `matmonoid ARGV` as a subprocess, per run."""
    samples, rss = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        rc, _, err = cli_runner(argv)
        samples.append(time.perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"matmonoid {' '.join(argv[:3])} exited {rc}: {err[-200:]!r}")
        rss.append(cli_runner.last_rss_kb / 1024)
    return samples, statistics.median(rss)


def rows(mm, cli_runner, tmpdir):
    """The table rows; the subprocess rows come first, while this process is
    still small, because a child's peak RSS counts its parent's memory."""
    m23, m11 = mm.matrix.MonoidParams(2, 3), mm.matrix.MonoidParams(1, 1)
    mbyte = os.path.join(tmpdir, "payload.bin")
    with open(mbyte, "wb") as fh:
        fh.write(os.urandom(1 << 20))
    p2048 = str(workloads.PRIME_2048)
    mbit = lambda: os.urandom(1 << 17)
    lib = lambda prepare, fn, n=5: lambda: time_call(prepare, fn, n)
    cli = lambda argv, n=3: lambda: time_cli(cli_runner, argv, n)
    hp = lambda u, v, p: lambda: mm.bsvhash.HashParams(u, v, p)
    return [
        ("e2e", "matmonoid bound --p <2048-bit prime>", cli(["bound", "--u", "2", "--v", "3", "--p", p2048])),
        ("e2e", "matmonoid hash --bits bytes-msb, 1 MB file",
         cli(["hash", "--u", "2", "--v", "3", "--p", "251", "--bits", "bytes-msb", "--input", mbyte])),
        ("e2e", "matmonoid verify (all suites, depth 10)", cli(["verify"])),
        ("op", "mu_depth(2,3, n=10^6)", lib(lambda: m23, lambda m: mm.extremal.mu_depth(m, 10**6))),
        ("op", "mu_row_bruteforce(2,3, n=18)", lib(lambda: m23, lambda m: mm.tree.mu_row_bruteforce(m, 18))),
        ("op", "hash_string, 1 Mbit, p=101 (pre-decoded)",
         lib(lambda: (mm.bsvhash.HashParams(2, 3, 101), mm.bsvhash.bits_from_bytes_msb(mbit())),
             lambda a: mm.bsvhash.hash_string(*a))),
        ("op", "bits_from_bytes_msb, 1 Mbit", lib(mbit, mm.bsvhash.bits_from_bytes_msb)),
        ("op", "exhaustive_collision_check, max_len 18 (u=v=1, p=2^61-1)",
         lib(hp(1, 1, 2**61 - 1), lambda h: mm.bsvhash.exhaustive_collision_check(h, 18))),
        ("op", "is_probable_prime(2048-bit)",
         lib(lambda: workloads.PRIME_2048, mm.bsvhash.is_probable_prime, 3)),
        ("op", "alpha_gamma(2,3, n=10^5)", lib(lambda: m23, lambda m: mm.extremal.alpha_gamma(m, 1, 2, 10**5), 3)),
        ("op", "factor([[1,k],[0,1]], u=v=1), k=10^6",
         lib(lambda: mm.matrix.Mat2(1, 10**6, 0, 1), lambda x: mm.matrix.factor(x, m11))),
    ]


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "matmonoid", "__init__.py")):
        print("error: run from a checkout root that holds src/matmonoid", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import matmonoid

    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    record = {"python": platform.python_version(), "commit": run.commit_of(root),
              "nproc": os.cpu_count(), "machine": platform.machine(),
              "loadavg": run.loadavg(), "rows": []}
    print("| layer | what | median | quartiles | peak RSS |")
    print("|---|---|---|---|---|")
    with tempfile.TemporaryDirectory(dir=out_dir) as tmpdir:
        for layer, what, measure in rows(matmonoid, workloads.CliRunner(root, tmpdir), tmpdir):
            samples, rss = measure()
            med = statistics.median(samples)
            q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (med, med, med)
            rss_text = f"{rss:.0f} MB" if rss is not None else ""
            print(f"| {layer} | `{what}` | {med * 1e3:.0f} ms | {q1 * 1e3:.0f}-{q3 * 1e3:.0f} ms | {rss_text} |",
                  flush=True)
            record["rows"].append({"layer": layer, "what": what, "samples_s": samples,
                                   "median_s": med, "peak_rss_mb": rss})
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

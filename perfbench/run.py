"""matmonoid benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload exact-deep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout (the directory holding src/matmonoid).
Workloads are defined in workloads.py. A single client runs each in a
closed loop from one process; cli-mix starts one `matmonoid` subprocess
per request. Every output is checked against an independent reference
(oracles.py) outside the timed region.

--trace 0 prints the end-to-end metrics: setup_s (median of fresh-interpreter
set-ups), throughput_rps, lat_p50_ms, lat_tail_ms, peak_rss_mb and ok_ratio.
--trace 1 prints the per-layer metrics from a traced run instead, and
writes the spans to perfbench/out/trace-<workload>-<seed>.jsonl.

Request times are scaled to a reference host speed. The speed of a shared
host drifts by tens of percent over minutes, so before each request the
runner times oracles.reference_work(), a fixed piece of the benchmark's
own code that never calls matmonoid, and every time in a pass is
multiplied by REFERENCE_S / (the pass's mean reference time); each set-up
is scaled the same way by the reference timed in this process just before
it. The unscaled values are in the metadata line. A change to matmonoid
moves the scaled times exactly as it moves the raw ones.

Latencies are per request: each request's mean over the passes of the run.
lat_p50_ms is the median of those, and lat_tail_ms the highest percentile
of them that has ten values beyond it. throughput_rps is the number of
requests over the sum of those means. A line of run metadata precedes the
result line.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import oracles
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# Request times are reported for a host on which oracles.reference_work()
# takes this long.
REFERENCE_S = 0.001
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 1.0
PROBE_REPEATS = 5
# The whole run must end within 180 seconds.
RUN_TIMEOUT = 165

CMDS = ("hash", "bound", "mu", "witness", "tree", "verify")
PRIME_BITS = (7, 61, 127, 521, 2048)
TIMED = {
    "extremal": ("mu_depth", "lucas", "collision_horizon", "alpha_gamma", "fseq", "witness"),
    "matrix": ("word_to_matrix", "factor"),
    "bsvhash": ("is_probable_prime", "HashParams", "hash_string", "bits_from_bytes_msb",
                "bits_from_ascii01", "exhaustive_collision_check", "bound_n0"),
    "tree": ("mu_row_bruteforce", "row"),
    "cli": ("main",),
}
WORK = {
    "extremal.mu_depth.out_bits": ("extremal.mu_depth", "bit"),
    "matrix.factor.letters": ("matrix.factor", "count"),
    "bsvhash.exhaustive_collision_check.states": ("bsvhash.exhaustive_collision_check", "count"),
    "tree.mu_row_bruteforce.cells": ("tree.mu_row_bruteforce", "count"),
}


def per_layer_names():
    """(name, unit) of every per-layer metric, in output order."""
    names = []
    for mod, funcs in TIMED.items():
        for fn in funcs:
            names += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.busy_s", "s"),
                      (f"{mod}.{fn}.self_s", "s")]
    names += [(k, unit) for k, (_, unit) in WORK.items()]
    for fn in ("is_probable_prime", "HashParams"):
        names += [(f"bsvhash.{fn}.p{b}.busy_s", "s") for b in PRIME_BITS]
    for size in ("psmall", "p2048"):
        names += [(f"bsvhash.hash_string.{size}.bits", "bit"),
                  (f"bsvhash.hash_string.{size}.ns_per_bit", "ns/bit")]
    names += [(f"suites.run_suite.{s}.busy_s", "s")
              for s in ("formulas", "symmetry", "polydom", "hash")]
    names += [("polydom.calls", "count"), ("polydom.dominates.calls", "count"),
              ("polydom.dominates.busy_s", "s")]
    for mod in tracer.MODULES:
        names += [(f"{mod}.self_s", "s"), (f"{mod}.self_cpu_s", "s")]
    names += [("cli.import_ms", "ms"), ("cli.startup_ms", "ms")]
    for cmd in CMDS:
        names += [(f"cli.{cmd}.p50_ms", "ms"), (f"cli.{cmd}.failed", "count")]
    names.append(("trace.overhead_ratio", "ratio"))
    return names


def child_env(root):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def timed_run(argv, env):
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - t0


def reference_seconds(repeats=10):
    """Median time of oracles.reference_work() in this (warm) process."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        oracles.reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup_seconds(root, workload):
    """Median over fresh interpreters of import plus parameter building,
    each scaled by the reference time measured here just before it; also
    the unscaled seconds.

    Cheap set-ups repeat until SETUP_BUDGET_S of set-up time is covered.
    """
    raw, scaled = [], []
    while len(raw) < SETUP_REPEATS or (
        sum(raw) < SETUP_BUDGET_S and len(raw) < SETUP_MAX_REPEATS
    ):
        reference = reference_seconds()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), root, workload],
            env=child_env(root), check=True, capture_output=True, text=True, timeout=60,
        )
        raw.append(float(out.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * REFERENCE_S / reference)
    return statistics.median(scaled), raw


def startup_probes(root):
    """cli.import_ms (import minus bare start) and cli.startup_ms (--version)."""
    env = child_env(root)
    py = sys.executable

    def med(argv):
        return statistics.median(timed_run(argv, env) for _ in range(PROBE_REPEATS)) * 1e3

    bare = med([py, "-c", "pass"])
    imported = med([py, "-c", "import matmonoid"])
    version = med([py, "-m", "matmonoid.cli", "--version"])
    return imported - bare, version


def commit_of(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return "unknown"


def request_means(latency):
    """Each request's mean latency over the passes, in seconds."""
    return [statistics.fmean(col) for col in zip(*latency)]


def tail(values):
    """(value, percentile) at the highest percentile with ten values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def scaled(latency, reference):
    """Each pass's latencies times REFERENCE_S over that pass's mean reference time."""
    return [[t * REFERENCE_S / statistics.fmean(ref) for t in p]
            for p, ref in zip(latency, reference)]


def end_to_end(res, setup):
    raw = request_means(res["latency"])
    means = request_means(scaled(res["latency"], res["reference"]))
    n = len(means)
    tail_s, pct = tail(means)
    pass_s = sum(means)
    outcomes = [o for p in res["outcomes"] for o in p]
    ok = outcomes.count("ok")
    metrics = {
        "setup_s": (setup, "s"),
        "throughput_rps": (n / pass_s, "1/s"),
        "lat_p50_ms": (statistics.median(means) * 1e3, "ms"),
        "lat_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
        "ok_ratio": (ok / len(outcomes), "ratio"),
    }
    info = {"tail_percentile": round(pct, 2), "tail_samples": n, "tail_beyond": 10,
            "reference_mean_s": statistics.fmean(t for p in res["reference"] for t in p),
            "unscaled": {"throughput_rps": n / sum(raw), "lat_p50_ms": statistics.median(raw) * 1e3,
                         "lat_tail_ms": tail(raw)[0] * 1e3},
            "passes": len(res["latency"]), "requests_per_pass": n,
            "ok": ok, "failed": len(outcomes) - ok,
            "wrong": outcomes.count("wrong"), "failure_classes": res["failures"],
            "ratio_bases": {
                "ok_ratio": f"{ok} ok of {len(outcomes)} requests",
                "fail_ratio": f"{len(outcomes) - ok} failed of {len(outcomes)} requests",
                "throughput_rps": f"{n} requests over a mean pass of {pass_s:.4f} s (scaled)",
            }}
    return metrics, outcomes, info


def _layer_value(setup, passes, key, field):
    per_pass = statistics.fmean(p.get(key, {}).get(field, 0) for p in passes)
    return setup.get(key, {}).get(field, 0) + per_pass


def per_layer(res, probes):
    """Per-layer metrics: set-up spans once plus the mean traced pass."""
    setup, passes = res["setup_layers"], res["traced_layers"]
    value = lambda key, field: _layer_value(setup, passes, key, field)
    m = {}
    for mod, funcs in TIMED.items():
        for fn in funcs:
            for field in ("calls", "busy_s", "self_s"):
                m[f"{mod}.{fn}.{field}"] = value(f"{mod}.{fn}", field)
    for name, (key, _) in WORK.items():
        m[name] = value(key, "work")
    for fn in ("is_probable_prime", "HashParams"):
        for b in PRIME_BITS:
            m[f"bsvhash.{fn}.p{b}.busy_s"] = value(f"bsvhash.{fn}:p{b}", "busy_s")
    for size in ("psmall", "p2048"):
        bits = value(f"bsvhash.hash_string:{size}", "work")
        busy = value(f"bsvhash.hash_string:{size}", "busy_s")
        m[f"bsvhash.hash_string.{size}.bits"] = bits
        m[f"bsvhash.hash_string.{size}.ns_per_bit"] = busy / bits * 1e9 if bits else 0.0
    for s in ("formulas", "symmetry", "polydom", "hash"):
        m[f"suites.run_suite.{s}.busy_s"] = value(f"suites.run_suite:{s}", "busy_s")
    module_totals = [_by_module(p) for p in passes]
    setup_totals = _by_module(setup)
    mod_value = lambda key, field: _layer_value(setup_totals, module_totals, key, field)
    m["polydom.calls"] = mod_value("polydom", "calls")
    m["polydom.dominates.calls"] = value("polydom.dominates", "calls")
    m["polydom.dominates.busy_s"] = value("polydom.dominates", "busy_s")
    for mod in tracer.MODULES:
        m[f"{mod}.self_s"] = mod_value(mod, "self_s")
        m[f"{mod}.self_cpu_s"] = mod_value(mod, "self_cpu_s")
    m["cli.import_ms"], m["cli.startup_ms"] = probes
    kinds = [r["kind"] for r in res["requests"]]
    means = request_means(res["latency"])
    for cmd in CMDS:
        mine = [t for k, t in zip(kinds, means) if k == f"cli.{cmd}"]
        m[f"cli.{cmd}.p50_ms"] = statistics.median(mine) * 1e3 if mine else 0.0
        failed = sum(o != "ok" for p in res["outcomes"] for k, o in zip(kinds, p) if k == f"cli.{cmd}")
        m[f"cli.{cmd}.failed"] = failed / len(res["outcomes"])
    untraced = statistics.fmean(sum(p) for p in res["latency"])
    traced = statistics.fmean(sum(p) for p in res["traced_latency"])
    m["trace.overhead_ratio"] = traced / untraced
    bases = {
        "trace.overhead_ratio": f"mean traced pass {traced:.4f} s / untraced {untraced:.4f} s",
        "ns_per_bit": {size: f"{m[f'bsvhash.hash_string.{size}.bits']} bits per pass"
                       for size in ("psmall", "p2048")},
        "cli.<cmd>.failed": f"failed requests per pass, over {len(res['outcomes'])} passes",
        "work counts": "per traced pass (set-up spans added once)",
    }
    units = dict(per_layer_names())
    return {k: (m[k], units[k]) for k, _ in per_layer_names()}, bases


def _by_module(agg):
    """Sum the un-suffixed span names of each module."""
    out = {}
    for key, a in agg.items():
        if ":" in key:
            continue
        mod = out.setdefault(key.split(".")[0], {"calls": 0, "self_s": 0.0, "self_cpu_s": 0.0})
        for field in mod:
            mod[field] += a[field]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "matmonoid", "__init__.py")):
        print("error: run from a checkout root that holds src/matmonoid", file=sys.stderr)
        return 2
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "commit": commit_of(root), "nproc": os.cpu_count(),
        "loadavg": loadavg(),
    }
    started = time.perf_counter()
    setup_s = None
    if not args.trace:
        setup_s, meta["setup_s"] = setup_seconds(root, args.workload)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "runner.py"), root, args.workload,
         str(args.seed), str(args.seconds), str(args.trace)],
        env=child_env(root), capture_output=True, text=True,
        timeout=RUN_TIMEOUT - (time.perf_counter() - started),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: workload runner exited {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics, outcomes, info = end_to_end(res, setup_s)
    meta.update(info)
    if args.trace:
        metrics, bases = per_layer(res, startup_probes(root))
        meta["ratio_bases"].update(bases)
        meta["spans"], meta["trace_file"] = res["spans"], res["trace_file"]
        meta["traced_failure_classes"] = res["traced_failures"]
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": info["wrong"] == 0,
        "attempted": len(outcomes),
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

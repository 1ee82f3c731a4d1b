"""Runs one workload in its own process and prints one JSON result line.

    python3 perfbench/runner.py ROOT WORKLOAD SEED SECONDS TRACE

ROOT is the checkout whose src/ holds matmonoid. For cli-mix with TRACE 0
the package is never imported here: the command specs come from
`runner.py ROOT cli-mix SEED 0 specs TMPDIR` in a separate process, and
the peak RSS is the largest of the CLI children. A single client sends
the request list in a closed loop: each request starts when the one
before it has returned. After a warm-up of the smallest request of each
kind, the whole list is repeated while another pass still fits in SECONDS
(at least three times), and every output is checked after its timed call.

With TRACE 0 the result holds every request's latency in every pass, and
the time of oracles.reference_work() run just before each request.
With TRACE 1 untraced and traced passes alternate; the result holds the
per-pass span aggregates and both pass times, for the overhead ratio.
"""
from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import time

import oracles
import tracer as tracing
import workloads

MIN_PASSES = 3


def _outcome(req, out, error):
    """'ok', 'failed' (raised or exited non-zero) or 'wrong' (completed, mismatched)."""
    if error is not None:
        return "failed"
    if req.kind.startswith("cli.") and out[0] != 0:
        return "failed"
    try:
        return "ok" if req.check(out) else "wrong"
    except Exception:  # an output of the wrong shape is a wrong output
        return "wrong"


def _failure_class(req, out, error):
    """Name the known defect a failure belongs to, or describe it."""
    text = str(error) if error is not None else out[2].decode(errors="replace")
    if "integer string conversion" in text:
        partial = error is None and bool(out[1])
        return "digit-cap, partial stdout" if partial else "digit-cap"
    if error is not None:
        return f"raised {type(error).__name__}"
    return f"exit {out[0]}"


class Pass:
    def __init__(self):
        self.latency = []
        self.reference = []
        self.outcomes = []
        self.failures = {}


def time_reference():
    """Seconds of oracles.reference_work(), run once untimed so caches are warm."""
    oracles.reference_work()
    t0 = time.perf_counter()
    oracles.reference_work()
    return time.perf_counter() - t0


def run_pass(reqs, tracer=None):
    result = Pass()
    for i, req in enumerate(reqs):
        if tracer is not None:
            tracer.request = i
        out = error = None
        # Each request starts with no collectable garbage from the last one.
        gc.collect()
        result.reference.append(time_reference())
        t0 = time.perf_counter()
        try:
            out = req.run()
        except Exception as exc:  # a failed request is counted, not fatal
            error = exc
        dt = time.perf_counter() - t0
        outcome = _outcome(req, out, error)
        result.latency.append(dt)
        result.outcomes.append(outcome)
        if outcome == "failed":
            cls = _failure_class(req, out, error)
            result.failures[f"{req.kind}: {cls}"] = result.failures.get(f"{req.kind}: {cls}", 0) + 1
        elif outcome == "wrong":
            result.failures[f"{req.kind}: wrong output ({req.label})"] = 1
    return result


def warm_up(reqs):
    """Run the smallest request of each kind once, untimed."""
    smallest = {}
    for req in reqs:
        if req.kind not in smallest or req.size < smallest[req.kind].size:
            smallest[req.kind] = req
    for req in smallest.values():
        try:
            req.run()
        except Exception:  # failures are counted in the timed passes
            pass


def cli_specs_subprocess(root, seed, tmpdir):
    """cli-mix specs built by a separate process, keeping this one small.

    Building them imports the package and runs its verify suites; a CLI
    child would count that memory in its own peak RSS.
    """
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), root, "cli-mix", str(seed), "0", "specs", tmpdir],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout)


def import_package(root):
    sys.path.insert(0, os.path.join(root, "src"))
    import matmonoid
    # Binds every module as an attribute of the package, cli and suites too.
    from matmonoid import bsvhash, cli, extremal, matrix, polydom, suites, tree  # noqa: F401

    return matmonoid


def main(argv):
    root, workload, seed, seconds, mode = argv[0], argv[1], int(argv[2]), float(argv[3]), argv[4]
    oracles.self_test(workloads.PAIRS)
    if mode == "specs":
        specs = workloads.cli_mix(workloads.seeded("cli-mix", seed), import_package(root), argv[5])
        print(json.dumps(specs))
        return 0
    trace = mode == "1"
    tmpdir = os.path.join(root, "perfbench", "out", f"tmp-{workload}-{seed}-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    tr = tracing.Tracer() if trace else None
    try:
        if workload == "cli-mix" and not trace:
            cli_runner = workloads.CliRunner(root, tmpdir)
            specs = cli_specs_subprocess(root, seed, tmpdir)
            reqs = workloads.mixed(workload, workloads.cli_requests(specs, cli_runner))
        else:
            matmonoid = import_package(root)
            if tr is not None:
                tr.install(matmonoid)
                tr.enabled, tr.request = True, "setup"
            # cli-mix commands build their own parameters.
            params = workloads.setup_params(workload, matmonoid) if workload != "cli-mix" else {}
            if tr is not None:
                tr.enabled = False
            invoke = lambda argv, stdin=None: workloads.in_process(matmonoid.cli.main, argv, stdin)
            reqs = workloads.build(workload, seed, matmonoid, params, tmpdir, invoke)
        warm_up(reqs)
        # The benchmark's own objects (requests, payloads, references) are
        # never garbage; keep them out of the collector's scans.
        gc.freeze()
        passes, traced = [], []
        t_start = time.perf_counter()
        # Stop before a pass that would end past the budget, unless fewer
        # than MIN_PASSES have run.
        while len(passes) < MIN_PASSES or (
            (time.perf_counter() - t_start) * (len(passes) + 1) / len(passes) <= seconds
        ):
            passes.append(run_pass(reqs))
            if tr is not None:
                first = len(tr.spans)
                tr.enabled = True
                traced.append((run_pass(reqs, tr), first, len(tr.spans)))
                tr.enabled = False
        result = {
            "requests": [{"kind": r.kind, "label": r.label} for r in reqs],
            "latency": [p.latency for p in passes],
            "reference": [p.reference for p in passes],
            "outcomes": [p.outcomes for p in passes],
            "failures": _merge([p.failures for p in passes]),
        }
        if workload == "cli-mix" and not trace:
            result["peak_rss_kb"] = cli_runner.peak_kb
        else:
            result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tr is not None:
            tr.uninstall()
            setup_spans = [s for s in tr.spans if s[6] == "setup"]
            result["setup_layers"] = tracing.aggregate(setup_spans)
            result["traced_layers"] = [tracing.aggregate(tr.spans[a:b], a) for _, a, b in traced]
            result["traced_latency"] = [p.latency for p, _, _ in traced]
            result["traced_failures"] = _merge([p.failures for p, _, _ in traced])
            trace_path = os.path.join(root, "perfbench", "out", f"trace-{workload}-{seed}.jsonl")
            tr.write(trace_path)
            result["trace_file"] = os.path.relpath(trace_path, root)
            result["spans"] = len(tr.spans)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _merge(dicts):
    total = {}
    for d in dicts:
        for k, v in d.items():
            total[k] = total.get(k, 0) + v
    return total


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

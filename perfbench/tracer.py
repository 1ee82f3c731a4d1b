"""Spans around calls into matmonoid, recorded from outside the package.

install() replaces the public functions of each module with timing
wrappers, including the names other modules imported by name (such as
bsvhash.collision_horizon), so calls between modules are seen too. The
primality gate is reached through HashParams.__post_init__, which is
wrapped as the span "bsvhash.HashParams".

A span is (name, start, end, cpu_start, cpu_end, parent, request, work):
wall and CPU (process_time) clocks, the index of the enclosing span or
-1, the request id, and a work count (bits, letters, states, cells) or
None. Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

MODULES = ("matrix", "extremal", "tree", "polydom", "bsvhash", "suites", "cli")


def _bits_tag(p):
    return f"p{p.bit_length()}"


def _collision_states(args, result):
    max_len = args[1]
    if result is None:
        return (1 << (max_len + 1)) - 1
    word = result[1]
    return (1 << len(word)) + int(word or "0", 2)


# Per-function extras: a name suffix computed from the arguments and a
# work count computed from the arguments and the result.
_SUFFIX = {
    "bsvhash.is_probable_prime": lambda args: _bits_tag(args[0]),
    "bsvhash.HashParams": lambda args: _bits_tag(args[0].p),
    "bsvhash.hash_string": lambda args: "p2048" if args[0].p.bit_length() > 1024 else "psmall",
    "suites.run_suite": lambda args: args[0],
}
_WORK = {
    "extremal.mu_depth": lambda args, result: result.bit_length(),
    "matrix.factor": lambda args, result: len(result),
    "bsvhash.hash_string": lambda args, result: len(args[1]),
    "bsvhash.exhaustive_collision_check": _collision_states,
    "tree.mu_row_bruteforce": lambda args, result: (1 << (args[1] + 1)) - 1,
}


class Tracer:
    """Collects spans while enabled; wrappers cost one flag test when not."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self.request = None
        self._stack = []
        self._restore = []

    def span(self, name, fn, args, kwargs):
        spans = self.spans
        index = len(spans)
        parent = self._stack[-1] if self._stack else -1
        spans.append(None)
        self._stack.append(index)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            cpu1 = time.process_time()
            self._stack.pop()
            spans[index] = (name, t0, t1, cpu0, cpu1, parent, self.request, None)
        work = _WORK.get(name.split(":")[0])
        if work is not None:
            spans[index] = spans[index][:7] + (work(args, result),)
        return result

    def _wrap(self, fn, name):
        suffix = _SUFFIX.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            full = f"{name}:{suffix(args)}" if suffix else name
            return self.span(full, fn, args, kwargs)

        return wrapper

    def install(self, package):
        """Wrap every public function of the package's modules, in place."""
        mods = {m: getattr(package, m) for m in MODULES}
        originals = {}
        for short, mod in mods.items():
            names = mod.__all__ if short != "cli" else ["main"]
            for attr in names:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj):
                    originals[obj] = f"{short}.{attr}"
        wrappers = {fn: self._wrap(fn, name) for fn, name in originals.items()}
        for mod in list(mods.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        params = mods["bsvhash"].HashParams
        post_init = params.__post_init__
        self._restore.append((params, "__post_init__", post_init))
        params.__post_init__ = self._wrap(post_init, "bsvhash.HashParams")

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                name, t0, t1, c0, c1, parent, request, work = s
                fh.write(json.dumps({
                    "id": i, "name": name, "start": t0, "end": t1,
                    "cpu_start": c0, "cpu_end": c1, "parent": parent,
                    "request": request, "work": work,
                }) + "\n")


def aggregate(spans, first=0):
    """Per-name totals: calls, busy (inclusive wall), self wall, self CPU, work.

    spans holds whole requests, and spans[0] has id first. Self time is a
    span's duration minus the time its direct children cover; children of
    one span never overlap in a single thread.
    """
    child_wall = defaultdict(float)
    child_cpu = defaultdict(float)
    for name, t0, t1, c0, c1, parent, _, _ in spans:
        if parent >= 0:
            child_wall[parent] += t1 - t0
            child_cpu[parent] += c1 - c0
    out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                               "self_cpu_s": 0.0, "work": 0})
    for i, (name, t0, t1, c0, c1, _, _, work) in enumerate(spans, first):
        for key in (name, name.split(":")[0]) if ":" in name else (name,):
            agg = out[key]
            agg["calls"] += 1
            agg["busy_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child_wall[i]
            agg["self_cpu_s"] += (c1 - c0) - child_cpu[i]
            agg["work"] += work or 0
    return dict(out)

"""Outside-in tracing of the sparsecov layers.

The tracer wraps every public function of the layer modules, and every
public method of their classes, in a timing wrapper.  It then rebinds every
name in every ``sparsecov`` module that refers to a wrapped function, so calls
through ``from .matrices import as_symmetric`` bindings are traced as well.
No file of the program changes.

Spans stay in memory and are summarized, and optionally written out, after
the traced call ends.  A span records its name, start, end, parent and
whether it raised.  A span opened on a worker thread of a pool takes as
parent the innermost open span of the thread that submitted the task.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Name of the spans that time the tracer's own observers.
OBSERVER = "trace.observer"

LAYERS = (
    "matrices", "rng", "model_spaces", "sampling", "estimators", "losses",
    "lower_bound", "risk", "cli",
)


# Observers that turn a call's arguments and result into counts for the
# useful-work ratios.  Each receives the tracer, the bound arguments, the
# result and the call's duration.  They run only when the call returned, and
# their time is recorded as a "trace.observer" span under the caller, so no
# layer's self time pays for them.

def _guard_observer(tracer, args, result, duration):
    tripped = bool(np.array_equal(result, np.eye(result.shape[0])))
    tracer.count("estimators.bregman_guard.trips", tripped)


def _psd_observer(tracer, args, result, duration):
    clipped = not np.array_equal(result, args["sigma_hat"])
    tracer.count("estimators.psd_project.clips", clipped)


def _affinity_observer(tracer, args, result, duration):
    components = args["p_mix"].weights.size + args["q_mix"].weights.size
    chunk = min(args["chunk_size"], args["samples"])
    with tracer.lock:
        counts = tracer.counts
        # gamma1_mixture keeps one component per distinct covariance
        counts["lower_bound.tv_affinity_mc.components"] += components
        counts["lower_bound.tv_affinity_mc.density_bytes"] = max(
            counts["lower_bound.tv_affinity_mc.density_bytes"], chunk * components * 8
        )
        counts["lower_bound.tv_affinity_mc.samples"] += args["samples"]
        tracer.affinity_seconds += duration


OBSERVERS = {
    "estimators.bregman_guard": _guard_observer,
    "estimators.psd_project": _psd_observer,
    "lower_bound.tv_affinity_mc": _affinity_observer,
}


class Tracer:
    """Span recorder for one traced process."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count()
        self.spans: list[tuple] = []  # (id, parent, name, start, end, failed)
        self.counts: Counter = Counter()
        self.affinity_seconds = 0.0
        self.lock = threading.Lock()

    def count(self, key: str, amount: int) -> None:
        with self.lock:
            self.counts[key] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        observer = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observer else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, failed))
                if observer is not None and not failed:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    observer(self, bound.arguments, result, end - start)
                    self.spans.append((next(self._ids), parent, OBSERVER, end, clock(), False))

        return traced

    def install(self) -> None:
        """Wrap the layer modules of the imported ``sparsecov`` package."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"sparsecov.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))
            if getattr(module, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
                module.ThreadPoolExecutor = self._pool_class()
        for modname, module in list(sys.modules.items()):
            if modname != "sparsecov" and not modname.startswith("sparsecov."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])

    def _pool_class(self):
        tracer = self

        class InheritingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None

                def run(*a, **k):
                    inner = tracer._stack()
                    inner.append(parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        inner.pop()

                return super().submit(run, *args, **kwargs)

        return InheritingPool

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))

    def summary(self) -> dict:
        """Per-function calls, failures and self time, plus the ratio counts."""
        return summarize(self.spans) | {
            "counts": dict(self.counts),
            "affinity_seconds": self.affinity_seconds,
        }


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict:
    """Self time per function: duration minus the union of child intervals.

    Also returns the wall time of the outermost ``cli.main`` span and the
    share of it covered by spans of layers below the CLI.
    """
    children = defaultdict(list)
    for sid, parent, name, start, end, failed in spans:
        if parent is not None:
            children[parent].append((start, end))
    functions: dict[str, dict] = {}
    main = None
    below_cli = []
    for sid, parent, name, start, end, failed in spans:
        entry = functions.setdefault(name, {"calls": 0, "failed": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["failed"] += failed
        entry["self_s"] += (end - start) - union_length(children[sid], start, end)
        if name == "cli.main" and parent is None:
            main = (start, end)
        elif not name.startswith(("cli.", "trace.")):
            below_cli.append((start, end))
    wall = main[1] - main[0] if main else 0.0
    covered = union_length(below_cli, *main) if main else 0.0
    return {
        "functions": functions,
        "main_wall_s": wall,
        "coverage": covered / wall if wall > 0 else 0.0,
    }

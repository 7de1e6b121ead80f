"""Span tracer for the dirinfo layers, installed by patching public functions.

Each wrapped call records a span (name, start, end, parent span, op id,
thread) in flat arrays kept in memory.  A function is patched in every
dirinfo module that binds it, so names imported with ``from ... import``
are traced too.  Each thread keeps its own span stack; a span opened on a
pool thread with an empty stack takes as parent the innermost open span of
the thread that runs the op, which is blocked waiting for the pool.

Self time is a span's duration minus the part of it that its child spans
cover.  Children on the span's own thread are sequential, so their
durations add; children on other threads may overlap, so the union of
their intervals is taken.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = {
    "cli": ("main", "load_model", "emit_report"),
    "model": ("validate_model", "strategy", "augment_memory"),
    "stability": ("solve_lyapunov", "is_stabilizable", "lyapunov_step"),
    "riccati": ("solve_are", "riccati_backward_step"),
    "waterfill": ("solve", "gradient"),
    "capacity": ("feedback_capacity", "ftfi_capacity", "stationary_solve", "finite_horizon_dp",
                 "kappa_min", "information_rate", "nofeedback_capacity_q0"),
    "simulate": ("normal_quantile", "sample_trajectory", "simulate_batch"),
}


def _count_extra(name, args, result, counts):
    """Work counters recorded at the same boundaries as the spans."""
    if name == "riccati.solve_are":
        counts["riccati.solve_are.iterations"] += result.iterations
    elif name == "cli.emit_report":
        counts["cli.emit_report.bytes"] += len(result)
    elif name == "simulate.normal_quantile":
        counts["simulate.normal_quantile.elements"] += int(np.size(args[0]))
    elif name == "capacity.finite_horizon_dp":
        counts["capacity.finite_horizon_dp.steps"] += args[0].horizon + 1


class Tracer:
    def __init__(self):
        self.names = [name for layer, fns in LAYERS.items() for name in
                      (f"{layer}.{fn}" for fn in fns)]
        self.name_a, self.parent_a = array("i"), array("i")
        self.op_a, self.thread_a = array("i"), array("i")
        self.t0_a, self.t1_a = array("d"), array("d")
        self.counts = defaultdict(int)
        self.op = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads = {}
        self._main = threading.get_ident()
        self._main_stack = self._stack()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, idx: int, fn):
        name = self.names[idx]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self._main and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = -1
            with self._lock:
                sid = len(self.t0_a)
                thread = self._threads.setdefault(threading.get_ident(), len(self._threads))
                self.name_a.append(idx)
                self.parent_a.append(parent)
                self.op_a.append(self.op)
                self.thread_a.append(thread)
                self.t0_a.append(0.0)
                self.t1_a.append(0.0)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.t0_a[sid] = t0
                self.t1_a[sid] = t1
            _count_extra(name, args, result, self.counts)
            return result

        return traced

    def install(self) -> None:
        """Patch every traced function in each dirinfo module that binds it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "dirinfo" or key.startswith("dirinfo."))]
        for idx, name in enumerate(self.names):
            layer, fn_name = name.split(".")
            original = getattr(sys.modules[f"dirinfo.{layer}"], fn_name)
            wrapper = self._wrap(idx, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- aggregation -------------------------------------------------------

    def spans(self) -> dict:
        """The recorded spans as numpy columns."""
        return {
            "name": np.frombuffer(self.name_a, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent_a, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op_a, dtype=np.int32).copy(),
            "thread": np.frombuffer(self.thread_a, dtype=np.int32).copy(),
            "t0": np.frombuffer(self.t0_a, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1_a, dtype=np.float64).copy(),
        }

    def self_times(self, sp: dict) -> np.ndarray:
        n = sp["t0"].size
        dur = sp["t1"] - sp["t0"]
        parent = sp["parent"]
        has = parent >= 0
        same = has.copy()
        same[has] = sp["thread"][has] == sp["thread"][parent[has]]
        cover = np.bincount(parent[same], weights=dur[same], minlength=n)
        cross = np.flatnonzero(has & ~same)
        by_parent = defaultdict(list)
        for c in cross:
            by_parent[int(parent[c])].append((sp["t0"][c], sp["t1"][c]))
        for p, intervals in by_parent.items():
            intervals.sort()
            covered, end = 0.0, -np.inf
            for a, b in intervals:
                if b > end:
                    covered += b - max(a, end)
                    end = b
            cover[p] += covered
        return dur - cover

    def layer_metrics(self) -> dict:
        """Per-layer metrics: calls, self time, work counts and ratios."""
        sp = self.spans()
        own = self.self_times(sp)
        dur = sp["t1"] - sp["t0"]
        k = len(self.names)
        calls = np.bincount(sp["name"], minlength=k)
        self_ms = np.bincount(sp["name"], weights=own, minlength=k) * 1e3
        idx = {name: i for i, name in enumerate(self.names)}
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = int(calls[idx[name]])
            out[f"{name}.self_ms"] = float(self_ms[idx[name]])
        out.update(self.counts)
        parent_name = np.where(sp["parent"] >= 0, sp["name"][sp["parent"]], -1)

        batch = sp["name"] == idx["simulate.simulate_batch"]
        in_batch = ((sp["name"] == idx["simulate.sample_trajectory"])
                    & (parent_name == idx["simulate.simulate_batch"]))
        wall = float(dur[batch].sum())
        out["simulate.simulate_batch.wall_ms"] = wall * 1e3
        out["simulate.simulate_batch.parallel_ratio"] = float(dur[in_batch].sum()) / wall

        matched = calls[idx["capacity.feedback_capacity"]] + calls[idx["capacity.ftfi_capacity"]]
        evals = calls[idx["capacity.stationary_solve"]] + calls[idx["capacity.finite_horizon_dp"]]
        out["capacity.multiplier_useful_ratio"] = float(matched / evals)
        dp_fills = int(((sp["name"] == idx["waterfill.solve"])
                        & (parent_name == idx["capacity.finite_horizon_dp"])).sum())
        out["capacity.ftfi_waterfill_reuse_ratio"] = (
            1.0 - dp_fills / self.counts["capacity.finite_horizon_dp.steps"])
        out["trace.spans"] = int(sp["t0"].size)
        return out

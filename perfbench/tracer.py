"""Span tracing of kflow's public functions, installed from outside kflow.

`Tracer.install()` replaces each traced function or method with a wrapper
that records one span per call: name, start, end, parent span, self time
(duration minus the time covered by child spans) and an optional amount
(points processed, bytes written, queries answered).  Module-level
functions are replaced in every kflow module that holds a reference to
them, so names imported with `from .immersion import grid_partials` are
traced too.  Spans stay in memory until `write()`; `layer_metrics()` turns
them into the per-layer metrics the benchmark reports.

A `Tracer(memory=True)` runs the spans named in MEMORY_SPANS under
`tracemalloc` and reports their `peak_mb`, the peak of memory allocated
inside the span.  tracemalloc slows every allocation (a CP² calibration
runs several times slower under it), so the benchmark takes peak memory
from separate rounds and times layers only in rounds without it.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from math import prod

# (span name, module, function) for module-level functions.
FUNCTIONS = (
    ("immersion.grid_partials", "kflow.immersion", "grid_partials"),
    ("immersion.compute_mean_curvature", "kflow.immersion", "compute_mean_curvature"),
    ("immersion.compute_geometry", "kflow.immersion", "compute_geometry"),
    ("immersion.save_grid", "kflow.immersion", "save_grid"),
    ("immersion.load_grid", "kflow.immersion", "load_grid"),
    ("flow.run", "kflow.flow", "run"),
    ("flow.step", "kflow.flow", "step"),
    ("diagnostics.record", "kflow.diagnostics", "record"),
    ("density.calibrate_r0", "kflow.density", "calibrate_r0"),
    ("density.monitor_regularity", "kflow.density", "monitor_regularity"),
    ("density.parabolic_density", "kflow.density", "parabolic_density"),
    ("verify.check_exp_log_roundtrip", "kflow.verify", "check_exp_log_roundtrip"),
    ("verify.check_density_oracles", "kflow.verify", "check_density_oracles"),
    ("cli.execute_run", "kflow.cli", "execute_run"),
    ("cli.cmd_density", "kflow.cli", "cmd_density"),
)

# Ambient-model methods; each class that defines the method gets a wrapper.
METHODS = ("metric", "christoffel", "local_coords", "exp", "log", "distance")
MODEL_CLASSES = ("_FlatModel", "FlatC2", "FlatT4", "FubiniStudyCP2")

# Spans whose peak traced memory is reported.
MEMORY_SPANS = ("density.calibrate_r0", "density.monitor_regularity")


def _points(args, kwargs, out):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return prod(getattr(x, "shape", (1,))[:-1])


def _file_bytes(args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


def _queries(args, kwargs, out):
    return len(out.rows)


AMOUNTS = {
    "ambient.christoffel": _points,
    "immersion.save_grid": _file_bytes,
    "density.monitor_regularity": _queries,
}


class Tracer:
    """Records nested spans of the wrapped functions in one process."""

    def __init__(self, memory=False):
        self.memory = memory
        # (name, start, end, parent index, self seconds, amount, peak bytes)
        self.spans: list[tuple] = []
        self._open: list[int] = []
        self._child_time: list[float] = []

    def wrap(self, name, fn):
        amount = AMOUNTS.get(name)
        memory = self.memory and name in MEMORY_SPANS
        spans, open_, child_time = self.spans, self._open, self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            index = len(spans)
            spans.append(None)
            open_.append(index)
            child_time.append(0.0)
            own_tracemalloc = memory and not tracemalloc.is_tracing()
            if own_tracemalloc:
                tracemalloc.start()
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                peak = tracemalloc.get_traced_memory()[1] if memory else 0
                if own_tracemalloc:
                    tracemalloc.stop()
                open_.pop()
                covered = child_time.pop()
                if child_time:
                    child_time[-1] += end - start
                spans[index] = (name, start, end, parent, end - start - covered, 0, peak)
            if amount is not None:
                spans[index] = spans[index][:5] + (amount(args, kwargs, out), peak)
            return out

        return traced

    def install(self):
        """Wrap every traced function and ambient method of the imported
        kflow modules."""
        import kflow.ambient as ambient

        kflow_modules = [m for n, m in list(sys.modules.items()) if n.startswith("kflow") and m]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original)
            for module in kflow_modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for cls_name in MODEL_CLASSES:
            cls = getattr(ambient, cls_name)
            for method in METHODS:
                if method in vars(cls):
                    setattr(cls, method, self.wrap(f"ambient.{method}", vars(cls)[method]))

    def write(self, path):
        """Write every span as one CSV line: name, start, end, parent,
        self seconds, amount, peak bytes."""
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,self_s,amount,peak_bytes\n")
            for i, (name, start, end, parent, self_s, amount, peak) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{self_s!r},{amount},{peak}\n")

    def layer_metrics(self):
        """Per-layer metrics from the recorded spans (see LAYER_METRICS)."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        amount: dict[str, int] = {}
        peak: dict[str, int] = {}
        exp_in_log = 0
        for name, start, end, parent, own, amt, pk in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            amount[name] = amount.get(name, 0) + amt
            peak[name] = max(peak.get(name, 0), pk)
            if name == "ambient.exp" and parent >= 0 and self.spans[parent][0] == "ambient.log":
                exp_in_log += 1

        def ratio(a, b):
            return a / b if b else 0.0

        steps = calls.get("flow.step", 0)
        out = {}
        for metric, unit in LAYER_METRICS:
            span, _, kind = metric.rpartition(".")
            if kind == "self_s":
                value = self_s.get(span, 0.0)
            elif kind == "total_s":
                value = total_s.get(span, 0.0)
            elif kind == "calls":
                value = calls.get(span, 0)
            elif kind == "peak_mb":
                value = peak.get(span, 0) / 2**20
            elif kind in ("points", "bytes", "queries"):
                value = amount.get(span, 0)
            elif metric == "ambient.log.exp_calls_per_log":
                value = ratio(exp_in_log, calls.get("ambient.log", 0))
            elif metric == "immersion.grid_partials.calls_per_step":
                value = ratio(calls.get("immersion.grid_partials", 0), steps)
            elif metric == "flow.steps":
                value = steps
            elif metric == "flow.step.mean_ms":
                value = 1e3 * ratio(total_s.get("flow.step", 0.0), steps)
            else:
                continue
            out[metric] = value
        return out


# Per-layer metrics and their units, in report order.  `trace.overhead_s`
# is filled in by the benchmark from paired traced and untraced rounds.
LAYER_METRICS = (
    ("ambient.christoffel.self_s", "s"),
    ("ambient.christoffel.points", "count"),
    ("ambient.metric.self_s", "s"),
    ("ambient.local_coords.self_s", "s"),
    ("ambient.exp.self_s", "s"),
    ("ambient.exp.calls", "count"),
    ("ambient.log.self_s", "s"),
    ("ambient.log.exp_calls_per_log", "calls/log"),
    ("ambient.distance.self_s", "s"),
    ("immersion.grid_partials.self_s", "s"),
    ("immersion.grid_partials.calls", "count"),
    ("immersion.grid_partials.calls_per_step", "calls/step"),
    ("immersion.compute_mean_curvature.self_s", "s"),
    ("immersion.compute_geometry.self_s", "s"),
    ("immersion.compute_geometry.calls", "count"),
    ("immersion.save_grid.self_s", "s"),
    ("immersion.save_grid.bytes", "B"),
    ("immersion.load_grid.self_s", "s"),
    ("flow.steps", "count"),
    ("flow.step.mean_ms", "ms"),
    ("flow.step.self_s", "s"),
    ("diagnostics.record.self_s", "s"),
    ("diagnostics.record.calls", "count"),
    ("density.calibrate_r0.self_s", "s"),
    ("density.calibrate_r0.peak_mb", "MB"),
    ("density.monitor_regularity.self_s", "s"),
    ("density.monitor_regularity.peak_mb", "MB"),
    ("density.monitor_regularity.queries", "count"),
    ("density.parabolic_density.self_s", "s"),
    ("verify.check_exp_log_roundtrip.total_s", "s"),
    ("verify.check_density_oracles.total_s", "s"),
    ("cli.execute_run.self_s", "s"),
    ("cli.cmd_density.self_s", "s"),
    ("trace.overhead_s", "s"),
)

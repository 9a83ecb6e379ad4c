"""Spans around envspin's public calls, recorded from outside the package.

`Tracer.install()` replaces each traced function, in every envspin module
that holds it, by a wrapper that records a span (name, start, end, parent)
and any counters the function's arguments or result give; `uninstall()`
puts the originals back.  The package itself is not edited.  Spans stay in
memory until `write_spans()`.

A span's layer is the module part of its name.  A layer's busy time is the
time covered by its outermost spans (a span nested in another span of the
same layer is not counted twice); its self time is the sum over its spans of
the span's duration minus that of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

LAYERS = ("graphical", "functionals", "experiments", "oracle", "coupling", "cli")

ENGINE_CALLS = ("graphical.batch_evolve", "graphical.batch_envelope")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _replica_site_time(args, kwargs, result, grid_pos, replicas_pos):
    spec = args[0]
    grid = [float(t) for t in _arg(args, kwargs, grid_pos, "t_grid")]
    replicas = _arg(args, kwargs, replicas_pos, "replicas")
    return {"graphical.replica_site_time": replicas * spec.size * (max(grid) if grid else 0.0)}


def _cli_bytes(args, kwargs, result):
    argv = list(_arg(args, kwargs, 0, "argv"))
    if "--out" not in argv:
        return {}
    prefix = Path(argv[argv.index("--out") + 1])
    written = sum(
        p.stat().st_size for p in prefix.parent.glob(prefix.name + ".*") if p.is_file()
    )
    return {"cli.bytes_written": written}


# traced calls: module -> {function name: counter callback or None}
TRACED = {
    "graphical": {
        "batch_evolve": lambda a, k, r: _replica_site_time(a, k, r, 3, 4),
        "batch_envelope": lambda a, k, r: _replica_site_time(a, k, r, 1, 2),
    },
    "functionals": {
        "interval_run_count": None,
        "interior_run_histogram": None,
        "check_window_monotone": None,
        "interval_stats": None,
    },
    "experiments": {
        "estimate_coalescence": None,
        "density_curves": None,
        "run_length_decay": None,
        "interval_inequality_check": None,
        "calibrate_burn_in": None,
        "scenario_remarks": None,
    },
    "oracle": {
        "build_generator": lambda a, k, r: {"oracle.states": r.dim},
        "build_coupled_generator": lambda a, k, r: {"oracle.states": r.dim},
        "stationary_set": None,
        "limit_distributions": None,
        "semigroup_apply": None,
    },
    "coupling": {
        "simulate_coupled": lambda a, k, r: {"coupling.simulate_coupled.flips": len(r.events)},
        "batch_simulate_pair": None,
    },
    "cli": {"main": _cli_bytes},
}


class Tracer:
    """Records spans of the traced envspin calls while installed.

    With `track_alloc`, engine calls additionally run under tracemalloc and
    their peak allocation is kept; that slows them, so it is used in a
    round whose timings are discarded."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = {}
        self.peak_alloc = 0
        self.track_alloc = False
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1][0] if tracer._stack else -1
            nested = any(open_name == name for _, open_name in tracer._stack)
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append((index, name))
            alloc = tracer.track_alloc and name in ENGINE_CALLS and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if alloc:
                    tracer.peak_alloc = max(tracer.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent)
            # a call nested in a call of the same function (cli replay runs
            # cli main again) is counted by the outer call only
            if counter is not None and not nested:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counts[key] = tracer.counts.get(key, 0) + value
            return result

        return wrapper

    def install(self):
        homes = {layer: importlib.import_module("envspin." + layer) for layer in TRACED}
        modules = [m for key, m in list(sys.modules.items()) if key == "envspin" or key.startswith("envspin.")]
        for layer, calls in TRACED.items():
            home = homes[layer]
            for fname, counter in calls.items():
                original = getattr(home, fname)
                wrapper = self._wrap("%s.%s" % (layer, fname), original, counter)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, wrapper)
                        self._patched.append((module, fname, original))

    def uninstall(self):
        for module, fname, original in reversed(self._patched):
            setattr(module, fname, original)
        self._patched = []

    def reset(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def summary(self):
        """Per-layer busy and self seconds, per-call busy seconds and counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(int)
        for layer in LAYERS:
            out[layer + ".busy_s"] = out[layer + ".self_s"] = out[layer + ".calls"] = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            duration = end - start
            ancestors = list(self._ancestors(i))
            out[name + ".calls"] += 1
            out[layer + ".self_s"] += duration - child_time[i]
            if name not in ancestors:
                out[name + ".busy_s"] += duration
            if not any(a.startswith(layer + ".") for a in ancestors):
                out[layer + ".busy_s"] += duration
                out[layer + ".calls"] += 1
        out.update(self.counts)
        return dict(out)

    def _ancestors(self, i):
        parent = self.spans[i][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]


def write_spans(path, rounds):
    """Write the spans of the traced rounds, given as (round, spans) pairs, as
    CSV rows round,span,parent,name,start_s,end_s (times from the round's
    first span)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write("round,span,parent,name,start_s,end_s\n")
        for r, spans in rounds:
            origin = spans[0][1] if spans else 0.0
            for i, (name, start, end, parent) in enumerate(spans):
                fh.write("%d,%d,%d,%s,%.9f,%.9f\n" % (r, i, parent, name, start - origin, end - origin))

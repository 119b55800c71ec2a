"""Spans and counters around hermwalk's layers, recorded from outside.

The tracer replaces each layer's public functions with a wrapper, both in
the module that defines them and wherever a caller imported the name into
its own module (for example `cli.hermitian_eigendecomposition` or the
package-level `hermwalk.pgst_search`).  Each call records a span (name,
start, end, parent, operation) in memory; self time is the span's duration
minus that of its child spans.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import defaultdict
from time import perf_counter


def _eig(args, kwargs, sd):
    return {"n3": sd.n**3}


def _pgst(args, kwargs, report):
    # grid points an answer at time t needs at least: floor(t/step) + 1 with
    # the documented step min(0.01, 0.1/rho); a miss needs the whole horizon
    sd = args[0]
    t_max = args[4] if len(args) > 4 else kwargs.get("t_max", 1e4)
    rho = float(max(abs(sd.eigenvalues))) if sd.n else 0.0
    step = min(0.01, 0.1 / rho) if rho > 0 else 0.01
    t = t_max if report.kind.value == "NotFound" else report.time
    return {"needed_points": math.floor(t / step) + 1}


def _scan(args, kwargs, result):
    return {"samples": len(result)}


def _csv(args, kwargs, text):
    return {"rows": len(args[0])}


def _screen(args, kwargs, report):
    return {"values": len(report.values), "relations": 0 if report.likely_independent else 1}


def _swaut(args, kwargs, group):
    return {"elements": group.order}


def _upst(args, kwargs, report):
    return {"universal": int(report.universal)}


def _load(args, kwargs, graph):
    return {"bytes": os.path.getsize(args[0])}


# (layer, module, functions, counter, name of the self-time metric)
LAYERS = [
    ("linalg.eig", "hermwalk.linalg", ["hermitian_eigendecomposition"], _eig, "s"),
    ("linalg.evolve", "hermwalk.linalg", ["evolution_operator", "nearest_monomial"], None, "s"),
    ("transfer.pgst", "hermwalk.transfer", ["pgst_search"], _pgst, "s"),
    ("transfer.scan", "hermwalk.transfer", ["fidelity_scan"], _scan, "s"),
    ("transfer.csv", "hermwalk.transfer", ["scan_to_csv"], _csv, "s"),
    ("transfer.pst_at", "hermwalk.transfer", ["pst_check_at_time"], None, "s"),
    ("numbertheory.screen", "hermwalk.numbertheory", ["independence_screen"], _screen, "s"),
    ("swaut.enum", "hermwalk.swaut", ["enumerate_switching_automorphisms"], _swaut, "s"),
    ("circulant_pst.upst", "hermwalk.circulant_pst", ["upst_certify"], _upst, "self_s"),
    (
        "spectra.checks",
        "hermwalk.spectra",
        ["eigenvalue_simplicity", "flat_eigenbasis_check", "eigenvalue_ratio_rationality"],
        None,
        "s",
    ),
    ("graph.load", "hermwalk.graph", ["load_graph"], _load, "s"),
    ("cli.main", "hermwalk.cli", ["main"], None, "self_s"),
]

# the per-layer metrics a traced run prints: (name, unit, better)
PER_LAYER = [
    ("linalg.eig.calls", "count", "lower"),
    ("linalg.eig.n3", "count", "lower"),
    ("linalg.eig.s", "s", "lower"),
    ("linalg.evolve.calls", "count", "lower"),
    ("linalg.evolve.s", "s", "lower"),
    ("transfer.pgst.calls", "count", "lower"),
    ("transfer.pgst.needed_points", "count", "lower"),
    ("transfer.pgst.s", "s", "lower"),
    ("transfer.pgst.us_per_needed_point", "us", "lower"),
    ("transfer.scan.calls", "count", "lower"),
    ("transfer.scan.samples", "count", "lower"),
    ("transfer.scan.s", "s", "lower"),
    ("transfer.csv.rows", "count", "lower"),
    ("transfer.csv.s", "s", "lower"),
    ("transfer.pst_at.calls", "count", "lower"),
    ("transfer.pst_at.s", "s", "lower"),
    ("numbertheory.screen.calls", "count", "lower"),
    ("numbertheory.screen.values", "count", "lower"),
    ("numbertheory.screen.relations", "count", "lower"),
    ("numbertheory.screen.s", "s", "lower"),
    ("swaut.enum.calls", "count", "lower"),
    ("swaut.enum.elements", "count", "lower"),
    ("swaut.enum.s", "s", "lower"),
    ("circulant_pst.upst.calls", "count", "lower"),
    ("circulant_pst.upst.universal", "count", "higher"),
    ("circulant_pst.upst.self_s", "s", "lower"),
    ("spectra.checks.calls", "count", "lower"),
    ("spectra.checks.s", "s", "lower"),
    ("graph.load.calls", "count", "lower"),
    ("graph.load.bytes", "B", "lower"),
    ("graph.load.s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]


class Tracer:
    def __init__(self):
        self.spans: list = []  # [layer, start, end, parent index, operation]
        self.counts: dict = defaultdict(float)
        self.op = None
        self._stack: list[int] = []
        self._patched: list = []
        self._t0 = perf_counter()

    def mark(self, op) -> None:
        """Name the operation that the following spans belong to."""
        self.op = op

    def _wrap(self, layer, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = [layer, start - self._t0, end - self._t0, parent, self.op]
                counts[(layer, "calls")] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[(layer, key)] += value
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "hermwalk" or name.startswith("hermwalk.")]
        for layer, module, names, counter, _ in LAYERS:
            for name in names:
                original = getattr(sys.modules[module], name)
                wrapper = self._wrap(layer, original, counter)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer counts and self times, per traced pass."""
        child = defaultdict(float)
        for span in self.spans:
            if span[3] is not None:
                child[span[3]] += span[2] - span[1]
        self_s = defaultdict(float)
        for i, span in enumerate(self.spans):
            self_s[span[0]] += span[2] - span[1] - child[i]
        metrics = {}
        for layer, _, _, _, time_key in LAYERS:
            metrics[f"{layer}.{time_key}"] = self_s[layer] / passes
        for (layer, key), value in self.counts.items():
            metrics[f"{layer}.{key}"] = value / passes
        points = metrics.get("transfer.pgst.needed_points", 0.0)
        metrics["transfer.pgst.us_per_needed_point"] = 1e6 * metrics["transfer.pgst.s"] / points if points else 0.0
        return metrics

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "start_s", "end_s", "parent", "op"], "spans": self.spans}, fh)

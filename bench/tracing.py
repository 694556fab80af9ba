"""Spans around calls into ``rdeq``, recorded from outside the package.

``install`` replaces the traced functions in every ``rdeq`` module that
binds them (and ``CodeInstance.decode_bob`` on its class) with wrappers that
record a span per call: name, start, end, parent and a few attributes taken
from the call's arguments.  Spans stay in memory until ``write``.  A layer's
self time is its spans' durations minus the durations of their direct child
spans.  ``layer_metrics`` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from concurrent.futures import ProcessPoolExecutor

import rdeq
from rdeq import cli, optimize, regions, simulate

MODULES = (rdeq, cli, optimize, regions, simulate)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._t0 = time.perf_counter()

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter() - self._t0, "end": None, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self._t0
        self._stack.pop()

    def wrap(self, fn, name: str, attrs=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
                if attrs is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["attrs"] = attrs(bound.arguments)

        return traced

    def write(self, path, meta: dict) -> None:
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": self.spans}) + "\n")


def _oracle_path(a: dict) -> dict:
    # binary A and C throughout the benchmark, so the program takes its
    # grid-W fast path exactly when every cap is 2
    if a["fixed_w_given_c"] is not None:
        return {"path": "fixed_w"}
    return {"path": "grid_w" if tuple(a["caps"]) == (2, 2, 2) else "generic"}


#: (module, function, span attributes from the bound arguments)
TRACED = (
    (regions, "lossless_region_point", None),
    (optimize, "generic_inner_frontier",
     lambda a: {"start_constraints": a["n_starts"] * len(a["constraints"])}),
    (optimize, "lossless_frontier", None),
    (optimize, "brute_force_oracle", _oracle_path),
    (optimize, "binary_frontier", None),
    (optimize, "binary_merge_threshold", None),
    (cli, "reproduce_table3", None),
    (cli, "reproduce_fig10", None),
    (simulate, "generate_codebooks", None),
    (simulate, "run_experiment", lambda a: {"trials": a["trials"]}),
    (simulate, "exact_equivocation", None),
    (simulate, "encoder_message_table", None),
    (simulate, "message_equivocation", None),
)


def install(tracer: Tracer):
    """Wrap every traced function; returns a function that undoes it."""
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for module, fname, attrs in TRACED:
        original = getattr(module, fname)
        wrapped = tracer.wrap(original, f"{module.__name__.removeprefix('rdeq.')}.{fname}", attrs)
        for mod in MODULES:
            if getattr(mod, fname, None) is original:
                patch(mod, fname, wrapped)
    patch(simulate.CodeInstance, "decode_bob",
          tracer.wrap(simulate.CodeInstance.decode_bob, "simulate.decode_bob"))

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            tracer.close(tracer.open("optimize.ProcessPoolExecutor"))
            super().__init__(*args, **kwargs)

    patch(optimize, "ProcessPoolExecutor", CountedPool)

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _named(spans, name, pred=None):
    return [s for s in spans if s["name"] == name and (pred is None or pred(s))]


def total_s(spans, name, pred=None) -> float:
    return sum(_duration(s) for s in _named(spans, name, pred))


def self_s(spans, name) -> float:
    """Durations of the named spans minus those of their direct children."""
    ids = {s["id"] for s in _named(spans, name)}
    children = sum(_duration(s) for s in spans if s["parent"] in ids)
    return total_s(spans, name) - children


#: per-layer metric -> unit; the order the metrics are printed in
UNITS = {
    "regions.inner_bound_us": "us",
    "regions.lossless_point_us": "us",
    "optimize.ascent_s": "s",
    "optimize.ascent_ms_per_start": "ms",
    "optimize.lossless_s": "s",
    "optimize.oracle_grid_w_s": "s",
    "optimize.oracle_fixed_w_s": "s",
    "optimize.oracle_generic_s": "s",
    "optimize.pools_started": "count",
    "optimize.binary_frontier_s": "s",
    "optimize.merge_threshold_s": "s",
    "cli.reproduce_table3_s": "s",
    "cli.reproduce_fig10_s": "s",
    "simulate.codebooks_s": "s",
    "simulate.trials_s": "s",
    "simulate.trials_per_s": "1/s",
    "simulate.decode_s": "s",
    "simulate.encode_table_s": "s",
    "simulate.equivocation_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(spans, inner_bound_us: float, overhead_ratio: float) -> dict:
    def oracle(path):
        return total_s(spans, "optimize.brute_force_oracle", lambda s: s["attrs"]["path"] == path)

    lossless_calls = _named(spans, "regions.lossless_region_point")
    ascent = self_s(spans, "optimize.generic_inner_frontier")
    starts = sum(s["attrs"]["start_constraints"]
                 for s in _named(spans, "optimize.generic_inner_frontier"))
    trials_s = self_s(spans, "simulate.run_experiment")
    trials = sum(s["attrs"]["trials"] for s in _named(spans, "simulate.run_experiment"))
    values = {
        "regions.inner_bound_us": inner_bound_us,
        "regions.lossless_point_us":
            1e6 * sum(map(_duration, lossless_calls)) / max(1, len(lossless_calls)),
        "optimize.ascent_s": ascent,
        "optimize.ascent_ms_per_start": 1e3 * ascent / max(1, starts),
        "optimize.lossless_s": self_s(spans, "optimize.lossless_frontier"),
        "optimize.oracle_grid_w_s": oracle("grid_w"),
        "optimize.oracle_fixed_w_s": oracle("fixed_w"),
        "optimize.oracle_generic_s": oracle("generic"),
        "optimize.pools_started": len(_named(spans, "optimize.ProcessPoolExecutor")),
        "optimize.binary_frontier_s": self_s(spans, "optimize.binary_frontier"),
        "optimize.merge_threshold_s": total_s(spans, "optimize.binary_merge_threshold"),
        "cli.reproduce_table3_s": total_s(spans, "cli.reproduce_table3"),
        "cli.reproduce_fig10_s": total_s(spans, "cli.reproduce_fig10"),
        "simulate.codebooks_s": total_s(spans, "simulate.generate_codebooks"),
        "simulate.trials_s": trials_s,
        "simulate.trials_per_s": trials / trials_s if trials_s > 0 else 0.0,
        "simulate.decode_s": total_s(spans, "simulate.decode_bob"),
        "simulate.encode_table_s": total_s(spans, "simulate.encoder_message_table"),
        "simulate.equivocation_s": total_s(spans, "simulate.message_equivocation"),
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}

"""Spans around the calls into thinspec's public functions, recorded from outside.

A `Tracer` replaces each traced function wherever a thinspec module has it
bound, so `thinspec.experiments.eigenvalues` (the name the pipelines look it
up by) and `thinspec.spectral.eigenvalues` both reach the same wrapper.
Spans are kept in memory with their parent ids; `layer_metrics` turns one
iteration's spans into the per-layer table.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (defining module, attribute) -> span name, grouped by layer.
TRACED = {
    ("thinspec.spectral", "eigenvalues"): "spectral.eigenvalues",
    ("thinspec.ensembles", "sample_matrix"): "ensembles.sample_matrix",
    ("thinspec.transport", "w1_exact"): "transport.w1_exact",
    ("thinspec.transport", "grid_pairing"): "transport.grid_pairing",
    ("thinspec.transport", "cell_counts"): "transport.cell_counts",
    ("thinspec.transport", "uniform_disk_sample"): "transport.uniform_disk_sample",
    ("thinspec.stats", "partial_statistic"): "stats.partial_statistic",
    ("thinspec.stats", "sample_index_set"): "stats.sample_index_set",
    ("thinspec.stats", "disk_moments"): "stats.disk_moments",
    ("thinspec.stats", "ginibre_variance"): "stats.ginibre_variance",
    ("thinspec.stats", "ks_two_sample"): "stats.ks_two_sample",
    ("thinspec.stats", "limit_sampler_fixed_K"): "stats.limit_sampler_fixed_K",
    ("thinspec.lattice", "lattice"): "lattice.lattice",
    ("thinspec.experiments", "run_experiment"): "experiments.run",
    ("thinspec.experiments", "records_jsonl"): "experiments.records_jsonl",
    ("thinspec.cli", "main"): "cli.main",
}

REAL_KINDS = ("real-gaussian", "rademacher")


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _describe_solve(args, kwargs, result):
    m = _first_arg(args, kwargs, "m")
    return {
        "matrix": [m.dist_kind, m.n, m.seed],
        "real_input": m.dist_kind in REAL_KINDS or not np.iscomplexobj(m.entries),
    }


def _describe_sample(args, kwargs, result):
    return {"bytes": int(result.entries.nbytes) if result is not None else 0}


def _describe_w1(args, kwargs, result):
    return {"n": int(np.size(_first_arg(args, kwargs, "a")))}


# Span attributes, computed after the span has ended so they cost no self time.
DESCRIBE = {
    "spectral.eigenvalues": _describe_solve,
    "ensembles.sample_matrix": _describe_sample,
    "transport.w1_exact": _describe_w1,
}


class Tracer:
    """Context manager that records spans while the wrappers are installed."""

    def __init__(self, iteration: int = 0):
        self.iteration = iteration
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        describe = DESCRIBE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "iteration": self.iteration,
                "name": name,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            result = None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if describe is not None:
                    span.update(describe(args, kwargs, result))

        return traced

    def __enter__(self):
        modules = [
            module for key, module in list(sys.modules.items())
            if module is not None and (key == "thinspec" or key.startswith("thinspec."))
        ]
        for (module_name, attr), span_name in TRACED.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))
        return self

    def __exit__(self, *exc_info):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()
        return False


def self_times(spans) -> dict:
    """Span id -> duration minus the time its child spans cover.

    Calls are serial, so a span's children never overlap one another.
    """
    covered = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return {span["id"]: span["end"] - span["start"] - covered[span["id"]] for span in spans}


CALL_COUNTED = (
    "spectral.eigenvalues",
    "ensembles.sample_matrix",
    "transport.w1_exact",
    "stats.disk_moments",
    "lattice.lattice",
)


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer table of one traced iteration whose traced wall time is `wall_s`."""
    own = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for span in spans:
        self_s[span["name"]] += own[span["id"]]
        calls[span["name"]] += 1
    solves = [s for s in spans if s["name"] == "spectral.eigenvalues"]
    distinct = {tuple(s["matrix"]) for s in solves}
    metrics = {f"{name}.self_s": self_s[name] for name in TRACED.values()}
    metrics.update({f"{name}.calls": calls[name] for name in CALL_COUNTED})
    metrics.update({
        "spectral.eigenvalues.share": self_s["spectral.eigenvalues"] / wall_s,
        "spectral.eigenvalues.real_input_calls": sum(s["real_input"] for s in solves),
        "spectral.solves_per_distinct_matrix": len(solves) / len(distinct) if distinct else 0.0,
        "spectral.eigensolver_errors": sum(s.get("error") == "EigensolverError" for s in solves),
        "ensembles.sample_matrix.bytes_computed": sum(
            s["bytes"] for s in spans if s["name"] == "ensembles.sample_matrix"
        ),
        "transport.w1_exact.ops_computed": sum(
            s["n"] ** 3 for s in spans if s["name"] == "transport.w1_exact"
        ),
    })
    return metrics

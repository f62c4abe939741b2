"""Span recorder and per-layer metrics for the traced benchmark run.

Spans are recorded from the benchmark's own files: `Tracer.patch` swaps each
traced kplane function for a timing wrapper in every module namespace that
binds it (the namespace where callers look the name up), and `Tracer.proxy`
wraps a pointfields object whose methods drury_norm_mc calls. Spans stay in
memory as (name, start, end, parent, extra) and are written out with the run
report. A span's self time is its duration minus the durations of its direct
children, which is the part of it they do not cover when `nesting_ok` holds.
"""

from __future__ import annotations

import importlib
import statistics
from contextlib import contextmanager
from time import perf_counter

# Traced functions per layer. Only functions that a per-layer metric reads
# are wrapped: a wrapped helper such as field_from_function would move the
# sampling cost out of embed_radial's and s_symmetry's self time.
TRACED = {
    "flow": ("competing_iterate", "competing_step"),
    "profiles": (
        "embed_radial",
        "lp_norm",
        "lp_distance",
        "distribution_function",
        "lorentz_quasinorm",
        "interpolation_check",
    ),
    "operators": ("s_symmetry", "rearrange", "functional_ratio", "t_transform"),
    "mc": ("drury_norm_mc",),
}
PROXIED_METHODS = ("sample_p", "value", "line_integral")


def _field_cells(args, kwargs, result) -> dict:
    return {"cells": result.values.size}


def _triangles(args, kwargs, result) -> dict:
    field = args[0]
    return {"triangles": 2 * len(field.rho) * len(field.s)}


def _t_key(args, kwargs, result) -> dict:
    f, params = args[0], args[1]
    out = kwargs.get("out_radii", args[2] if len(args) > 2 else None)
    grid = (len(f.radii), float(f.radii[0]), float(f.radii[-1]), out is None)
    return {"key": (params.k, grid)}


def _mc_counts(args, kwargs, result) -> dict:
    return {"accepted": result.n_samples, "rejected": result.n_rejected}


_ANNOTATE = {
    "profiles.embed_radial": _field_cells,
    "operators.s_symmetry": _field_cells,
    "operators.rearrange": _triangles,
    "operators.t_transform": _t_key,
    "mc.drury_norm_mc": _mc_counts,
}


class Tracer:
    """In-memory span recorder with one open-span stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.extra: dict[int, dict] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        annotate = _ANNOTATE.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if annotate is not None:
                self.extra[idx] = annotate(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patch(self):
        """Replace each traced function in every kplane namespace that binds it."""
        modules = {layer: importlib.import_module(f"kplane.{layer}") for layer in TRACED}
        saved = []
        for layer, names in TRACED.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in modules.values():
                    if getattr(mod, fname, None) is original:
                        saved.append((mod, fname, original))
                        setattr(mod, fname, wrapper)
        try:
            yield
        finally:
            for mod, fname, original in saved:
                setattr(mod, fname, original)

    def proxy(self, target):
        return _FieldProxy(self, target)

    # Aggregation -----------------------------------------------------------

    def nesting_ok(self) -> bool:
        """Every span is closed and lies inside its parent; siblings do not overlap.

        Self times partition the covered time only when this holds. Spans are
        stored in start order, so each one only needs comparing with its
        parent and with the sibling that ended last before it.
        """
        last_end: dict[int, float] = {}
        for idx, (start, end, parent) in enumerate(zip(self.starts, self.ends, self.parents)):
            if end < start or start < last_end.get(parent, -float("inf")):
                return False
            if parent >= 0 and not (self.starts[parent] <= start and end <= self.ends[parent]):
                return False
            last_end[parent] = end
        return not self._stack

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out

    def spans_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, **self.extra.get(i, {})}
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents))
        ]


class _FieldProxy:
    """Delegating stand-in for a pointfields object; traces its sampled methods."""

    def __init__(self, tracer: Tracer, target) -> None:
        self._target = target
        for meth in PROXIED_METHODS:
            if hasattr(target, meth):
                setattr(self, meth, tracer.wrap(f"pointfields.{meth}", getattr(target, meth)))

    def __getattr__(self, name):
        return getattr(self._target, name)


def percentile(values: list[float], q: int) -> float:
    """q-th percentile by the inclusive method; 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, n_ops: int, untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics of one traced pass of n_ops ops.

    `ms_p50`/`ms_p90` are call durations and `self_ms` the mean self time per
    call; `calls` and `self_s` are per benchmark op; `first_ms` averages the
    first call per (k, grid); `cells_per_s` and `triangles_per_s` divide the
    computed work (nrho*ns cells, 2*nrho*ns triangles) by the calls' time;
    `trace.overhead_pct` compares the traced with the untraced wall time of
    the same ops.
    """
    selfs = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for idx, name in enumerate(tracer.names):
        by_name.setdefault(name, []).append(idx)

    def dur(name):
        return [tracer.ends[i] - tracer.starts[i] for i in by_name.get(name, [])]

    def self_total(name):
        return sum(selfs[i] for i in by_name.get(name, []))

    def calls(name):
        return len(by_name.get(name, []))

    def ms_p(name, q):
        return 1e3 * percentile(dur(name), q)

    def self_ms(name):
        n = calls(name)
        return 1e3 * self_total(name) / n if n else 0.0

    def per_op(x):
        return x / n_ops if n_ops else 0.0

    def rate(name, key):
        total_t = sum(dur(name))
        work = sum(tracer.extra[i][key] for i in by_name.get(name, []))
        return work / total_t if total_t > 0 else 0.0

    first: dict = {}
    for i in by_name.get("operators.t_transform", []):
        first.setdefault(tracer.extra[i]["key"], tracer.ends[i] - tracer.starts[i])
    accepted = sum(tracer.extra[i]["accepted"] for i in by_name.get("mc.drury_norm_mc", []))
    rejected = sum(tracer.extra[i]["rejected"] for i in by_name.get("mc.drury_norm_mc", []))
    n_iter = calls("flow.competing_iterate")

    m = {
        "flow.competing_iterate.steps": (calls("flow.competing_step") / n_iter if n_iter else 0.0, "count"),
        "flow.competing_iterate.self_ms": (self_ms("flow.competing_iterate"), "ms"),
        "flow.competing_step.ms_p50": (ms_p("flow.competing_step", 50), "ms"),
        "flow.competing_step.self_ms": (self_ms("flow.competing_step"), "ms"),
        "profiles.embed_radial.ms_p50": (ms_p("profiles.embed_radial", 50), "ms"),
        "profiles.embed_radial.cells_per_s": (rate("profiles.embed_radial", "cells"), "1/s"),
        "profiles.lp_norm.calls": (per_op(calls("profiles.lp_norm")), "count"),
        "profiles.lp_norm.self_s": (per_op(self_total("profiles.lp_norm")), "s"),
        "profiles.lp_distance.calls": (per_op(calls("profiles.lp_distance")), "count"),
        "profiles.lp_distance.self_s": (per_op(self_total("profiles.lp_distance")), "s"),
        "profiles.distribution_function.ms_p50": (ms_p("profiles.distribution_function", 50), "ms"),
        "profiles.lorentz_quasinorm.calls": (per_op(calls("profiles.lorentz_quasinorm")), "count"),
        "profiles.lorentz_quasinorm.ms_p50": (ms_p("profiles.lorentz_quasinorm", 50), "ms"),
        "profiles.lorentz_quasinorm.ms_p90": (ms_p("profiles.lorentz_quasinorm", 90), "ms"),
        "profiles.lorentz_quasinorm.self_s": (per_op(self_total("profiles.lorentz_quasinorm")), "s"),
        "profiles.interpolation_check.self_ms": (self_ms("profiles.interpolation_check"), "ms"),
        "operators.s_symmetry.ms_p50": (ms_p("operators.s_symmetry", 50), "ms"),
        "operators.s_symmetry.cells_per_s": (rate("operators.s_symmetry", "cells"), "1/s"),
        "operators.rearrange.ms_p50": (ms_p("operators.rearrange", 50), "ms"),
        "operators.rearrange.self_ms": (self_ms("operators.rearrange"), "ms"),
        "operators.rearrange.triangles_per_s": (rate("operators.rearrange", "triangles"), "1/s"),
        "operators.functional_ratio.calls": (per_op(calls("operators.functional_ratio")), "count"),
        "operators.functional_ratio.ms_p50": (ms_p("operators.functional_ratio", 50), "ms"),
        "operators.t_transform.first_ms": (
            1e3 * statistics.fmean(first.values()) if first else 0.0, "ms"),
        "operators.t_transform.ms_p50": (ms_p("operators.t_transform", 50), "ms"),
        "mc.drury_norm_mc.ms_p50": (ms_p("mc.drury_norm_mc", 50), "ms"),
        "mc.drury_norm_mc.self_s": (per_op(self_total("mc.drury_norm_mc")), "s"),
        "mc.rejected": (per_op(rejected), "count"),
        "mc.accept_ratio": (accepted / (accepted + rejected) if accepted else 0.0, "ratio"),
        "pointfields.sample_p.self_s": (per_op(self_total("pointfields.sample_p")), "s"),
        "pointfields.value.self_s": (per_op(self_total("pointfields.value")), "s"),
        "pointfields.line_integral.self_s": (per_op(self_total("pointfields.line_integral")), "s"),
        "trace.overhead_pct": (100.0 * (traced_wall / untraced_wall - 1.0), "%"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}

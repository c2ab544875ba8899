"""Span tracer installed around fracdiff's public functions from outside.

``install`` replaces every public function of the nine package modules, and
every public method of their public classes, with a wrapper that records a
span (name, start, end, parent) while ``Tracer.enabled`` is set.  Module
references to a wrapped function (``from .linsolve import convolve_K``) are
rebound too, so calls between layers are seen.  Nothing in the package is
edited; the wrappers exist only in the traced process.

Self time of a span is its duration minus the durations of its direct
children.  Spans live in memory as flat arrays and are written as gzipped
JSON by ``Tracer.dump``.
"""

import functools
import gzip
import importlib
import json
import time
import types
from array import array
from collections import Counter, defaultdict

import numpy as np

# imported before install(), so the classifier keeps the unwrapped function
from fracdiff.mlf import TAYLOR_CUT, deep_cut

LAYERS = ("mlf", "fracops", "spectral", "linsolve", "semilinear", "systems",
          "expressions", "harness", "cli")

# span names of the methods the per-layer metrics report
ALIASES = {
    "linsolve.ModalPropagator.tables": "linsolve.tables",
    "linsolve.ModalPropagator.row_weights": "linsolve.row_weights",
    "linsolve.Trajectory.to_csv": "linsolve.to_csv",
    "semilinear.SemilinearTerm.__call__": "semilinear.term",
    "semilinear.SemilinearTerm.lipschitz": "semilinear.lipschitz",
    "systems.MultiOrderSystem.coupling_field": "systems.coupling_field",
    "expressions.Expression.__call__": "expressions.eval",
    "harness.Scenario.load": "harness.load",
}

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("mlf.ml_neg_vec.calls", "count"),
    ("mlf.ml_neg_vec.self_s", "s"),
    ("mlf.points.taylor", "count"),
    ("mlf.points.contour", "count"),
    ("mlf.points.asymptotic", "count"),
    ("mlf.ns_per_point", "ns"),
    ("spectral.eigendecompose.calls", "count"),
    ("spectral.eigendecompose.self_s", "s"),
    ("spectral.project.calls", "count"),
    ("spectral.project.self_s", "s"),
    ("linsolve.tables.calls", "count"),
    ("linsolve.tables.misses", "count"),
    ("linsolve.tables.hit_ratio", "ratio"),
    ("linsolve.tables.self_s", "s"),
    ("linsolve.row_weights.calls", "count"),
    ("linsolve.row_weights.self_s", "s"),
    ("linsolve.convolve_K.calls", "count"),
    ("linsolve.convolve_K.self_s", "s"),
    ("linsolve.solve_linear.self_s", "s"),
    ("linsolve.to_csv.self_s", "s"),
    ("semilinear.picard_solve.self_s", "s"),
    ("semilinear.picard_solve.sweeps", "count"),
    ("semilinear.monotone_iterate.self_s", "s"),
    ("semilinear.monotone_iterate.sweeps", "count"),
    ("semilinear.term.calls", "count"),
    ("semilinear.lipschitz.calls", "count"),
    ("semilinear.lipschitz.self_s", "s"),
    ("semilinear.power_barrier_rho.self_s", "s"),
    ("systems.picard_system_solve.self_s", "s"),
    ("systems.picard_system_solve.sweeps", "count"),
    ("systems.coupling_field.calls", "count"),
    ("systems.semilinear_pair_solve.self_s", "s"),
    ("expressions.eval.calls", "count"),
    ("expressions.eval.self_s", "s"),
    ("harness.load.self_s", "s"),
    ("harness.run_scenario.self_s", "s"),
    ("harness.convergence_study.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("fracops.l1_weights.self_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.traced_ops_per_s", "1/s"),
    ("bench.trace_overhead_ops_per_s", "1/s"),
)


class Tracer:
    """In-memory spans plus per-name self time, call counts and counters."""

    OP_SPAN = "bench.op"  # root span of one benchmark operation

    def __init__(self):
        self.enabled = False
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []  # [span index, summed duration of direct children]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        t = time.perf_counter()
        top, child = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} is open")
        self.end[idx] = t
        d = t - self.start[idx]
        name = self.names[self.span_name[idx]]
        self.self_s[name] += d - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += d

    def dump(self, path):
        """Write spans and aggregates as gzipped JSON (times relative to the
        first span)."""
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "names": self.names,
            "spans": {
                "name": list(self.span_name),
                "parent": list(self.parent),
                "start_s": [round(s - t0, 9) for s in self.start],
                "end_s": [round(e - t0, 9) for e in self.end],
            },
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _wrap(tracer, name, fn, before=None, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        state = before(tracer) if before is not None else None
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, out, state)
        return out

    return traced


def _count_points(tracer, args, out, state):
    alpha, x = float(args[0]), np.asarray(args[1], dtype=float)
    # same regime split as ml_neg_vec; deep_cut(alpha) > TAYLOR_CUT always
    n_asym = int(np.count_nonzero(x >= deep_cut(alpha)))
    n_taylor = int(np.count_nonzero(x <= TAYLOR_CUT))
    tracer.counts["mlf.points.asymptotic"] += n_asym
    tracer.counts["mlf.points.taylor"] += n_taylor
    tracer.counts["mlf.points.contour"] += x.size - n_asym - n_taylor


def _ml_calls(tracer):
    return tracer.calls["mlf.ml_neg_vec"]


def _count_miss(tracer, args, out, before):
    if tracer.calls["mlf.ml_neg_vec"] > before:
        tracer.counts["linsolve.tables.misses"] += 1


def _sweeps_counter(key, read):
    def after(tracer, args, out, state):
        tracer.counts[key] += int(read(out))
    return after


HOOKS = {
    "mlf.ml_neg_vec": (None, _count_points),
    "linsolve.tables": (_ml_calls, _count_miss),
    "semilinear.picard_solve": (None, _sweeps_counter(
        "semilinear.picard_solve.sweeps", lambda t: t.diagnostics["sweeps"])),
    "semilinear.monotone_iterate": (None, _sweeps_counter(
        "semilinear.monotone_iterate.sweeps", lambda r: r["sweeps"])),
    "systems.picard_system_solve": (None, _sweeps_counter(
        "systems.picard_system_solve.sweeps", lambda r: r["sweeps"])),
}


def install(tracer, rebind=()):
    """Wrap the public API of every layer; also rebind wrapped functions
    imported by name into the modules in ``rebind``."""
    modules = [importlib.import_module(f"fracdiff.{layer}") for layer in LAYERS]
    wrapped = {}
    for layer, mod in zip(LAYERS, modules):
        public = getattr(mod, "__all__", None) or [
            n for n in vars(mod) if not n.startswith("_")
        ]
        for attr in public:
            obj = getattr(mod, attr)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                span = f"{layer}.{attr}"
                wrapped[obj] = _wrap(tracer, span, obj, *HOOKS.get(span, (None, None)))
            elif isinstance(obj, type):
                _wrap_methods(tracer, f"{layer}.{attr}", obj)
    for mod in [*modules, *rebind]:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])


def _wrap_methods(tracer, prefix, cls):
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__call__":
            continue
        qual = f"{prefix}.{attr}"
        span = ALIASES.get(qual, qual)
        hooks = HOOKS.get(span, (None, None))
        if isinstance(raw, types.FunctionType):
            setattr(cls, attr, _wrap(tracer, span, raw, *hooks))
        elif isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(_wrap(tracer, span, raw.__func__, *hooks)))
        elif isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(_wrap(tracer, span, raw.__func__, *hooks)))


def layer_metrics(tracer, untraced_ops_per_s, traced_ops_per_s):
    """Every PER_LAYER metric as {name: {"value", "unit"}}."""
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    points = sum(counts[f"mlf.points.{k}"] for k in ("taylor", "contour", "asymptotic"))
    tables = calls["linsolve.tables"]
    derived = {
        "mlf.ns_per_point": 1e9 * s["mlf.ml_neg_vec"] / points if points else 0.0,
        "linsolve.tables.hit_ratio": (
            (tables - counts["linsolve.tables.misses"]) / tables if tables else 0.0
        ),
        "bench.unattributed_s": s[Tracer.OP_SPAN],
        "bench.traced_ops_per_s": traced_ops_per_s,
        "bench.trace_overhead_ops_per_s": untraced_ops_per_s - traced_ops_per_s,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name.endswith(".calls"):
            value = calls[name[: -len(".calls")]]
        elif name.endswith(".self_s"):
            value = s[name[: -len(".self_s")]]
        else:
            value = counts[name]
        out[name] = {"value": value, "unit": unit}
    return out

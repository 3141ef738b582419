"""Instruments wcl for the traced run.

Each layer's public functions are replaced, in every wcl module that
binds them, by wrappers that open a span (see ``spans``).  Alongside the
spans it keeps duplicate-work keys, computed operation counts and the
``tracemalloc`` peak of the memory-heavy kernels, and turns all of it
into the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import math
import sys
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

from spans import Tracer, busy_times, self_times

# CLI drivers the workloads run (pairs-mem runs part of `fac` itself)
DRIVERS = ("selftest", "bridge", "rice", "kac", "sweep", "chaos")
SPECS = ("LocalTime", "SelfIntersection")
# The first part of a span name is its layer.  ``bench`` is the
# benchmark's own time: the pass loop, report digests and counters.
LAYERS = ("bench", "cli", "experiments", "fac", "chaos", "functionals",
          "processes", "oracle")
ORACLES = (
    ("wcl.chaos", "self_intersection_mean_quadrature"),
    ("wcl.experiments", "rice_quadrature"),
    ("wcl.experiments", "kac_moment_quadrature"),
    ("wcl.experiments", "bridge_weighted_second_moment_quadrature"),
    ("wcl.experiments", "degenerate_outside_mass_quadrature"),
    ("wcl.analytic", "integrate_simplex"),
    ("wcl.analytic", "integrate_interval"),
    ("wcl.analytic", "gauss_hermite_rule"),
)
FAC_STAGES = ("uniform_fac_study", "tail_moment_diagnostic",
              "holder_moment_diagnostic")

# span name -> (module, attribute) of the function it times
TARGETS = {
    "processes.sample_values": ("wcl.processes", "sample_values"),
    "functionals.eval_functional_many": ("wcl.functionals", "eval_functional_many"),
    "functionals.indicator_local_time_many": ("wcl.functionals",
                                              "indicator_local_time_many"),
    "chaos.chaos_terms_many": ("wcl.chaos", "chaos_terms_many"),
    "chaos.chaos_term_table": ("wcl.chaos", "chaos_term_table"),
    "fac.eval_poly_many": ("wcl.fac", "eval_poly_many"),
    **{f"fac.{name}": ("wcl.fac", name) for name in FAC_STAGES},
    **{f"oracle.{attr}": (module, attr) for module, attr in ORACLES},
}

# metric holding each layer's self time; they add up to trace.wall_s
LAYER_SELF = {layer: "cli.overhead_s" if layer == "cli" else f"{layer}.self_s"
              for layer in LAYERS}
MB = 1024.0 * 1024.0


def _per_layer():
    m = [("trace.wall_s", "s")]
    m += [(name, "s") for name in LAYER_SELF.values()]
    m += [("processes.sample_values.busy_s", "s"),
          ("processes.sample_values.calls", "count"),
          ("processes.sample_values.paths", "count"),
          ("processes.sample_values.unique_frac", "ratio")]
    for spec in SPECS:
        p = f"functionals.eval_functional_many.{spec}"
        m += [(f"{p}.busy_s", "s"), (f"{p}.calls", "count"),
              (f"{p}.unique_frac", "ratio"), (f"{p}.peak_alloc_mb", "MB")]
    m += [("functionals.self_intersection.pair_evals", "count"),
          ("functionals.self_intersection.pair_evals_per_s", "1/s"),
          ("functionals.indicator_local_time_many.busy_s", "s")]
    p = "chaos.chaos_terms_many"
    m += [(f"{p}.busy_s", "s"), (f"{p}.calls", "count"), (f"{p}.pair_terms", "count"),
          (f"{p}.pair_terms_per_s", "1/s"), (f"{p}.peak_alloc_mb", "MB")]
    for _, attr in ORACLES:
        p = f"oracle.{attr}"
        m += [(f"{p}.busy_s", "s"), (f"{p}.calls", "count")]
    m += [(f"fac.{name}.self_s", "s") for name in FAC_STAGES]
    m += [("fac.eval_poly_many.busy_s", "s")]
    for driver in DRIVERS:
        m += [(f"experiments.{driver}.wall_s", "s"), (f"experiments.{driver}.self_s", "s")]
    m += [("experiments.min_gate_margin", "ratio")]
    higher = ("unique_frac", "_per_s", "min_gate_margin")
    return tuple((name, unit, "higher" if name.endswith(higher) else "lower")
                 for name, unit in m)


# (name, unit, better) of every metric a traced run reports, in order
PER_LAYER = _per_layer()


def seed_key(seed):
    """What fixes the random stream of a ``sample_values`` call."""
    if isinstance(seed, np.random.SeedSequence):
        return ("SeedSequence", seed.entropy, tuple(seed.spawn_key))
    return ("seed", repr(seed))


def sample_key(model, grid, seed, n_paths):
    """Two calls with equal keys draw the same paths."""
    return (repr(model), repr(grid), seed_key(seed), int(n_paths))


def values_key(spec, values):
    """Two calls with equal keys evaluate the same functional on the same
    path values."""
    arr = np.ascontiguousarray(values)
    digest = hashlib.blake2b(arr.data, digest_size=16).hexdigest()
    return (repr(spec), arr.shape, arr.dtype.str, digest)


def node_pairs(n_nodes: int) -> int:
    """Pairs i <= j of grid nodes: (n+1)(n+2)/2 for n steps."""
    return n_nodes * (n_nodes + 1) // 2


def pair_evals(values) -> int:
    """Computed kernel evaluations of G_eps: paths x node pairs."""
    n_paths, n_nodes = values.shape[:2]
    return n_paths * node_pairs(n_nodes)


def pair_terms(values, k_max: int) -> int:
    """Computed chaos-term products: paths x node pairs x the number of
    multi-indices of every order 0..k_max in d dimensions."""
    n_paths, n_nodes, d = values.shape
    indices = sum(math.comb(k + d - 1, d - 1) for k in range(k_max + 1))
    return n_paths * node_pairs(n_nodes) * indices


class Counters:
    """Duplicate-work keys, computed operation counts and memory peaks."""

    def __init__(self):
        self.keys = defaultdict(set)
        self.totals = defaultdict(int)
        self.peak_bytes = defaultdict(int)


def _binder(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _hooks(name, fn, counters):
    """(count, around) hooks for the span ``name`` around ``fn``."""
    bind = _binder(fn)

    def measure_peak(key_of):
        def around(call, args, kwargs):
            if tracemalloc.is_tracing():  # nested in another measured call
                return call(*args, **kwargs)
            key = key_of(args, kwargs)
            tracemalloc.start()
            try:
                return call(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                counters.peak_bytes[key] = max(counters.peak_bytes[key], peak)
        return around

    if name == "processes.sample_values":
        def count(args, kwargs):
            a = bind(args, kwargs)
            counters.keys[name].add(sample_key(a["model"], a["grid"], a["seed"],
                                               a["n_paths"]))
            counters.totals[f"{name}.paths"] += int(a["n_paths"])
        return count, None

    if name == "functionals.eval_functional_many":
        def count(args, kwargs):
            a = bind(args, kwargs)
            spec = type(a["spec"]).__name__
            counters.keys[f"{name}.{spec}"].add(values_key(a["spec"], a["values"]))
            if spec == "SelfIntersection":
                counters.totals["functionals.self_intersection.pair_evals"] += (
                    pair_evals(a["values"]))
            return spec
        return count, measure_peak(
            lambda args, kwargs: f"{name}.{type(bind(args, kwargs)['spec']).__name__}")

    if name == "chaos.chaos_terms_many":
        def count(args, kwargs):
            a = bind(args, kwargs)
            counters.totals[f"{name}.pair_terms"] += pair_terms(a["values"], a["k_max"])
        return count, measure_peak(lambda args, kwargs: name)

    return None, None


def _wcl_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "wcl" or n.startswith("wcl."))]


def install(tracer: Tracer, counters: Counters):
    """Wrap every binding of each target and each CLI driver; returns a
    function that puts the originals back.  Targets that no longer exist
    are reported on stderr and read as zero."""
    importlib.import_module("wcl.cli")  # loads every wcl module
    undo = []
    modules = _wcl_modules()
    for name, (module_name, attr) in TARGETS.items():
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            print(f"perfbench: {module_name}.{attr} not found; {name} reads 0",
                  file=sys.stderr)
            continue
        count, around = _hooks(name, original, counters)
        wrapper = tracer.wrap(name, original, count=count, around=around)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((setattr, module, key, original))
    drivers = importlib.import_module("wcl.experiments").EXPERIMENTS
    for driver, fn in list(drivers.items()):
        drivers[driver] = tracer.wrap(f"experiments.{driver}", fn)
        undo.append((dict.__setitem__, drivers, driver, fn))

    def restore():
        for put, owner, key, original in reversed(undo):
            put(owner, key, original)

    return restore


def layer_metrics(spans, counters: Counters, wall_s: float, min_margin: float):
    """Every ``PER_LAYER`` metric for one traced pass."""
    own = self_times(spans)
    busy = defaultdict(float, busy_times(spans))
    calls = Counter(s.name for s in spans)
    self_by_name = defaultdict(float)
    for span, t in zip(spans, own):
        self_by_name[span.name] += t
    layer_self = defaultdict(float)
    for name, t in self_by_name.items():
        layer_self[name.split(".", 1)[0]] += t

    def unique(name):
        return len(counters.keys[name]) / calls[name] if calls[name] else 0.0

    def rate(total, seconds):
        return total / seconds if seconds > 0 else 0.0

    m = {"trace.wall_s": wall_s}
    for layer, name in LAYER_SELF.items():
        m[name] = layer_self[layer]
    p = "processes.sample_values"
    m.update({f"{p}.busy_s": busy[p], f"{p}.calls": calls[p],
              f"{p}.paths": counters.totals[f"{p}.paths"],
              f"{p}.unique_frac": unique(p)})
    for spec in SPECS:
        p = f"functionals.eval_functional_many.{spec}"
        m.update({f"{p}.busy_s": busy[p], f"{p}.calls": calls[p],
                  f"{p}.unique_frac": unique(p),
                  f"{p}.peak_alloc_mb": counters.peak_bytes[p] / MB})
    evals = counters.totals["functionals.self_intersection.pair_evals"]
    m["functionals.self_intersection.pair_evals"] = evals
    m["functionals.self_intersection.pair_evals_per_s"] = rate(
        evals, busy["functionals.eval_functional_many.SelfIntersection"])
    p = "functionals.indicator_local_time_many"
    m[f"{p}.busy_s"] = busy[p]
    p = "chaos.chaos_terms_many"
    terms = counters.totals[f"{p}.pair_terms"]
    m.update({f"{p}.busy_s": busy[p], f"{p}.calls": calls[p],
              f"{p}.pair_terms": terms,
              f"{p}.pair_terms_per_s": rate(terms, busy[p]),
              f"{p}.peak_alloc_mb": counters.peak_bytes[p] / MB})
    for _, attr in ORACLES:
        p = f"oracle.{attr}"
        m.update({f"{p}.busy_s": busy[p], f"{p}.calls": calls[p]})
    for name in FAC_STAGES:
        m[f"fac.{name}.self_s"] = self_by_name[f"fac.{name}"]
    m["fac.eval_poly_many.busy_s"] = busy["fac.eval_poly_many"]
    for driver in DRIVERS:
        p = f"experiments.{driver}"
        m[f"{p}.wall_s"] = busy[p]
        m[f"{p}.self_s"] = self_by_name[p]
    m["experiments.min_gate_margin"] = min_margin
    return m

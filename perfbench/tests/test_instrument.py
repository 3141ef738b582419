import json
import re
from pathlib import Path

import numpy as np
import pytest

import instrument
from instrument import (
    PER_LAYER,
    Counters,
    layer_metrics,
    pair_evals,
    pair_terms,
    sample_key,
    values_key,
)
from spans import Tracer

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_sample_key_separates_every_input_that_changes_the_paths():
    from wcl.processes import BrownianMotion, TimeGrid, replica_seed

    bm, grid = BrownianMotion(1), TimeGrid(256)
    base = sample_key(bm, grid, replica_seed(7, 3), 1000)
    assert base == sample_key(BrownianMotion(1), TimeGrid(256), replica_seed(7, 3), 1000)
    assert base != sample_key(bm, grid, replica_seed(7, 4), 1000)
    assert base != sample_key(bm, grid, replica_seed(8, 3), 1000)
    assert base != sample_key(bm, grid, replica_seed(7, 3), 999)
    assert base != sample_key(bm, TimeGrid(512), replica_seed(7, 3), 1000)
    assert base != sample_key(BrownianMotion(2), grid, replica_seed(7, 3), 1000)
    assert sample_key(bm, grid, 5, 10) != sample_key(bm, grid, 6, 10)


def test_values_key_depends_on_spec_and_every_value():
    from wcl.functionals import LocalTime

    values = np.random.default_rng(0).normal(size=(4, 9, 1))
    key = values_key(LocalTime(0.1), values)
    assert key == values_key(LocalTime(0.1), values.copy())
    assert key != values_key(LocalTime(0.2), values)
    changed = values.copy()
    changed[3, 8, 0] += 1e-12
    assert key != values_key(LocalTime(0.1), changed)
    assert key == values_key(LocalTime(0.1), np.asfortranarray(values))


def test_computed_operation_counts():
    values = np.zeros((5, 3, 2))  # 5 paths, n = 2 steps, d = 2
    assert pair_evals(values) == 5 * 3 * 4 // 2
    # multi-indices of order 0, 1, 2 in d = 2: 1 + 2 + 3
    assert pair_terms(values, 2) == 5 * 6 * 6
    assert pair_terms(np.zeros((1, 3, 1)), 6) == 6 * 7


@pytest.fixture
def installed():
    tracer, counters = Tracer(), Counters()
    restore = instrument.install(tracer, counters)
    try:
        yield tracer, counters
    finally:
        restore()


def test_install_wraps_every_binding(installed):
    import wcl.chaos
    import wcl.experiments
    import wcl.fac
    import wcl.functionals
    import wcl.processes

    for module in (wcl.processes, wcl.experiments, wcl.fac, wcl.chaos):
        assert hasattr(module.sample_values, "__wrapped__"), module.__name__
    for module in (wcl.functionals, wcl.experiments, wcl.fac):
        assert hasattr(module.eval_functional_many, "__wrapped__"), module.__name__
    assert hasattr(wcl.experiments.indicator_local_time_many, "__wrapped__")
    assert hasattr(wcl.experiments.integrate_interval, "__wrapped__")
    assert all(hasattr(fn, "__wrapped__") for fn in wcl.experiments.EXPERIMENTS.values())


def test_restore_puts_the_originals_back():
    import wcl.experiments

    before = wcl.experiments.sample_values, dict(wcl.experiments.EXPERIMENTS)
    instrument.install(Tracer(), Counters())()
    assert wcl.experiments.sample_values is before[0]
    assert wcl.experiments.EXPERIMENTS == before[1]


def test_duplicate_work_counters(installed):
    import wcl.fac
    from wcl.functionals import SelfIntersection
    from wcl.processes import BrownianMotion, TimeGrid, replica_seed

    tracer, counters = installed
    bm, grid = BrownianMotion(2), TimeGrid(4)
    a, _ = wcl.fac.sample_values(bm, grid, replica_seed(1, 0), n_paths=3)
    b, _ = wcl.fac.sample_values(bm, grid, seed=replica_seed(1, 0), n_paths=3)
    c, _ = wcl.fac.sample_values(bm, grid, replica_seed(1, 1), 3)
    spec = SelfIntersection(0.1, (0.4, 0.3))
    for values in (a, b, c):
        wcl.fac.eval_functional_many(spec, values)
    m = layer_metrics(tracer.spans, counters, wall_s=1.0, min_margin=0.5)
    assert m["processes.sample_values.calls"] == 3
    assert m["processes.sample_values.paths"] == 9
    assert m["processes.sample_values.unique_frac"] == pytest.approx(2 / 3)
    p = "functionals.eval_functional_many.SelfIntersection"
    assert m[f"{p}.calls"] == 3
    assert m[f"{p}.unique_frac"] == pytest.approx(2 / 3)
    assert m[f"{p}.peak_alloc_mb"] > 0
    assert m["functionals.self_intersection.pair_evals"] == 3 * 3 * 5 * 6 // 2


def test_metric_list_matches_benchmark_json_and_layer_metrics():
    declared = json.loads(BENCHMARK.read_text())["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in declared] == list(PER_LAYER)
    m = layer_metrics([], Counters(), wall_s=1.0, min_margin=1.0)
    assert list(m) == [name for name, _, _ in PER_LAYER]


def test_metric_names_and_units_fit_the_benchmark_format():
    names = [name for name, _, _ in PER_LAYER]
    assert len(set(names)) == len(names)
    for name, unit, _ in PER_LAYER:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit

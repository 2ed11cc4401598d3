"""Tests of the benchmark itself (metrics, ledger, checks, traffic).

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import ledger  # noqa: E402
import panels  # noqa: E402
from perfstats import (  # noqa: E402
    hd_median, nearest_rank, ratio, self_times, tail)

_spec = importlib.util.spec_from_file_location("perfbench_run",
                                               HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench  # dataclasses resolve annotations there
_spec.loader.exec_module(bench)


def tiny_fig10(seed=2011):
    return dict(workload=panels.FIG10, panel_seed=seed, replicates=1,
                elevations=(1, 2))


def tiny_workload(reference=None):
    """A PanelWorkload over a two-instance fig10 panel."""
    wl = bench.PanelWorkload(panels.FIG10, replicates=1, elevations=(1, 2))
    assert wl.reference is None  # a narrowed panel has no reference
    wl.reference = reference
    return wl


# ----------------------------------------------------------------------
# Metric arithmetic
# ----------------------------------------------------------------------
def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 49))  # 48 instances
    value, pct, n = tail(values)
    assert (pct, n) == (79, 48)
    assert value == nearest_rank(values, 79) == 38
    assert n - math.ceil(pct * n / 100) >= 10
    assert n - math.ceil((pct + 1) * n / 100) < 10


def test_hd_median_matches_beta_weighted_order_statistics():
    # Reference value from scipy.stats.beta.cdf weights, a = b = 4.
    values = [0.9, 0.1, 0.5, 0.3, 7.0, 0.2, 0.4]
    assert hd_median(values) == pytest.approx(0.4933823734765519, rel=1e-7)
    assert hd_median([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0)
    assert hd_median([2.0] * 9) == pytest.approx(2.0)
    assert hd_median([1.0, 3.0]) == 2.0
    assert hd_median([]) == 0.0


def test_hd_median_moves_less_than_the_median_with_one_central_value():
    values = [float(i) for i in range(1, 49)]
    bumped = values[:24] + [values[24] * 1.5] + values[25:]
    hd_shift = hd_median(bumped) - hd_median(values)
    median_shift = (sorted(bumped)[23] + sorted(bumped)[24]) / 2 - 24.5
    assert 0 < hd_shift < median_shift


def test_tail_without_enough_instances_falls_back_to_max():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100, 3)
    assert tail([]) == (0.0, 0, 0)


def test_tail_percentile_and_count_are_printed(capsys):
    args = bench.parse_args(["--workload", panels.FIG8])
    ph = bench.Phase(walls=[(f"i{i}", float(i)) for i in range(48)] * 2,
                     wall_s=1.0, passes=2)
    wl = type("W", (), {"check": "reference"})()
    e2e = bench.end_to_end(args, wl, ph, [0.5], 100.0)
    out = capsys.readouterr().out
    assert "instance_tail_s is p79 of 48 instances" in out
    assert e2e["instance_tail_s"] == (37.0, "s")


def test_self_time_on_synthetic_tree():
    spans = [
        {"span": 1, "parent": None, "duration_s": 10.0},
        {"span": 2, "parent": 1, "duration_s": 4.0},
        {"span": 3, "parent": 1, "duration_s": 3.0},
        {"span": 4, "parent": 2, "duration_s": 1.5},
        {"span": 5, "parent": 3, "duration_s": 3.5},  # clock noise
    ]
    assert self_times(spans) == {1: 3.0, 2: 2.5, 3: 0.0, 4: 1.5, 5: 3.5}


def test_layer_metrics_self_time_and_nested_kernel_calls():
    def span(sid, parent, kind, dur, **attrs):
        return {"span": sid, "parent": parent, "kind": kind,
                "duration_s": dur, "attrs": attrs}

    spans = [
        span(1, None, "bench.instance", 10.0),
        span(2, 1, "lattice.suffix_arrays", 6.0),
        span(3, 2, "kernel.enumerate", 5.0, clusters=7),
        span(4, 3, "kernel.enumerate", 2.0, clusters=7),  # conversion
        span(5, 1, "lattice.suffix_arrays", 0.5),
    ]
    m = ledger.layer_metrics(spans)
    assert m["kernel.enumerate.calls"] == 1
    assert m["kernel.clusters"] == 7
    assert m["kernel.enumerate.self_s"] == pytest.approx(5.0)
    assert m["lattice.suffix_arrays.self_s"] == pytest.approx(1.5)
    assert m["lattice.suffix_reuse_frac"] == pytest.approx(0.5)
    assert m["kernel.enumerate.share"] == pytest.approx(0.5)
    assert m["instance.wall_s"] == 10.0


def test_ratios_with_zero_calls_are_zero_not_nan():
    assert ratio(0, 0) == 0.0
    m = ledger.layer_metrics([])
    assert set(m) <= set(ledger.layer_names())
    for name, value in m.items():
        assert not math.isnan(value), name
        assert value == 0, name


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert layer == [(n, bench.layer_unit(n)) for n in ledger.layer_names()]
    args = bench.parse_args(["--workload", panels.FIG10])
    ph = bench.Phase(walls=[(f"i{i}", 1.0) for i in range(12)], wall_s=12.0,
                     passes=1)
    wl = type("W", (), {"check": "reference"})()
    e2e = bench.end_to_end(args, wl, ph, [1.0], 10.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, unit) for k, (_v, unit) in e2e.items()]


# ----------------------------------------------------------------------
# Correctness checks and failure accounting
# ----------------------------------------------------------------------
def test_perturbed_reference_energy_is_a_wrong_output():
    wl = tiny_workload()
    reference = {
        inst.label: panels.outcome(c.period, c.results)
        for inst in wl.instances
        for c in [wl.execute(inst)]
    }
    wl.reference = reference
    assert bench.measure(wl, 1, 0, 1, passes=1).failures == []
    label = wl.instances[0].label
    col, val = next((k, v) for k, v in reference[label]["results"].items()
                    if v.startswith("E "))
    reference[label]["results"][col] = "E " + repr(float(val[2:]) * 1.001)
    ph = bench.measure(wl, 1, 0, 1, passes=1)
    [(where, kind, why)] = ph.failures
    assert (where, kind) == (f"pass0:{label}", bench.WRONG)
    assert why.startswith(f"{col}: ")
    assert (ph.attempted, ph.failed, ph.ok) == (2, 1, 1)


def test_instance_that_raises_counts_as_failed_not_skipped():
    wl = tiny_workload()
    real = wl.execute
    crash = wl.instances[1].label

    def execute(inst):
        if inst.label == crash:
            raise OverflowError("Python int too large to convert to C long")
        return real(inst)

    wl.execute = execute
    ph = bench.measure(wl, 3, 0, 1, passes=1)
    assert ph.attempted == 2
    assert ph.failures == [(f"pass0:{crash}", bench.RAISED,
                            "OverflowError: Python int too large to "
                            "convert to C long")]
    assert bench.ratio(ph.failed, ph.attempted) == 0.5
    assert ph.rate == pytest.approx(1 / ph.wall_s)


def test_revalidation_is_the_fallback_without_reference():
    wl = tiny_workload(reference=None)
    assert wl.check.startswith("revalidated")
    assert bench.measure(wl, 1, 0, 1, passes=1).failures == []


def test_warm_up_runs_one_cheap_instance_and_survives_a_raise():
    wl = tiny_workload()
    ran = []

    def execute(inst):
        ran.append(inst.label)
        raise OverflowError("boom")

    wl.execute = execute
    wl.warm_up()
    assert ran == [panels.WARMUP[panels.FIG10]]


def test_every_pass_starts_with_fresh_graphs():
    """The SPG's derived-data cache (ideal lattice included) lives as long
    as the graph, and the pre-engine executor never clears it: a second
    pass over the same graphs would start warm."""
    wl = tiny_workload()
    legacy = panels._legacy_executor(wl.grid, panels.paper_order())
    cached_at_start = []

    def execute(inst):
        cached_at_start.append(len(inst.spg._derived))
        return legacy(inst)

    wl.execute = execute
    ph = bench.measure(wl, 1, 0, 1, passes=2)
    assert ph.failures == []
    assert cached_at_start == [0, 0, 0, 0]
    assert all(inst.spg._derived for inst in wl.instances)  # warm by now


# ----------------------------------------------------------------------
# Traffic: the benchmark's instances are the library runners' instances
# ----------------------------------------------------------------------
def _outputs(instances):
    run = panels.executor(panels.make_grid())
    panels.reset_lattice_cache()
    return {i.label: panels.outcome(c.period, c.results)
            for i in instances for c in [run(i)]}


def test_fig10_traffic_equals_run_random_experiment():
    kw = dict(panel_seed=7, replicates=2, elevations=(1, 2))
    ours = _outputs(panels.generate(panels.FIG10, **kw))
    theirs = panels.library_outputs(panels.FIG10, **kw)
    assert list(ours) == list(theirs)
    assert ours == theirs


def test_fig8_traffic_equals_run_streamit_experiment():
    kw = dict(panel_seed=7, workflows=(7, 9))
    ours = _outputs(panels.generate(panels.FIG8, **kw))
    theirs = panels.library_outputs(panels.FIG8, **kw)
    assert list(ours) == list(theirs)
    assert ours == theirs


def test_legacy_executor_reproduces_the_heuristic_seed_draw():
    insts = panels.generate(**tiny_fig10(seed=5))
    grid = panels.make_grid()
    new = panels.executor(grid)
    old = panels._legacy_executor(grid, panels.paper_order())
    for inst in insts:
        a, b = new(inst), old(inst)
        assert panels.outcome(a.period, a.results) == panels.outcome(
            b.period, b.results)


# ----------------------------------------------------------------------
# Ledger wrappers
# ----------------------------------------------------------------------
def test_wrappers_sit_on_resolved_call_sites_and_restore():
    import repro.experiments.period as period

    original = period.run
    wl = tiny_workload()
    wl.reference = {i.label: panels.outcome(c.period, c.results)
                    for i in wl.instances for c in [wl.execute(i)]}
    tracer = ledger.Tracer()
    restore, missing = ledger.install(tracer)
    try:
        assert period.run is not original
        assert bench.measure(wl, 1, 0, 1, passes=1,
                             tracer=tracer).failures == []
    finally:
        restore()
    assert period.run is original
    assert missing == []
    m = ledger.layer_metrics(tracer.spans())
    assert m["spg.generate.calls"] == 2  # the pass's graphs, made traced
    assert m["spg.generate.self_s"] > 0
    assert m["period.instances"] == 2
    assert m["period.probes"] >= 2
    assert m["solver.DPA1D.calls"] == m["period.probes"]
    assert m["lattice.ideals.calls"] > 0
    spans = tracer.spans()
    setup = {s["span"] for s in spans if s["kind"] == "bench.setup"}
    inst_ids = {s["span"] for s in spans if s["kind"] == "bench.instance"}
    assert all(s["attrs"]["instance"] in inst_ids for s in spans
               if s["span"] not in setup and s["parent"] not in setup)

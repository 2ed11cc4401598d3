"""Paper-panel instances, executors and output records.

The two paper-panel workloads are fixed panels of the source paper:

* ``fig10-n50-4x4``: random SPGs with n=50 on a 4x4 CMP, CCR 10,
  elevations 1, 2, 4, 8, 12 and 16, three replicates (Figure 10);
* ``fig8-streamit-4x4``: the 12 StreamIt workflows x CCR {orig, 10, 1,
  0.1} on a 4x4 CMP (Figure 8).

:func:`generate` builds every instance in the calling process and
consumes the random stream exactly as ``run_random_experiment`` and
``run_streamit_experiment`` do, so an instance run on its own gives the
same output as inside the library runner.  :func:`executor` returns the
function that runs one instance on whichever ``repro`` tree is on
``sys.path``: the engine's task functions where the tree has them, else
``choose_period`` fed a generator parked just before the heuristic-seed
draw (trees older than the parallel engine).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_PANEL_SEED = 2011
FIG10 = "fig10-n50-4x4"
FIG8 = "fig8-streamit-4x4"
PANEL_WORKLOADS = (FIG10, FIG8)

FIG10_N = 50
FIG10_CCR = 10.0
FIG10_ELEVATIONS = (1, 2, 4, 8, 12, 16)
FIG10_REPLICATES = 3
FIG8_CCRS = (None, 10.0, 1.0, 0.1)
GRID = (4, 4)
#: Per panel, a cheap instance run once before timing (see run.py).
WARMUP = {FIG10: "n50/elev1/rep0", FIG8: "app7/ccr=orig"}


@dataclass
class Instance:
    """One ``choose_period`` cell of a panel, generated in the parent."""

    label: str
    title: str  # label plus the workflow name, for reports
    spg: object  # random SPG (fig10) or None (fig8 builds it in the task)
    workflow: tuple | None  # (index, ccr, workflow seed) for fig8
    hseed: int  # heuristic seed, as the library pre-draws it
    rng_state: dict  # generator state just before the hseed draw
    replicate: int = 0


def make_grid():
    from repro.platform.cmp import CMPGrid

    return CMPGrid(*GRID)


def paper_order() -> tuple[str, ...]:
    from repro.heuristics.base import PAPER_ORDER

    return tuple(PAPER_ORDER)


def _draw_hseed(rng) -> tuple[int, dict]:
    state = rng.bit_generator.state
    return int(rng.integers(0, 2**63 - 1)), state


def generate(workload: str, panel_seed: int = DEFAULT_PANEL_SEED,
             replicates: int = FIG10_REPLICATES,
             elevations=FIG10_ELEVATIONS,
             workflows: tuple[int, ...] | None = None) -> list[Instance]:
    """Every instance of the panel, in the library runner's order."""
    rng = np.random.default_rng(panel_seed)
    out: list[Instance] = []
    if workload == FIG10:
        from repro.spg.random_gen import random_spg_with_elevation

        for elev in elevations:
            if elev > FIG10_N // 2:
                continue
            for rep in range(replicates):
                spg = random_spg_with_elevation(
                    FIG10_N, elev, rng=rng, ccr=FIG10_CCR
                )
                hseed, state = _draw_hseed(rng)
                label = f"n{FIG10_N}/elev{elev}/rep{rep}"
                out.append(Instance(label, label, spg, None, hseed, state,
                                    rep))
    elif workload == FIG8:
        from repro.spg.streamit import STREAMIT_TABLE1

        names = {s.index: s.name for s in STREAMIT_TABLE1}
        for idx in workflows or tuple(names):
            for ccr in FIG8_CCRS:
                hseed, state = _draw_hseed(rng)
                label = f"app{idx}/ccr={'orig' if ccr is None else ccr}"
                out.append(Instance(label, f"{label} {names[idx]}", None,
                                    (idx, ccr, panel_seed), hseed, state))
    else:
        raise ValueError(f"not a panel workload: {workload!r}")
    return out


def run_order(instances: list[Instance]) -> list[Instance]:
    """The order a pass runs the panel in: replicate by replicate.

    The library lists fig10 elevation by elevation, which would run all
    cheap low-elevation instances in the first seconds and the costly
    ones at the end; interleaving spreads both over the pass, so a
    burst of host noise does not land on one kind only.  Outputs do
    not depend on the order.
    """
    return sorted(instances, key=lambda inst: inst.replicate)


def executor(grid, heuristics=None):
    """``run(instance) -> PeriodChoice`` on the tree found on sys.path."""
    heuristics = paper_order() if heuristics is None else tuple(heuristics)
    try:
        from repro.experiments.parallel import random_panel_task, streamit_task
    except ImportError:
        return _legacy_executor(grid, heuristics)

    def run(inst: Instance):
        if inst.workflow is None:
            return random_panel_task(
                (inst.spg, grid, heuristics, inst.hseed, None))
        idx, ccr, wf_seed = inst.workflow
        return streamit_task(
            (idx, ccr, wf_seed, grid, heuristics, inst.hseed, None))

    return run


def _legacy_executor(grid, heuristics):
    from repro.experiments.period import choose_period

    def run(inst: Instance):
        rng = np.random.default_rng()
        rng.bit_generator.state = inst.rng_state
        spg = inst.spg
        if spg is None:
            from repro.spg.streamit import streamit_workflow

            idx, ccr, wf_seed = inst.workflow
            spg = streamit_workflow(idx, ccr=ccr, seed=wf_seed)
        return choose_period(spg, grid, heuristics, rng=rng)

    return run


def reset_lattice_cache() -> None:
    """Start a pass cold, as every ``run_tasks`` call does (resolved on
    the engine module, where a traced run harvests the cache's counters
    first)."""
    try:
        from repro.experiments import parallel
    except ImportError:
        return
    reset = getattr(parallel, "reset_worker_cache", None)
    if reset is not None:  # trees before the lattice cache have none
        reset()


def outcome(period: float, results: dict) -> dict:
    """An instance's output record: the period, and per column the
    energy ``repr`` or the failure reason."""
    return {
        "period": repr(period),
        "results": {
            name: (f"E {r.energy.total!r}" if r.ok else f"FAIL {r.failure}")
            for name, r in results.items()
        },
    }


def library_outputs(workload: str, panel_seed: int = DEFAULT_PANEL_SEED,
                    replicates: int = FIG10_REPLICATES,
                    elevations=FIG10_ELEVATIONS,
                    workflows: tuple[int, ...] | None = None) -> dict:
    """``{label: outcome}`` from the library's own panel runner."""
    grid = make_grid()
    if workload == FIG10:
        from repro.experiments.random_experiments import run_random_experiment

        exp = run_random_experiment(
            FIG10_N, grid, FIG10_CCR, elevations=elevations,
            replicates=replicates, seed=panel_seed,
        )
        records = [r for recs in exp.records.values() for r in recs]
    elif workload == FIG8:
        from repro.experiments.streamit_experiments import (
            run_streamit_experiment,
        )

        exp = run_streamit_experiment(grid, ccrs=FIG8_CCRS,
                                      workflows=workflows, seed=panel_seed)
        records = list(exp.records.values())
    else:
        raise ValueError(f"not a panel workload: {workload!r}")
    return {r.label: outcome(r.period, r.results) for r in records}

"""The ``sweep-store`` workload: a bounded result store, cold then warm.

One pass runs ``run_scenario_sweep`` over five fabrics (3x3, CCR 10
and 1, two ``random-20`` replicates: 20 cells) with a refining solver
mix into a fresh SQLite store whose row cap is below the cell count.
The cold pass computes, files and evicts; the ``resume=True`` pass reads
the surviving rows and recomputes the evicted cells.  Both reports must
be byte-identical, and equal to the reference recorded at ``SEED``.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

SWEEP = "sweep-store"
TOPOLOGIES = ("mesh", "torus", "ring", "benes", "hetmesh")
SIZES = ("3x3",)
CCRS = (10.0, 1.0)
APPS = ("random-20",)
REPLICATES = 2
SOLVERS = ("Random+refine", "Greedy", "dpa2d1d+refine")
MAX_ROWS = 12  # below the 20 cells, so the cold pass evicts
#: Sweep seed of every pass, the seed the reference was recorded at.
#: Cell costs vary with the random-20 draw; a fixed draw keeps that
#: variation out of the run-to-run spread, as the fixed panels do.
SEED = 2011


def default_jobs() -> int:
    return min(2, os.cpu_count() or 1)


def supported() -> bool:
    try:
        import repro.store  # noqa: F401
    except ImportError:
        return False
    return True


def canonical(report: dict) -> str:
    return json.dumps(report, sort_keys=True)


def records(report: dict) -> dict[str, str]:
    """``{cell label: canonical record}`` of a sweep report."""
    return {
        rec["label"]: json.dumps(rec, sort_keys=True)
        for sc in report["scenarios"] for rec in sc["records"]
    }


def open_scratch_store(scratch_root: Path):
    """A fresh SQLite store in a temp dir under ``scratch_root``."""
    from repro.store.backend import open_store

    scratch_root.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="store-", dir=scratch_root))
    return tmp, open_store(str(tmp / "results.sqlite"))


def run_pass(seed: int, jobs: int, scratch_root: Path) -> dict:
    """One cold + warm pass.  ``times`` holds ``(label, seconds)`` per
    cell, labelled by sweep and cell slot (``cold/cell3``) so a run can
    take each slot's median over passes.  A cell's wall time is its
    sweep's wall divided by the cells it processed (the pool completes
    cells in chunks, so the parent cannot time a cell on its own)."""
    from repro.experiments.scenarios import run_scenario_sweep

    tmp, store = open_scratch_store(scratch_root)
    reports, times = [], []
    try:
        for which, resume in (("cold", False), ("warm", True)):
            t0 = time.perf_counter()
            report = run_scenario_sweep(
                TOPOLOGIES, SIZES, CCRS, APPS, replicates=REPLICATES,
                seed=seed, solvers=SOLVERS, jobs=jobs, store=store,
                eviction={"max_rows": MAX_ROWS}, resume=resume,
            )
            wall = time.perf_counter() - t0
            n = report["meta"]["processed_instances"]
            times += [(f"{which}/cell{i}", wall / n) for i in range(n)]
            reports.append(report)
        size = store.total_bytes()
    finally:
        store.close()
        shutil.rmtree(tmp, ignore_errors=True)
    return {"cold": reports[0], "warm": reports[1], "times": times,
            "bytes": size}


def check_pass(result: dict, reference: dict | None,
               raised: str, wrong: str) -> list[tuple[str, str, str]]:
    """``[(cell label, raised | wrong, reason)]`` per failed cell.

    A cell fails if the sweep recorded it as failed, if its cold and
    warm records differ, or (with a reference) if its cold record
    differs from the reference.  Each cell counts in both passes.
    """
    bad: list[tuple[str, str, str]] = []
    for which in ("cold", "warm"):
        for f in result[which]["meta"]["failures"]:
            bad.append((f"{which}:{f['label']}", raised,
                        f"{f['reason']}: {f['message']}"))
    cold, warm = records(result["cold"]), records(result["warm"])
    ref = None if reference is None else records(reference)
    for label, rec in cold.items():
        if warm.get(label) != rec:
            bad.append((f"warm:{label}", wrong,
                        "warm record differs from cold"))
        if ref is not None and ref.get(label) != rec:
            bad.append((f"cold:{label}", wrong, "differs from the reference"))
    if not bad and canonical(result["cold"]) != canonical(result["warm"]):
        bad.append(("report", wrong,
                    "cold and warm reports are not identical"))
    return bad

"""Benchmark of the suffix-cluster enumeration kernels and lattice reuse.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_dpa1d.py [--repeats N]

It times, on an enumeration-bound panel of dense random SPGs (the
Theorem-1 suffix-cluster enumeration dominating, DP array work small):

* ``IdealLattice.warm`` — the full lattice enumeration + flat DP table
  build — under the ``python`` reference kernel and the ``vector``
  frontier-batched kernel, on fresh lattices, best of ``--repeats``;
* the cross-period lattice reuse that ``choose_period`` probes get from
  the keep-loosest caches: six solve caps walked loosest-first on one
  lattice versus a fresh lattice per cap;
* the Figure-10 rebuild: the period walk's first cap (T=1) runs out of
  DP transitions partway through its table build, leaving per-ideal
  arrays behind, and the next cap (T=0.1) rebuilds the table on that
  same lattice — the call mix of the heavy Figure-10 instances.

Every kernel must produce a byte-identical suffix table (masks, works,
counts, prefix indices); the script exits nonzero on any divergence.
The vector kernel's panel-geomean speedup is gated by ``FLOOR`` (3x);
a miss on a noisy host is reported as a warning in ``floor_met`` so
timing jitter cannot mask a real output divergence.  Results land in
``BENCH_perf_core.json["dpa1d"]`` next to the other perf sections.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time

from _common import merge_bench_sections

#: Minimum acceptable panel-geomean speedup of vector over python.
FLOOR = 3.0

#: (n, elevation, seed): dense SPGs whose warm() cost is dominated by
#: the enumeration (0.5M-3.5M DP transitions each at CAP_FRACTION).
PANELS = ((40, 8, 2011), (36, 7, 2014), (40, 8, 2013))

#: Solve cap as a fraction of total graph weight — deep enough DFS trees
#: to matter, tight enough that weight pruning stays on the hot path.
CAP_FRACTION = 0.35

IDEAL_BUDGET = 1 << 22

#: A Figure-10 instance (n=50, elevation 12, CCR 10, 4x4 CMP) whose
#: T=1 table build exceeds DPA1D's default transition budget, and the
#: two periods the walk tries on it.
REBUILD = dict(n=50, elevation=12, seed=2012, ccr=10.0)
REBUILD_PERIODS = (1.0, 0.1)
TRANSITION_BUDGET = 1_000_000


def _panel(n: int, elevation: int, seed: int):
    import numpy as np

    from repro.spg.random_gen import random_spg_with_elevation

    spg = random_spg_with_elevation(n, elevation, np.random.default_rng(seed))
    return spg, sum(spg.weights) * CAP_FRACTION


def _table_fingerprint(lat, cap: float):
    M, W, counts, offsets, pidx, total = lat.suffix_table(cap)
    return (
        M.tobytes(), W.tobytes(), counts.tobytes(), offsets.tobytes(),
        pidx.tobytes(), total,
    )


def _time_warm(spg, cap: float, kernel: str, repeats: int):
    """Best-of-``repeats`` fresh-lattice warm time + table fingerprint."""
    from repro.core.partition import IdealLattice

    samples = []
    fp = None
    stats = None
    for _ in range(repeats):
        gc.collect()
        lat = IdealLattice(spg, budget=IDEAL_BUDGET, kernel=kernel)
        t0 = time.perf_counter()
        stats = lat.warm(cap)
        samples.append(time.perf_counter() - t0)
        fp = _table_fingerprint(lat, cap)
        del lat
    gc.collect()
    return min(samples), samples, fp, stats


def bench_kernels(repeats: int) -> dict:
    out: dict = {"panels": {}, "floor": FLOOR}
    speedups = []
    equal = True
    for n, elevation, seed in PANELS:
        spg, cap = _panel(n, elevation, seed)
        tv, sv, fv, stats = _time_warm(spg, cap, "vector", repeats)
        tp, sp, fp, _ = _time_warm(spg, cap, "python", repeats)
        eq = fv == fp
        equal = equal and eq
        speedup = tp / tv
        speedups.append(speedup)
        out["panels"][f"n{n}_e{elevation}_s{seed}"] = {
            "ideals": stats["ideals"],
            "transitions": stats["transitions"],
            "python_seconds": tp,
            "python_samples": sp,
            "vector_seconds": tv,
            "vector_samples": sv,
            "speedup": speedup,
            "outputs_equal": eq,
        }
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    out["speedup_geomean"] = geomean
    out["floor_met"] = geomean >= FLOOR
    out["outputs_equal"] = equal
    return out


def bench_reuse(repeats: int) -> dict:
    """Cross-period reuse: the ``choose_period`` walk on one lattice.

    Six caps, loosest first (the period search's own order), on a single
    lattice — every cap after the first is a filtered view of the
    loosest-cap table — against a fresh lattice per cap, which is what
    every probe paid before the keep-loosest caches.  Both sides run the
    vector kernel, so the ratio isolates the reuse itself.
    """
    from repro.core.partition import IdealLattice

    n, elevation, seed = PANELS[0]
    spg, cap = _panel(n, elevation, seed)
    total_w = sum(spg.weights)
    caps = [total_w * f for f in (0.45, 0.4, 0.35, 0.3, 0.25, 0.2)]

    cold_samples, reused_samples = [], []
    equal = True
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        cold_fps = []
        for c in caps:
            lat = IdealLattice(spg, budget=IDEAL_BUDGET, kernel="vector")
            lat.warm(c)
            cold_fps.append(_table_fingerprint(lat, c))
            del lat
        cold_samples.append(time.perf_counter() - t0)
        gc.collect()
        t0 = time.perf_counter()
        lat = IdealLattice(spg, budget=IDEAL_BUDGET, kernel="vector")
        reused_fps = []
        for c in caps:
            lat.warm(c)
            reused_fps.append(_table_fingerprint(lat, c))
        reused_samples.append(time.perf_counter() - t0)
        del lat
        equal = equal and cold_fps == reused_fps
    cold = min(cold_samples)
    reused = min(reused_samples)
    return {
        "caps": len(caps),
        "cold_seconds": cold,
        "cold_samples": cold_samples,
        "reused_seconds": reused,
        "reused_samples": reused_samples,
        "reuse_speedup": cold / reused,
        "outputs_equal": equal,
    }


def bench_rebuild(repeats: int) -> dict:
    """The Figure-10 call mix: a budget-tripped build, then a tighter one.

    Times the T=0.1 table build on the lattice whose T=1 build ran out of
    transitions against the same build on a fresh lattice, under the
    default kernel, and checks the two tables are byte-identical.
    """
    import numpy as np

    from repro.core.errors import BudgetExceeded
    from repro.core.partition import IdealLattice
    from repro.platform.cmp import CMPGrid
    from repro.spg.random_gen import random_spg_with_elevation

    spg = random_spg_with_elevation(
        REBUILD["n"], REBUILD["elevation"],
        np.random.default_rng(REBUILD["seed"]), ccr=REBUILD["ccr"],
    )
    s_max = CMPGrid(4, 4).model.s_max
    loose, tight = (T * s_max for T in REBUILD_PERIODS)

    def lattice():
        lat = IdealLattice(spg, budget=120_000)
        lat.cut_table()  # the ideals and cuts are not what is timed
        return lat

    tripped_samples, rebuild_samples, fresh_samples = [], [], []
    equal = True
    for _ in range(repeats):
        gc.collect()
        lat = lattice()
        t0 = time.perf_counter()
        try:
            lat.suffix_table(loose, TRANSITION_BUDGET)
            tripped = False
        except BudgetExceeded:
            tripped = True
        t1 = time.perf_counter()
        kept = len(lat._sfx)
        t2 = time.perf_counter()
        got = _table_fingerprint(lat, tight)
        t3 = time.perf_counter()
        del lat
        gc.collect()
        fresh = lattice()
        t4 = time.perf_counter()
        want = _table_fingerprint(fresh, tight)
        t5 = time.perf_counter()
        del fresh
        tripped_samples.append(t1 - t0)
        rebuild_samples.append(t3 - t2)
        fresh_samples.append(t5 - t4)
        equal = equal and tripped and got == want
    return {
        "instance": (
            f"n{REBUILD['n']}_e{REBUILD['elevation']}_s{REBUILD['seed']}"
            f"_ccr{REBUILD['ccr']:g}"
        ),
        "periods": list(REBUILD_PERIODS),
        "transitions": want[-1],
        "ideals_after_trip": kept,
        "tripped_seconds": min(tripped_samples),
        "rebuild_seconds": min(rebuild_samples),
        "rebuild_samples": rebuild_samples,
        "fresh_seconds": min(fresh_samples),
        "fresh_samples": fresh_samples,
        "rebuild_over_fresh": min(rebuild_samples) / min(fresh_samples),
        "outputs_equal": equal,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="repetitions per measurement; best-of is reported "
             "(default 3 — raise on noisy shared hosts)",
    )
    args = parser.parse_args(argv)

    kernels = bench_kernels(args.repeats)
    reuse = bench_reuse(args.repeats)
    rebuild = bench_rebuild(args.repeats)
    section = {
        "workload": (
            f"IdealLattice.warm (full enumeration + DP table) on "
            f"{len(PANELS)} dense panels, cap {CAP_FRACTION} x total "
            f"weight, best of {args.repeats}"
        ),
        **kernels,
        "cross_period_reuse": reuse,
        "fig10_rebuild": rebuild,
        "outputs_equal": (
            kernels["outputs_equal"] and reuse["outputs_equal"]
            and rebuild["outputs_equal"]
        ),
    }
    if not section["floor_met"]:
        print(
            f"WARNING: vector-kernel geomean speedup "
            f"{section['speedup_geomean']:.2f}x is below the {FLOOR}x "
            "floor (noisy host? outputs still verified)",
            file=sys.stderr,
        )
    out_path = merge_bench_sections({"dpa1d": section})
    print(json.dumps({"dpa1d": section}, indent=1, sort_keys=True))
    print(f"\nwritten to {out_path}")
    if not section["outputs_equal"]:
        print("ERROR: a suffix table diverged (kernels, reuse or "
              "rebuild)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

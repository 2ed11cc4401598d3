#!/usr/bin/env python3
"""The repository benchmark: paper panels and a store sweep.

    python3 perfbench/run.py --workload fig10-n50-4x4 --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json``):

* ``fig10-n50-4x4`` and ``fig8-streamit-4x4``: the fixed paper panels of
  Figures 10 and 8 at panel seed 2011, generated in this process, run one
  ``choose_period`` instance at a time through the experiment engine's
  task functions; every pass over the panel starts with freshly
  generated graphs and a cold lattice cache, as every engine run does.
  ``--seed`` does not change them (see README.md for why).
* ``sweep-store``: ``run_scenario_sweep`` cold then resumed into a
  bounded SQLite store (see ``sweep.py``), at the fixed sweep seed
  ``sweep.SEED``; ``--seed`` does not change it either.

A run repeats whole passes until ``--seconds`` have elapsed, checks
every instance's output (against ``reference/`` where the inputs were
recorded, else by re-validating every mapping) and prints a human
summary followed by one JSON line: the end-to-end metrics with
``--trace 0``, the per-layer ledger of ``ledger.py`` with ``--trace 1``.
``--src`` runs the same workload against another tree's ``src/``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
REFERENCE = HERE / "reference"
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
import panels  # noqa: E402
import sweep  # noqa: E402
from perfstats import hd_median, median, ratio, tail  # noqa: E402

WORKLOADS = (panels.FIG10, panels.FIG8, sweep.SWEEP)
SETUP_SAMPLES = 3  # this process plus two fresh ones
RAISED, WRONG = "raised", "wrong output"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=panels.DEFAULT_PANEL_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the src/ directory of the tree to measure")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_tree(src: Path) -> None:
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {src}")
    sys.path.insert(0, str(src.resolve()))
    import repro  # noqa: F401


def tree_version() -> str:
    try:
        from repro.util.version import repro_version
    except ImportError:
        return "?"
    return repro_version()


def load_reference(name: str) -> dict | None:
    path = REFERENCE / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class Pass:
    walls: list[tuple[str, float]]  # (instance label, seconds)
    failures: list[tuple[str, str, str]]  # (label, RAISED | WRONG, reason)
    store_bytes: int = 0


class PanelWorkload:
    """A fixed paper panel, one instance at a time.

    ``panel`` narrows the panel (``replicates``, ``elevations``,
    ``workflows`` of :func:`panels.generate`); a narrowed panel has no
    recorded reference and is re-validated instead.
    """

    jobs = 1

    def __init__(self, name: str, **panel) -> None:
        self.name, self.panel = name, panel
        self.grid = panels.make_grid()
        self.instances = self.generate()
        self.execute = panels.executor(self.grid)
        self.warm_up()
        ref = None if panel else load_reference(name)
        if ref is not None and ref["seed"] != panels.DEFAULT_PANEL_SEED:
            ref = None  # recorded for another panel
        self.reference = None if ref is None else ref["instances"]
        self.check = ("reference" if self.reference is not None
                      else "revalidated (no recorded reference)")

    def warm_up(self) -> None:
        """Run one cheap instance of the panel (``panels.WARMUP``) once,
        off the clock, so lazy imports and first-call costs fall in
        set-up rather than on the first timed instance.  The timed
        passes run and check it again."""
        inst = next((i for i in self.instances
                     if i.label == panels.WARMUP[self.name]), None)
        if inst is None:
            return
        try:
            self.execute(inst)
        except Exception:
            pass  # the timed pass reports it

    def generate(self) -> list:
        return panels.run_order(panels.generate(
            self.name, panels.DEFAULT_PANEL_SEED, **self.panel))

    def prepare(self, tracer=None) -> None:
        """Fresh graphs for the next pass.  A tree may cache derived data
        (the ideal lattice among it) on an SPG for the graph's lifetime,
        and an engine run uses each graph once, so a pass never reuses
        the graphs of an earlier pass.  A traced run generates them under
        the tracer, so the generator shows in ``spg.generate``."""
        if tracer is None:
            self.instances = self.generate()
        else:
            with tracer.span("bench.setup"):
                self.instances = self.generate()

    def run_pass(self, seed: int, k: int, jobs: int, tracer=None) -> Pass:
        panels.reset_lattice_cache()
        walls, failures = [], []
        for inst in self.instances:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    choice = self.execute(inst)
                else:
                    with tracer.span("bench.instance", label=inst.label):
                        choice = self.execute(inst)
            except Exception as exc:
                walls.append((inst.label, time.perf_counter() - t0))
                failures.append((inst.title, RAISED,
                                 f"{type(exc).__name__}: {exc}"))
                continue
            walls.append((inst.label, time.perf_counter() - t0))
            try:
                problem = self.verify(inst.label, choice)
            except Exception as exc:
                problem = f"re-validation raised {type(exc).__name__}: {exc}"
            if problem is not None:
                failures.append((inst.title, WRONG, problem))
        return Pass(walls, failures)

    def verify(self, label: str, choice) -> str | None:
        want = None if self.reference is None else self.reference.get(label)
        if want is None:
            return revalidate(choice)
        got = panels.outcome(choice.period, choice.results)
        if got == want:
            return None
        if got["period"] != want["period"]:
            return f"period {got['period']} != reference {want['period']}"
        for col, val in got["results"].items():
            if want["results"].get(col) != val:
                return (f"{col}: {val} != reference "
                        f"{want['results'].get(col)}")
        return "columns differ from the reference"


def revalidate(choice) -> str | None:
    """The weaker check: every mapping re-validates to its energy."""
    from repro.core.evaluate import validate

    if not any(r.ok for r in choice.results.values()):
        return "no column succeeds at the chosen period"
    for col, r in choice.results.items():
        if r.ok:
            energy = validate(r.mapping, choice.period).total
            if energy != r.energy.total:
                return f"{col}: energy {r.energy.total!r} != {energy!r}"
    return None


class SweepWorkload:
    """``run_scenario_sweep`` cold then resumed, through the pool."""

    def __init__(self) -> None:
        if not sweep.supported():
            raise SystemExit(2)
        from repro.experiments.parallel import resolve_jobs

        self.jobs = resolve_jobs(sweep.default_jobs())
        tmp, store = sweep.open_scratch_store(RESULTS / "tmp")
        store.close()
        shutil.rmtree(tmp, ignore_errors=True)
        ref = load_reference(sweep.SWEEP)
        if ref is not None and ref["seed"] != sweep.SEED:
            ref = None  # recorded for another draw
        self.reference = None if ref is None else ref["report"]
        self.check = ("reference + cold/warm identity"
                      if self.reference is not None
                      else "cold/warm identity (no recorded reference)")

    def prepare(self, tracer=None) -> None:
        """Every sweep pass builds its own graphs and store."""

    def run_pass(self, seed: int, k: int, jobs: int, tracer=None) -> Pass:
        if tracer is None:
            res = sweep.run_pass(sweep.SEED, jobs, RESULTS / "tmp")
        else:
            with tracer.span("bench.sweep", pass_index=k):
                res = sweep.run_pass(sweep.SEED, jobs, RESULTS / "tmp")
        return Pass(res["times"],
                    sweep.check_pass(res, self.reference, RAISED, WRONG),
                    res["bytes"])


def build(args):
    if args.workload == sweep.SWEEP:
        return SweepWorkload()
    return PanelWorkload(args.workload)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
@dataclass
class Phase:
    walls: list[tuple[str, float]] = field(default_factory=list)
    failures: list[tuple[str, str, str]] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    passes: int = 0
    store_bytes: int = 0

    @property
    def attempted(self) -> int:
        return len(self.walls)

    @property
    def ok(self) -> int:
        return self.attempted - self.failed

    @property
    def failed(self) -> int:
        return len({lab for lab, _, _ in self.failures})

    def instance_times(self) -> list[float]:
        """Per instance, the median of its wall times over the passes
        (a panel instance runs once per pass; a sweep cell slot runs once
        per pass, on that pass's draw), so the sample count does not
        depend on the pass count."""
        by_label: dict[str, list[float]] = {}
        for label, wall in self.walls:
            by_label.setdefault(label, []).append(wall)
        return [median(v) for v in by_label.values()]

    @property
    def rate(self) -> float:
        return ratio(self.ok, self.wall_s)


def measure(wl, seed: int, seconds: float, jobs: int,
            passes: int | None = None, tracer=None, tag: str = "") -> Phase:
    """Whole passes until ``seconds`` were timed (or exactly ``passes``),
    each prepared off the clock; failed instances are labelled
    ``<tag>pass<k>:<instance>``."""
    ph = Phase()
    while True:
        wl.prepare(tracer)
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        p = wl.run_pass(seed, ph.passes, jobs, tracer)
        ph.wall_s += time.perf_counter() - t0
        ph.cpu_s += cpu_seconds() - cpu0
        ph.passes += 1
        ph.walls += p.walls
        ph.failures += [(f"{tag}pass{ph.passes - 1}:{lab}", kind, why)
                        for lab, kind, why in p.failures]
        ph.store_bytes = p.store_bytes
        if passes is not None and ph.passes >= passes:
            break
        if passes is None and ph.wall_s >= seconds:
            break
    return ph


def setup_samples(args, own: float) -> list[float]:
    """This process's set-up time plus that of fresh processes."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--src", str(args.src), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def report_failures(ph: Phase) -> None:
    for label, kind, why in ph.failures:
        print(f"FAILED {label} ({kind}): {why}")


def end_to_end(args, wl, ph: Phase, setup_s: list[float],
               rss: float) -> dict:
    times = ph.instance_times()
    value, pct, n = tail(times)
    print(f"workload {args.workload}: {ph.attempted} instances in "
          f"{ph.passes} pass(es), {ph.wall_s:.2f} s timed, check: {wl.check}")
    print(f"instance_tail_s is p{pct} of {n} instances")
    print(f"failed_frac {ph.failed}/{ph.attempted}")
    return {
        "instances_per_s": (ph.rate, "1/s"),
        "instance_p50_s": (hd_median(times), "s"),
        "instance_tail_s": (value, "s"),
        "cpu_per_instance_s": (ratio(ph.cpu_s, ph.attempted), "s"),
        "ok_frac": (ratio(ph.ok, ph.attempted), "frac"),
        "setup_s": (median(setup_s), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


class _PoolClock:
    """Wall time spent inside the sweep's ``run_tasks`` calls."""

    def __init__(self) -> None:
        self.wall_s = 0.0

    def __enter__(self):
        from repro.experiments import scenarios

        self.mod, self.fn = scenarios, scenarios.run_tasks

        def timed(*a, **kw):
            t0 = time.perf_counter()
            try:
                return self.fn(*a, **kw)
            finally:
                self.wall_s += time.perf_counter() - t0

        scenarios.run_tasks = timed
        return self

    def __exit__(self, *exc) -> bool:
        self.mod.run_tasks = self.fn
        return False


def traced(args, wl) -> tuple[dict, Phase]:
    """The ledger: untraced passes, then as many passes traced.

    A pooled workload first runs untraced at its own ``jobs`` (for
    ``pool.busy_frac``), then untraced and traced with ``jobs=1``.
    """
    half = args.seconds / 2
    phases, busy = [], 0.0
    if wl.jobs > 1:
        with _PoolClock() as clock:
            kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
            phases.append(measure(wl, args.seed, half / 2, wl.jobs,
                                  tag="pooled-"))
            kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        kid_cpu = (kids1.ru_utime + kids1.ru_stime
                   - kids0.ru_utime - kids0.ru_stime)
        busy = ratio(kid_cpu, wl.jobs * clock.wall_s)
        half /= 2
    base = measure(wl, args.seed, half, 1, tag="untraced-")
    tracer = ledger.Tracer()
    restore, missing = ledger.install(tracer)
    try:
        ph = measure(wl, args.seed, 0, 1, passes=base.passes,
                     tracer=tracer, tag="traced-")
    finally:
        restore()
    phases += [base, ph]
    tracer.harvest_cache()
    for name in missing:
        print(f"not wrapped (absent in this tree): {name}")
    spans = tracer.spans()
    out = RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(out, {"workload": args.workload, "seed": args.seed,
                             "repro_version": tree_version()})
    print(f"trace: {len(spans)} spans -> {out}")
    merged = Phase([w for p in phases for w in p.walls],
                   [f for p in phases for f in p.failures])
    metrics = ledger.layer_metrics(spans, tracer.cache_hits,
                                   tracer.cache_misses)
    metrics.update({
        "store.bytes": ph.store_bytes,
        "pool.busy_frac": busy,
        "trace_overhead_frac": 1.0 - ratio(ph.rate, base.rate),
        "failed_frac": ratio(merged.failed, merged.attempted),
    })
    return metrics, merged


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", ".share")):
        return "frac"
    if name == "store.bytes":
        return "B"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    import_tree(args.src)
    wl = build(args)
    setup_own = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_own}))
        return 0
    if args.trace:
        layer, ph = traced(args, wl)
        report_failures(ph)
        metrics = {name: {"value": layer[name], "unit": layer_unit(name)}
                   for name in ledger.layer_names()}
        for name in ("kernel.enumerate", "lattice.ideals"):
            print(f"{name}.self_s is {layer[name + '.share']:.1%} of "
                  f"instance time")
    else:
        ph = measure(wl, args.seed, args.seconds, wl.jobs)
        rss = peak_rss_mb()
        report_failures(ph)
        e2e = end_to_end(args, wl, ph, setup_samples(args, setup_own), rss)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        for k, m in metrics.items():
            print(f"  {k:<20} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(kind != WRONG for _, kind, _ in ph.failures),
        "attempted": ph.attempted,
        "failed": ph.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

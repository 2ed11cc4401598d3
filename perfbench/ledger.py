"""The outside-in layer ledger of a traced run.

:func:`install` wraps the public entry points of each layer on the
attribute its caller actually resolves (``repro.experiments.period.run``,
not ``repro.heuristics.base.run``, because ``period`` imports it by
name), so the program itself is never edited.  Every wrapped call
becomes a span — kind, start, duration, parent, enclosing instance —
kept in memory and written at exit as JSON Lines in the schema
``repro.obs.trace.load_trace`` reads, so ``repro trace diff`` can compare
two trees' traced runs.  :func:`layer_metrics` folds the spans into the
per-layer counters and self times the benchmark prints.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path
from typing import Callable

from perfstats import ratio, self_times

#: Solver columns of the three workloads (panels: PAPER_ORDER; the sweep
#: adds refined specs).  Metric names replace ``+`` with ``_``.
COLUMNS = ("Random", "Greedy", "DPA2D", "DPA1D", "DPA2D1D",
           "Random+refine", "dpa2d1d+refine")

#: Span kinds that delimit one benchmark instance.
INSTANCE_KINDS = ("bench.instance", "sweep.cell")
KERNEL_KINDS = ("kernel.enumerate", "kernel.bulk")


class Tracer:
    """Minimal span recorder: an explicit stack gives parents."""

    def __init__(self) -> None:
        self.records: list[tuple] = []  # close order
        self._stack: list[tuple[int, int | None]] = []  # (id, instance)
        self._next = 1
        self.cache_hits = 0
        self.cache_misses = 0

    def open(self, kind: str, attrs: dict | None = None) -> tuple:
        sid = self._next
        self._next += 1
        parent, inst = self._stack[-1] if self._stack else (None, None)
        if kind in INSTANCE_KINDS:
            inst = sid
        self._stack.append((sid, inst))
        return (sid, parent, inst, kind, attrs, time.time(),
                time.perf_counter())

    def close(self, token: tuple, status: str, note: dict | None) -> None:
        end = time.perf_counter()
        sid, parent, inst, kind, attrs, ts, start = token
        self._stack.pop()
        if note:
            attrs = {**(attrs or {}), **note}
        self.records.append(
            (sid, parent, inst, kind, ts, end - start, status, attrs))

    def span(self, kind: str, **attrs):
        return _Span(self, kind, attrs)

    def spans(self) -> list[dict]:
        """Spans in the JSONL payload layout, close order."""
        return [
            {"span": sid, "parent": parent, "kind": kind, "ts": ts,
             "duration_s": dur, "status": status,
             "attrs": {**(attrs or {}), "instance": inst}}
            for sid, parent, inst, kind, ts, dur, status, attrs
            in self.records
        ]

    def write_jsonl(self, path: Path, meta: dict) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            head = {"trace_schema": 1, "spans": len(self.records), **meta}
            fh.write(json.dumps(head, sort_keys=True) + "\n")
            for payload in self.spans():
                fh.write(json.dumps(payload, sort_keys=True) + "\n")
        return path

    def harvest_cache(self) -> None:
        """Fold the lattice cache's hit counters in before it is reset."""
        try:
            from repro.core.kernels import worker_lattice_cache
        except ImportError:
            return
        st = worker_lattice_cache().stats()
        self.cache_hits += st["hits"]
        self.cache_misses += st["misses"]


class _Span:
    def __init__(self, tracer: Tracer, kind: str, attrs: dict) -> None:
        self.tracer, self.kind, self.attrs = tracer, kind, attrs

    def __enter__(self):
        self.token = self.tracer.open(self.kind, self.attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.tracer.close(self.token, "error" if exc_type else "ok", None)
        return False


def _wrapped(tracer: Tracer, fn, kind, before=None, note=None):
    """``fn`` under a span.  ``kind`` may be a callable of the call's
    arguments; ``before(args)`` runs first and its value reaches
    ``note(args, out, state) -> dict`` (span attributes)."""

    def wrapper(*args, **kwargs):
        state = before(args) if before is not None else None
        name = kind(args) if callable(kind) else kind
        token = tracer.open(name)
        status, extra = "error", None
        try:
            out = fn(*args, **kwargs)
            status = "ok"
            if note is not None:
                extra = note(args, out, state)
            return out
        finally:
            tracer.close(token, status, extra)

    wrapper.__wrapped__ = fn
    return wrapper


def _clusters(args, out, _state) -> dict:
    first = out[0]
    return {"clusters": int(first.size if hasattr(first, "size")
                            else len(first))}


def _targets() -> list[tuple]:
    """``(module, dotted attribute, kind, before, note)`` per wrapper."""

    def unseen(args):
        return getattr(args[0], "_ideals", None) is None

    def ideals_note(args, out, fresh):
        return {"count": len(out) if fresh else 0}

    def solver_kind(args):
        return f"solver.{args[0]}"

    def solver_note(args, out, _state):
        return {"failed": int(not out.ok)}

    def evict_note(args, out, _state):
        return {"evicted": int(out.get("evicted", 0))}

    def get_note(args, out, _state):
        return {"hit": int(out is not None)}

    def tasks_note(args, out, _state):
        return {"tasks": len(out)}

    kernel = []
    try:
        kmod = importlib.import_module("repro.core.kernels")
    except ImportError:
        kmod = None
    if kmod is not None:
        for cls_name, cls in vars(kmod).items():
            if not (isinstance(cls, type)
                    and issubclass(cls, kmod.EnumerationKernel)):
                continue
            for meth, kind in (("enumerate_arrays", "kernel.enumerate"),
                               ("enumerate_lists", "kernel.enumerate"),
                               ("enumerate_bulk", "kernel.bulk")):
                if meth in vars(cls):
                    kernel.append(("repro.core.kernels",
                                   f"{cls_name}.{meth}", kind, None,
                                   _clusters))
    return [
        ("repro.spg.random_gen", "random_spg_with_elevation",
         "spg.generate", None, None),
        ("repro.experiments.scenarios", "random_spg", "spg.generate",
         None, None),
        ("repro.spg.streamit", "streamit_workflow", "spg.generate",
         None, None),
        ("repro.experiments.parallel", "choose_period", "period.choose",
         None, None),
        ("repro.experiments.period", "run_all", "period.probe", None, None),
        ("repro.experiments.period", "run", solver_kind, None, solver_note),
        ("repro.heuristics.dpa1d", "solve_uniline", "dpa1d.solve",
         None, None),
        # DPA2D and DPA2D1D reach the solver class directly; the public
        # ``solve_dpa2d`` is not on the period path.
        ("repro.heuristics.dpa2d", "_Dpa2dSolver.solve", "dpa2d.solve",
         None, None),
        ("repro.core.partition", "IdealLattice.ideals", "lattice.ideals",
         unseen, ideals_note),
        ("repro.core.partition", "IdealLattice.suffix_table",
         "lattice.suffix_table", None, None),
        ("repro.core.partition", "IdealLattice.suffix_arrays",
         "lattice.suffix_arrays", None, None),
        ("repro.core.partition", "IdealLattice.warm", "lattice.warm",
         None, None),
        *kernel,
        ("repro.solvers.adapters", "validate", "evaluate.validate",
         None, None),
        ("repro.core.problem", "validate", "evaluate.validate", None, None),
        ("repro.core.evaluate", "energy", "evaluate.energy", None, None),
        ("repro.heuristics.greedy", "energy", "evaluate.energy",
         None, None),
        ("repro.heuristics.random_heuristic", "energy", "evaluate.energy",
         None, None),
        ("repro.heuristics.refine", "energy", "evaluate.energy",
         None, None),
        ("repro.heuristics.refine", "refine_mapping", "refine", None, None),
        ("repro.store.backend", "ResultStore.get", "store.get",
         None, get_note),
        ("repro.store.backend", "ResultStore.put", "store.put", None, None),
        ("repro.store.backend", "ResultStore.evict", "store.evict",
         None, evict_note),
        ("repro.store.fingerprint", "cell_fingerprint", "store.fingerprint",
         None, None),
        ("repro.experiments.scenarios", "sweep_cell_task", "sweep.cell",
         None, None),
        ("repro.experiments.scenarios", "run_tasks", "pool.run_tasks",
         None, tasks_note),
    ]


def install(tracer: Tracer) -> tuple[Callable[[], None], list[str]]:
    """Wrap every layer entry point found; ``(restore, missing)``."""
    undo: list[tuple[object, str, object]] = []
    missing: list[str] = []
    for mod_name, dotted, kind, before, note in _targets():
        try:
            owner = importlib.import_module(mod_name)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{mod_name}.{dotted}")
            continue
        undo.append((owner, attr, fn))
        setattr(owner, attr, _wrapped(tracer, fn, kind, before, note))
    try:
        par = importlib.import_module("repro.experiments.parallel")
        reset = par.reset_worker_cache
    except (ImportError, AttributeError):
        pass
    else:
        def harvest_then_reset():
            tracer.harvest_cache()
            return reset()

        undo.append((par, "reset_worker_cache", reset))
        par.reset_worker_cache = harvest_then_reset

    def restore() -> None:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

    return restore, missing


def _column_metric(col: str) -> str:
    return col.replace("+", "_")


#: Ledger entries ``run.py`` adds from outside the spans.
RUN_METRICS = ("store.bytes", "pool.busy_frac", "trace_overhead_frac",
               "failed_frac")


def layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in order."""
    return [*layer_metrics([]), *RUN_METRICS]


def layer_metrics(spans: list[dict], cache_hits: int = 0,
                  cache_misses: int = 0) -> dict[str, float]:
    """Counters and self times per layer from a span list.

    Calls of a kind count every span of it, except that kernel spans
    nested in another kernel span (a base-class conversion calling the
    other entry point) neither count as calls nor add clusters; self
    times always partition the time, so nesting never double counts.
    """
    selfs = self_times(spans)
    kind_of = {s["span"]: s["kind"] for s in spans}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    attr_sum: dict[tuple[str, str], float] = {}
    for s in spans:
        kind = s["kind"]
        self_s[kind] = self_s.get(kind, 0.0) + selfs[s["span"]]
        if kind in KERNEL_KINDS and kind_of.get(s["parent"]) in KERNEL_KINDS:
            continue
        calls[kind] = calls.get(kind, 0) + 1
        total_s[kind] = total_s.get(kind, 0.0) + s["duration_s"]
        for key, val in s["attrs"].items():
            if key != "instance" and isinstance(val, (int, float)):
                attr_sum[kind, key] = attr_sum.get((kind, key), 0) + val

    def c(kind):
        return calls.get(kind, 0)

    def t(kind):
        return self_s.get(kind, 0.0)

    def a(kind, key):
        return attr_sum.get((kind, key), 0)

    inst_wall = sum(total_s.get(k, 0.0) for k in INSTANCE_KINDS)
    out = {
        "spg.generate.calls": c("spg.generate"),
        "spg.generate.self_s": t("spg.generate"),
        "period.instances": c("period.choose"),
        "period.probes": c("period.probe"),
        "period.probes_per_instance": ratio(c("period.probe"),
                                            c("period.choose")),
        "period.self_s": t("period.choose") + t("period.probe"),
    }
    for col in COLUMNS:
        m = _column_metric(col)
        out[f"solver.{m}.calls"] = c(f"solver.{col}")
        out[f"solver.{m}.self_s"] = t(f"solver.{col}")
        out[f"solver.{m}.failed"] = a(f"solver.{col}", "failed")
    kernel_clusters = a("kernel.enumerate", "clusters") + a(
        "kernel.bulk", "clusters")
    kernel_time = total_s.get("kernel.enumerate", 0.0) + total_s.get(
        "kernel.bulk", 0.0)
    gets = c("store.get")
    out.update({
        "dpa1d.solve.calls": c("dpa1d.solve"),
        "dpa1d.solve.self_s": t("dpa1d.solve"),
        "dpa2d.solve.calls": c("dpa2d.solve"),
        "dpa2d.solve.self_s": t("dpa2d.solve"),
        "lattice.ideals.calls": c("lattice.ideals"),
        "lattice.ideals.self_s": t("lattice.ideals"),
        "lattice.ideals.count": a("lattice.ideals", "count"),
        "lattice.ideals.share": ratio(t("lattice.ideals"), inst_wall),
        "lattice.suffix_table.calls": c("lattice.suffix_table"),
        "lattice.suffix_table.self_s": t("lattice.suffix_table"),
        "lattice.suffix_arrays.calls": c("lattice.suffix_arrays"),
        "lattice.suffix_arrays.self_s": t("lattice.suffix_arrays"),
        "lattice.warm.calls": c("lattice.warm"),
        "lattice.warm.self_s": t("lattice.warm"),
        "lattice.suffix_reuse_frac": (
            1.0 - ratio(c("kernel.enumerate"), c("lattice.suffix_arrays"))
            if c("lattice.suffix_arrays") else 0.0),
        "kernel.enumerate.calls": c("kernel.enumerate"),
        "kernel.enumerate.self_s": t("kernel.enumerate"),
        "kernel.enumerate.share": ratio(t("kernel.enumerate"), inst_wall),
        "kernel.clusters": kernel_clusters,
        "kernel.clusters_per_s": ratio(kernel_clusters, kernel_time),
        "kernel.bulk.calls": c("kernel.bulk"),
        "kernel.bulk.self_s": t("kernel.bulk"),
        "kernel.lattice_cache.hit_frac": ratio(
            cache_hits, cache_hits + cache_misses),
        "evaluate.validate.calls": c("evaluate.validate"),
        "evaluate.validate.self_s": t("evaluate.validate"),
        "evaluate.energy.calls": c("evaluate.energy"),
        "evaluate.energy.self_s": t("evaluate.energy"),
        "refine.calls": c("refine"),
        "refine.self_s": t("refine"),
        "store.get.calls": gets,
        "store.get.self_s": t("store.get"),
        "store.put.calls": c("store.put"),
        "store.put.self_s": t("store.put"),
        "store.evict.calls": c("store.evict"),
        "store.evict.self_s": t("store.evict"),
        "store.fingerprint.calls": c("store.fingerprint"),
        "store.fingerprint.self_s": t("store.fingerprint"),
        "store.hit_frac": ratio(a("store.get", "hit"), gets),
        "store.evictions": a("store.evict", "evicted"),
        "pool.tasks": a("pool.run_tasks", "tasks"),
        "pool.wall_s": total_s.get("pool.run_tasks", 0.0),
        "instance.wall_s": inst_wall,
    })
    return out

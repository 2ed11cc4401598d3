"""DPA2D (Section 5.3): double nested dynamic program on the label grid.

The SPG is first laid on the ``xmax x ymax`` grid given by its labels.  An
*outer* DP cuts the levels (``x`` values) into consecutive groups mapped to
columns of the CMP; an *inner* DP cuts each group's rows (``y`` values) into
consecutive ranges mapped to the cores of one column.

Communications follow XY routing: an edge leaving stage ``i`` exits its
column horizontally on ``i``'s physical row, passes through intermediate
columns on that same row, and moves vertically only inside the destination
column.  The outer DP threads a *distribution* ``D`` of outgoing
communications — triples ``(row, destination stage, bytes)`` — across column
boundaries; per the paper, only the best ``D`` per outer state is kept,
which is what makes DPA2D a heuristic.

Per-cluster DAG-partition convexity is enforced inside the inner DP
(``Ecal = +inf`` for non-convex clusters, as in the paper); the assembled
mapping is re-validated at the end and the heuristic fails on the rare
quotient cycle the local checks cannot see.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from repro.core.errors import HeuristicFailure, MappingError
from repro.core.mapping import Mapping
from repro.core.problem import ProblemInstance
from repro.heuristics.base import register
from repro.spg.analysis import ancestor_masks, descendant_masks

__all__ = ["dpa2d_mapping", "dpa2d1d_mapping", "solve_dpa2d"]

INF = float("inf")

_MISS = object()  # column-memo sentinel (None is a valid cached result)

#: A distribution of outgoing communications: ((row, dest_stage, bytes), ...)
Distribution = tuple[tuple[int, int, float], ...]


class ColumnPlan(NamedTuple):
    """One column's assignment: ``cores[u] = (stages tuple, speed)`` or None."""

    cores: tuple  # length p; entries: (tuple[int, ...], float) | None


class _ColumnResult(NamedTuple):
    energy: float
    dout: Distribution
    plan: ColumnPlan


class _Block:
    """Static data of a level block ``m1 <= x <= m2`` (cached per block).

    Per-row aggregates (work prefix sums, stage-mask prefixes, reachability
    unions) make :meth:`cluster` O(rows) instead of O(stages): the stage
    set of a row range is a prefix-mask difference and its convexity check
    unions precomputed per-row ancestor/descendant masks.
    """

    def __init__(self, solver: "_Dpa2dSolver", m1: int, m2: int) -> None:
        spg = solver.spg
        labels = spg.labels
        self.m1, self.m2 = m1, m2
        self.stages = sorted(chain.from_iterable(
            solver.level_stages[m1:m2 + 1]
        ))
        ys = [labels[i][1] for i in self.stages]
        self.ymax = max(ys) if ys else 0
        self.rows: dict[int, list[int]] = {}
        for i in self.stages:
            self.rows.setdefault(labels[i][1], []).append(i)
        # Internal edges spanning distinct rows (vertical traffic) and
        # edges leaving the block to later levels, gathered from the
        # solver's per-level index and put back in ``edge_list`` order
        # (traffic sums accumulate in that order).
        v_edges = []
        out_edges = []
        for _pos, i, j, d, yi, xj, yj in sorted(chain.from_iterable(
            solver.level_edges[m1:m2 + 1]
        )):
            if xj > m2:
                out_edges.append((i, j, d))
            elif xj >= m1 and yi != yj:
                v_edges.append((yi, yj, d))
        self.v_edges = v_edges
        self.out_edges = out_edges
        # Row prefix aggregates, index g = rows 1..g (0 empty).
        gmax = self.ymax
        desc, anc, weights = solver.desc, solver.anc, spg.weights
        pmask = [0] * (gmax + 1)
        pwork = [0.0] * (gmax + 1)
        row_desc = [0] * (gmax + 1)
        row_anc = [0] * (gmax + 1)
        for g in range(1, gmax + 1):
            row = self.rows.get(g, ())
            rm = rd = ra = 0
            rw = 0.0
            for i in row:
                rm |= 1 << i
                rw += weights[i]
                rd |= desc[i]
                ra |= anc[i]
            pmask[g] = pmask[g - 1] | rm
            pwork[g] = pwork[g - 1] + rw
            row_desc[g] = rd
            row_anc[g] = ra
        self._pmask = pmask
        self._pwork = pwork
        self._row_desc = row_desc
        self._row_anc = row_anc
        # cluster cache: (g1, g2] -> (energy, speed, work) or None
        self._cluster: dict[tuple[int, int], tuple[float, float] | None] = {}
        self._solver = solver

    def stages_of(self, g1: int, g2: int) -> list[int]:
        """Stages of rows ``g1 < y <= g2`` in row-major order (as the
        original mapping assembly produced them)."""
        return [
            i for y in range(g1 + 1, g2 + 1) for i in self.rows.get(y, [])
        ]

    def cluster(self, g1: int, g2: int) -> tuple[float, float] | None:
        """(energy, speed) of rows ``g1 < y <= g2`` on one core, or None.

        None signals infeasibility: the work misses the period at top speed
        or the cluster is not convex in the full SPG.  An empty row range is
        free (core stays off).
        """
        key = (g1, g2)
        if key in self._cluster:
            return self._cluster[key]
        mask = self._pmask[g2] & ~self._pmask[g1]
        solver = self._solver
        if not mask:
            val: tuple[float, float] | None = (0.0, 0.0)
        else:
            work = self._pwork[g2] - self._pwork[g1]
            s = solver.model.best_feasible(work, solver.T)
            if s is None:
                val = None
            else:
                below = above = 0
                row_desc, row_anc = self._row_desc, self._row_anc
                for g in range(g1 + 1, g2 + 1):
                    below |= row_desc[g]
                    above |= row_anc[g]
                if (below & above) & ~mask:
                    val = None  # an outside stage sits on an inside path
                else:
                    val = (solver.model.comp_energy(work, s, solver.T), s)
        self._cluster[key] = val
        return val


class _Dpa2dSolver:
    """Solves the DPA2D placement on a virtual ``p x q`` grid."""

    def __init__(self, problem: ProblemInstance, p: int, q: int) -> None:
        self.spg = problem.spg
        self.model = problem.grid.model
        self.T = problem.period
        self.p, self.q = p, q
        self.cap_work = self.T * self.model.s_max
        self.cap_bytes = self.model.link_capacity(self.T)
        self.desc = descendant_masks(self.spg)
        self.anc = ancestor_masks(self.spg)
        self.xmax = self.spg.xmax
        self.ymax = self.spg.ymax
        # Stages (ascending) and edges (by source level, tagged with
        # their ``edge_list`` position) indexed by level once, so each
        # level block gathers its own instead of scanning the graph.
        labels = self.spg.labels
        levels = range(self.xmax + 1)
        self.level_stages: list[list[int]] = [[] for _ in levels]
        for i in range(self.spg.n):
            self.level_stages[labels[i][0]].append(i)
        self.level_edges: list[list[tuple]] = [[] for _ in levels]
        for pos, (i, j, d) in enumerate(self.spg.edge_list):
            self.level_edges[labels[i][0]].append(
                (pos, i, j, d, labels[i][1], labels[j][0], labels[j][1])
            )
        # Level weights for feasibility pruning of outer transitions.
        self.level_work = [0.0] * (self.xmax + 1)
        for i in range(self.spg.n):
            self.level_work[self.spg.labels[i][0]] += self.spg.weights[i]
        self._blocks: dict[tuple[int, int], _Block] = {}
        # Inner-DP results are pure functions of (block, incoming
        # distribution); the outer DP re-probes the same block with the
        # same distribution from many predecessor states.
        self._columns: dict[tuple[int, int, Distribution], _ColumnResult | None] = {}

    # ------------------------------------------------------------------
    def block(self, m1: int, m2: int) -> _Block:
        key = (m1, m2)
        blk = self._blocks.get(key)
        if blk is None:
            blk = _Block(self, m1, m2)
            self._blocks[key] = blk
        return blk

    def h_cost(self, d: Distribution) -> float:
        """Cost of crossing one column boundary with distribution ``d``.

        Per-row traffic must fit the horizontal link bandwidth; the energy
        is one hop for every byte.
        """
        per_row: dict[int, float] = {}
        total = 0.0
        for row, _dest, b in d:
            per_row[row] = per_row.get(row, 0.0) + b
            total += b
        if any(v > self.cap_bytes for v in per_row.values()):
            return INF
        return self.model.comm_energy(total)

    # ------------------------------------------------------------------
    def column(self, m1: int, m2: int, din: Distribution) -> _ColumnResult | None:
        """Inner DP result for levels ``m1..m2`` and incoming ``din`` (memoised)."""
        key = (m1, m2, din)
        hit = self._columns.get(key, _MISS)
        if hit is _MISS:
            hit = self._columns[key] = self._column_impl(m1, m2, din)
        return hit

    def _column_impl(
        self, m1: int, m2: int, din: Distribution
    ) -> _ColumnResult | None:
        """Inner DP: map levels ``m1..m2`` onto the ``p`` cores of a column."""
        blk = self.block(m1, m2)
        if not blk.stages:
            return None
        spg, p = self.spg, self.p
        # Split the incoming distribution into deliveries (dest in block,
        # with its destination row) and pass-through entries.
        deliveries: list[tuple[int, int, float]] = []  # (entry_row, y_dest, b)
        passthrough: list[tuple[int, int, float]] = []
        for row, dest, b in din:
            x, y = spg.labels[dest]
            if m1 <= x <= m2:
                deliveries.append((row, y, b))
            else:
                passthrough.append((row, dest, b))

        gmax = blk.ymax

        def boundary_cost(w: int, gcut: int) -> float:
            """Vertical traffic crossing the link between cores w-1 and w.

            ``gcut`` is the label-row cut: rows <= gcut live on cores < w.
            Down-traffic and up-traffic are checked separately against the
            per-direction bandwidth.
            """
            down = up = 0.0
            for a, yd, b in deliveries:
                if a <= w - 1 and yd > gcut:
                    down += b
                elif a >= w and yd <= gcut:
                    up += b
            for ys, yd, dvol in blk.v_edges:
                if ys <= gcut < yd:
                    down += dvol
                elif yd <= gcut < ys:
                    up += dvol
            if down > self.cap_bytes or up > self.cap_bytes:
                return INF
            return self.model.comm_energy(down + up)

        bcost_cache: dict[tuple[int, int], float] = {}

        def bcost(w: int, gcut: int) -> float:
            key = (w, gcut)
            v = bcost_cache.get(key)
            if v is None:
                v = boundary_cost(w, gcut)
                bcost_cache[key] = v
            return v

        # E2[g][u]: rows 1..g on cores 0..u-1.  par[g][u] = previous g.
        E2 = [[INF] * (p + 1) for _ in range(gmax + 1)]
        par = [[-1] * (p + 1) for _ in range(gmax + 1)]
        E2[0][0] = 0.0
        for u in range(1, p + 1):
            for g in range(gmax + 1):
                best, arg = INF, -1
                for g2 in range(g + 1):
                    prev = E2[g2][u - 1]
                    if prev == INF:
                        continue
                    cl = blk.cluster(g2, g)
                    if cl is None:
                        continue
                    vcost = bcost(u - 1, g2) if u >= 2 else 0.0
                    if vcost == INF:
                        continue
                    tot = prev + cl[0] + vcost
                    if tot < best:
                        best, arg = tot, g2
                E2[g][u] = best
                par[g][u] = arg

        def tail_cost(u: int) -> float:
            """Vertical hops above the last used core (entry rows >= u)."""
            cost = 0.0
            for w in range(u, p):
                t = sum(b for a, _yd, b in deliveries if a >= w)
                if t > self.cap_bytes:
                    return INF
                cost += self.model.comm_energy(t)
            return cost

        best_u, best_e = -1, INF
        for u in range(1, p + 1):
            if E2[gmax][u] == INF:
                continue
            e = E2[gmax][u] + tail_cost(u)
            if e < best_e:
                best_u, best_e = u, e
        if best_u < 0:
            return None

        # Reconstruct the row cuts; core u covers rows (cuts[u], cuts[u+1]].
        cuts = [0] * (best_u + 1)
        g = gmax
        for u in range(best_u, 0, -1):
            cuts[u] = g
            g = par[g][u]
        assert g == 0
        cores: list[tuple[tuple[int, ...], float] | None] = [None] * p
        core_of_row: dict[int, int] = {}
        for u in range(best_u):
            lo = cuts[u] if u > 0 else 0
            hi = cuts[u + 1]
            stages = tuple(blk.stages_of(lo, hi))
            for y in range(lo + 1, hi + 1):
                core_of_row[y] = u
            if stages:
                cl = blk.cluster(lo, hi)
                assert cl is not None
                cores[u] = (stages, cl[1])

        # Outgoing distribution: pass-through plus the block's own exits.
        agg: dict[tuple[int, int], float] = {}
        for row, dest, b in passthrough:
            agg[(row, dest)] = agg.get((row, dest), 0.0) + b
        for i, j, d in blk.out_edges:
            row = core_of_row[spg.labels[i][1]]
            agg[(row, j)] = agg.get((row, j), 0.0) + d
        dout = tuple(
            (row, dest, b) for (row, dest), b in sorted(agg.items())
        )
        return _ColumnResult(best_e, dout, ColumnPlan(tuple(cores)))

    # ------------------------------------------------------------------
    def solve(self) -> tuple[float, list[ColumnPlan]]:
        """Outer DP over (level prefix, columns used)."""
        xmax, q = self.xmax, self.q
        prefix_work = [0.0] * (xmax + 1)
        for x in range(1, xmax + 1):
            prefix_work[x] = prefix_work[x - 1] + self.level_work[x]
        col_cap = self.p * self.cap_work

        # memo[(m, v)] = (energy, dout, (m', plan))
        memo: dict[tuple[int, int], tuple[float, Distribution, tuple]] = {}
        for v in range(1, q + 1):
            for m in range(v, xmax + 1):
                best: tuple[float, Distribution, tuple] | None = None
                lo = v - 1
                for m_prev in range(lo, m):
                    # Prune: the block's total work must fit the column.
                    if prefix_work[m] - prefix_work[m_prev] > col_cap:
                        continue
                    if v == 1:
                        if m_prev != 0:
                            continue
                        prev_e, din = 0.0, ()
                        h = 0.0
                    else:
                        prev = memo.get((m_prev, v - 1))
                        if prev is None:
                            continue
                        prev_e, din = prev[0], prev[1]
                        h = self.h_cost(din)
                        if h == INF:
                            continue
                    res = self.column(m_prev + 1, m, din)
                    if res is None:
                        continue
                    total = prev_e + h + res.energy
                    if best is None or total < best[0]:
                        best = (total, res.dout, (m_prev, res.plan))
                if best is not None:
                    memo[(m, v)] = best

        best_v, best_e = -1, INF
        for v in range(1, q + 1):
            entry = memo.get((xmax, v))
            if entry is not None and entry[0] < best_e:
                best_v, best_e = v, entry[0]
        if best_v < 0:
            raise HeuristicFailure("DPA2D: no feasible column decomposition")

        plans: list[ColumnPlan] = []
        m, v = xmax, best_v
        while v >= 1:
            _e, _d, (m_prev, plan) = memo[(m, v)]
            plans.append(plan)
            m, v = m_prev, v - 1
        plans.reverse()
        return best_e, plans


def _refit_speed(
    problem: ProblemInstance, core, stages, speed: float
) -> float:
    """The speed of ``stages`` on ``core``, refitted to the core's own
    (possibly scaled) model on heterogeneous platforms.

    The DP plans with the base model; a scaled core re-selects the
    energy-optimal feasible speed for the cluster's work and the refit
    fails (``HeuristicFailure``) when the core is too slow.
    """
    grid = problem.grid
    if not grid.heterogeneous:
        return speed
    work = sum(problem.spg.weights[i] for i in stages)
    s = grid.core_model(core).best_feasible(work, problem.period)
    if s is None:
        raise HeuristicFailure(
            f"cluster misses the period on scaled core {core}"
        )
    return s


def _plans_to_mapping(
    problem: ProblemInstance,
    plans: list[ColumnPlan],
    core_at,
) -> Mapping:
    """Materialise column plans into a Mapping; ``core_at(u, c)`` places cores."""
    alloc: dict[int, tuple[int, int]] = {}
    speeds: dict[tuple[int, int], float] = {}
    for c, plan in enumerate(plans):
        for u, entry in enumerate(plan.cores):
            if entry is None:
                continue
            stages, speed = entry
            core = core_at(u, c)
            speeds[core] = _refit_speed(problem, core, stages, speed)
            for i in stages:
                alloc[i] = core
    mapping = Mapping(problem.spg, problem.grid, alloc, speeds)
    try:
        mapping.check_structure()
    except MappingError as exc:
        raise HeuristicFailure(f"DPA2D produced an invalid mapping: {exc}")
    return mapping


@register("DPA2D")
def dpa2d_mapping(problem: ProblemInstance, rng=None) -> Mapping:
    """The 2D double-DP heuristic on the real grid (XY-routed)."""
    grid = problem.grid
    solver = _Dpa2dSolver(problem, grid.p, grid.q)
    _e, plans = solver.solve()
    return _plans_to_mapping(problem, plans, lambda u, c: (u, c))


def solve_dpa2d(
    problem: ProblemInstance, p: int, q: int
) -> tuple[float, list[ColumnPlan]]:
    """Run the DPA2D solver on a virtual ``p x q`` grid (same power model)."""
    return _Dpa2dSolver(problem, p, q).solve()


@register("DPA2D1D")
def dpa2d1d_mapping(problem: ProblemInstance, rng=None) -> Mapping:
    """DPA2D on a virtual 1 x (p*q) line, mapped along the topology's
    line embedding (the snake of Section 5.4 on the mesh)."""
    grid = problem.grid
    r = grid.n_cores
    solver = _Dpa2dSolver(problem, 1, r)
    _e, plans = solver.solve()
    order = grid.line_order()

    # Column c of the virtual line is line position c; route along it.
    alloc: dict[int, tuple[int, int]] = {}
    speeds: dict[tuple[int, int], float] = {}
    position: dict[int, int] = {}
    for c, plan in enumerate(plans):
        entry = plan.cores[0]
        if entry is None:
            continue
        stages, speed = entry
        core = order[c]
        speeds[core] = _refit_speed(problem, core, stages, speed)
        for i in stages:
            alloc[i] = core
            position[i] = c
    if len(alloc) != problem.spg.n:
        raise HeuristicFailure("DPA2D1D: incomplete assignment")
    paths = {}
    for (i, j) in problem.spg.edges:
        a, b = position[i], position[j]
        if a != b:
            paths[(i, j)] = grid.line_path(a, b)
    mapping = Mapping(problem.spg, grid, alloc, speeds, paths)
    try:
        mapping.check_structure()
    except MappingError as exc:
        raise HeuristicFailure(f"DPA2D1D produced an invalid mapping: {exc}")
    return mapping

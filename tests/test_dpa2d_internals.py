"""White-box tests for the DPA2D solver internals."""

import pytest

from repro.core.problem import ProblemInstance
from repro.heuristics.dpa2d import _Dpa2dSolver
from repro.platform.cmp import CMPGrid
from repro.spg.build import chain, diamond, split_join


@pytest.fixture
def solver(grid_4x4):
    g = split_join([2, 2, 2], w_source=1e8, w_sink=1e8, w_branch=3e8,
                   comm=1e6)
    prob = ProblemInstance(g, grid_4x4, 0.8)
    return _Dpa2dSolver(prob, 4, 4), g


class TestBlocks:
    def test_block_stage_partition(self, solver):
        s, g = solver
        all_stages = []
        for x in range(1, g.xmax + 1):
            all_stages.extend(s.block(x, x).stages)
        assert sorted(all_stages) == list(range(g.n))

    def test_block_caching(self, solver):
        s, _g = solver
        assert s.block(1, 2) is s.block(1, 2)

    def test_block_rows(self, solver):
        s, g = solver
        blk = s.block(1, g.xmax)
        assert blk.ymax == g.ymax
        assert sorted(i for r in blk.rows.values() for i in r) == list(
            range(g.n)
        )

    def test_out_edges_leave_block(self, solver):
        s, g = solver
        blk = s.block(1, 2)
        for (i, j, _d) in blk.out_edges:
            assert g.labels[i][0] <= 2 < g.labels[j][0]

    def test_v_edges_are_cross_row(self, solver):
        s, _g = solver
        blk = s.block(1, 3)
        for (ys, yd, _d) in blk.v_edges:
            assert ys != yd

    @pytest.mark.parametrize("idx", [3, 11])
    def test_blocks_match_full_scan(self, grid_4x4, idx):
        """The per-level index gives every block the stages and edges, in
        the order, that a scan of the whole graph gives (traffic sums
        accumulate in edge order)."""
        from repro.spg.streamit import streamit_workflow

        g = streamit_workflow(idx, ccr=1.0, seed=0)
        s = _Dpa2dSolver(ProblemInstance(g, grid_4x4, 1.0), 4, 4)
        lab = g.labels
        for m1 in range(1, g.xmax + 1):
            for m2 in range(m1, g.xmax + 2):
                blk = s.block(m1, m2)
                assert blk.stages == [
                    i for i in range(g.n) if m1 <= lab[i][0] <= m2
                ]
                inside = [
                    (i, j, d) for i, j, d in g.edge_list
                    if m1 <= lab[i][0] <= m2
                ]
                assert blk.out_edges == [
                    (i, j, d) for i, j, d in inside if lab[j][0] > m2
                ]
                assert blk.v_edges == [
                    (lab[i][1], lab[j][1], d) for i, j, d in inside
                    if m1 <= lab[j][0] <= m2 and lab[i][1] != lab[j][1]
                ]


class TestClusterCosts:
    def test_empty_cluster_free(self, solver):
        s, g = solver
        blk = s.block(2, 2)
        # Rows above the block's ymax are empty.
        e = blk.cluster(blk.ymax, blk.ymax)
        assert e == (0.0, 0.0)

    def test_overweight_cluster_infeasible(self, grid_4x4):
        g = split_join([1, 1], w_source=1e6, w_sink=1e6, w_branch=6e8,
                       comm=1e3)
        prob = ProblemInstance(g, grid_4x4, 0.7)
        s = _Dpa2dSolver(prob, 4, 4)
        blk = s.block(2, 2)  # both 6e8 branches share level 2
        assert blk.cluster(0, 2) is None  # 1.2e9 cycles > 0.7 s at 1 GHz
        assert blk.cluster(0, 1) is not None

    def test_nonconvex_cluster_infeasible(self, grid_4x4):
        # Fork at row 1 feeding a row-2 branch that rejoins row 1: taking
        # rows {1} of the whole x-range without row 2 is non-convex.
        g = diamond((1e8, 1e8, 1e8, 1e8), (1e3, 1e3, 1e3, 1e3))
        prob = ProblemInstance(g, grid_4x4, 1.0)
        s = _Dpa2dSolver(prob, 4, 4)
        blk = s.block(1, g.xmax)
        assert blk.cluster(0, 1) is None  # source+mid1+sink without mid2
        assert blk.cluster(0, 2) is not None


class TestHorizontalCost:
    def test_empty_distribution_free(self, solver):
        s, _g = solver
        assert s.h_cost(()) == 0.0

    def test_energy_per_byte(self, solver):
        s, _g = solver
        d = ((0, 5, 1000.0),)
        assert s.h_cost(d) == pytest.approx(
            s.model.comm_energy(1000.0)
        )

    def test_bandwidth_violation(self, solver):
        s, _g = solver
        too_much = s.cap_bytes * 1.01
        assert s.h_cost(((0, 5, too_much),)) == float("inf")

    def test_rows_checked_separately(self, solver):
        s, _g = solver
        half = s.cap_bytes * 0.6
        # Same row: 1.2x capacity -> infeasible.
        assert s.h_cost(((0, 5, half), (0, 6, half))) == float("inf")
        # Different rows: each fits.
        assert s.h_cost(((0, 5, half), (1, 6, half))) < float("inf")


class TestColumnResults:
    def test_splitjoin_cannot_share_one_column(self, solver):
        """Fork and join sit on row 1: a row-range cluster containing them
        must contain every branch row (convexity), and the whole graph
        exceeds one core's capacity -- so a single column is infeasible.
        This is the structural reason DPA2D spreads levels over columns."""
        s, g = solver
        assert s.column(1, g.xmax, ()) is None

    def test_full_graph_single_column_when_light(self, grid_4x4):
        from repro.core.problem import ProblemInstance as PI

        g = chain(4, [1e7] * 4, [1e3] * 3)
        s = _Dpa2dSolver(PI(g, grid_4x4, 1.0), 4, 4)
        res = s.column(1, g.xmax, ())
        assert res is not None
        placed = [
            i
            for entry in res.plan.cores
            if entry is not None
            for i in entry[0]
        ]
        assert sorted(placed) == list(range(g.n))
        assert res.dout == ()

    def test_dout_points_beyond_block(self, solver):
        s, g = solver
        res = s.column(1, 2, ())
        assert res is not None
        for (_row, dest, _b) in res.dout:
            assert g.labels[dest][0] > 2

    def test_empty_block_is_none(self, grid_4x4):
        g = chain(3, [1e8] * 3, [1e3] * 2)
        prob = ProblemInstance(g, grid_4x4, 1.0)
        s = _Dpa2dSolver(prob, 4, 4)
        # x range beyond the graph has no stages.
        assert s.column(4, 4, ()) is None

    def test_delivery_repositions_cluster_to_entry_row(self, grid_4x4):
        """An over-capacity delivery is fine if the inner DP can park the
        destination cluster *on* the entry row (empty cores below)."""
        g = split_join([1, 1], w_source=1e6, w_sink=1e6, w_branch=1e8,
                       comm=1e3)
        prob = ProblemInstance(g, grid_4x4, 0.5)
        s = _Dpa2dSolver(prob, 4, 4)
        big = s.cap_bytes * 1.5
        res = s.column(3, 3, ((3, g.sink, big),))
        assert res is not None
        # The sink must have been pushed up to physical row 3.
        assert res.plan.cores[3] is not None
        assert res.plan.cores[0] is None

    def test_conflicting_deliveries_infeasible(self, grid_4x4):
        """Two over-capacity deliveries entering at opposite rows cannot
        both reach the sink without one of them crossing a vertical link."""
        g = split_join([1, 1], w_source=1e6, w_sink=1e6, w_branch=1e8,
                       comm=1e3)
        prob = ProblemInstance(g, grid_4x4, 0.5)
        s = _Dpa2dSolver(prob, 4, 4)
        big = s.cap_bytes * 1.5
        din = ((0, g.sink, big), (3, g.sink, big))
        assert s.column(3, 3, din) is None

    def test_delivery_on_same_row_is_fine(self, grid_4x4):
        g = split_join([1, 1], w_source=1e6, w_sink=1e6, w_branch=1e8,
                       comm=1e3)
        prob = ProblemInstance(g, grid_4x4, 0.5)
        s = _Dpa2dSolver(prob, 4, 4)
        big = s.cap_bytes * 1.5
        # Entering at physical row 0 where the sink lives: no vertical hop,
        # the (over-)wide horizontal entry was charged at the boundary.
        din = ((0, g.sink, big),)
        assert s.column(3, 3, din) is not None


class TestSolvePruning:
    def test_chain_uses_expected_columns(self, grid_4x4):
        g = chain(8, [4e8] * 8, [1e3] * 7)
        prob = ProblemInstance(g, grid_4x4, 0.9)
        s = _Dpa2dSolver(prob, 4, 4)
        _e, plans = s.solve()
        assert 2 <= len(plans) <= 4

    def test_single_column_when_loose(self, grid_4x4):
        g = chain(4, [1e7] * 4, [1e3] * 3)
        prob = ProblemInstance(g, grid_4x4, 1.0)
        s = _Dpa2dSolver(prob, 4, 4)
        _e, plans = s.solve()
        assert len(plans) == 1

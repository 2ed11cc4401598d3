"""Tests for the enumeration-kernel layer.

Covers the kernel registry and ambient selection, the vector kernel's
byte-exact equivalence to the reference DFS (hypothesis battery over
random SPGs x caps x budgets, including ``BudgetExceeded`` parity), the
keep-loosest ``suffix_arrays``/``suffix_table`` caches and the warm
table rebuild, the word-size switch at n = 62/63/64, and the
``--kernel`` CLI plumbing.
"""

from __future__ import annotations

import io
import os

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.errors import BudgetExceeded
from repro.core.kernels import (
    DEFAULT_KERNEL,
    KERNEL_ENV,
    KERNELS,
    EnumerationKernel,
    get_kernel,
    kernel_names,
    register_kernel,
    resolve_kernel,
    set_default_kernel,
    use_kernel,
)
from repro.core.partition import IdealLattice
from repro.spg import chain, fork_join
from repro.spg.random_gen import random_spg, random_spg_with_elevation


def lattice(spg, kernel, budget=1 << 20):
    return IdealLattice(spg, budget=budget, kernel=kernel)


# ---------------------------------------------------------------------------
# Registry + ambient selection
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert "python" in kernel_names()
        assert "vector" in kernel_names()
        assert DEFAULT_KERNEL in kernel_names()

    def test_get_kernel_singleton(self):
        assert get_kernel("vector") is get_kernel("vector")
        assert get_kernel("vector").name == "vector"

    def test_unknown_kernel_names_available(self):
        with pytest.raises(KeyError) as exc:
            get_kernel("fortran")
        msg = str(exc.value)
        assert "fortran" in msg and "python" in msg and "vector" in msg

    def test_register_and_unregister(self):
        @register_kernel("test-null", "test-only kernel")
        class NullKernel(EnumerationKernel):
            def enumerate_lists(self, lat, ideal, max_weight,
                                max_clusters=None):
                return [], []

        try:
            assert get_kernel("test-null").enumerate_lists(
                None, 3, 1.0
            ) == ([], [])
        finally:
            KERNELS.pop("test-null")

    def test_set_default_kernel_exports_env(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        set_default_kernel("python")
        try:
            assert os.environ[KERNEL_ENV] == "python"
            assert resolve_kernel().name == "python"
        finally:
            set_default_kernel(None)
        assert KERNEL_ENV not in os.environ
        assert resolve_kernel().name == DEFAULT_KERNEL

    def test_set_default_kernel_validates(self):
        with pytest.raises(KeyError):
            set_default_kernel("no-such-kernel")

    def test_use_kernel_scopes_and_restores(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "vector")
        with use_kernel("python"):
            assert resolve_kernel().name == "python"
            assert os.environ[KERNEL_ENV] == "python"
        assert os.environ[KERNEL_ENV] == "vector"
        assert resolve_kernel().name == "vector"

    def test_resolve_precedence(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "python")
        assert resolve_kernel().name == "python"  # env beats built-in
        assert resolve_kernel("vector").name == "vector"  # explicit wins
        k = get_kernel("python")
        assert resolve_kernel(k) is k  # instances pass through

    def test_lattice_records_kernel(self):
        lat = lattice(random_spg(6, rng=0), "python")
        assert lat.kernel.name == "python"


# ---------------------------------------------------------------------------
# Hypothesis battery: vector == python, byte for byte
# ---------------------------------------------------------------------------
class TestKernelParity:
    @given(
        n=st.integers(min_value=3, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
        cap_frac=st.floats(min_value=0.1, max_value=1.2),
    )
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_per_ideal_arrays_identical(self, n, seed, cap_frac):
        spg = random_spg(n, rng=seed)
        cap = sum(spg.weights) * cap_frac
        lp = lattice(spg, "python")
        lv = lattice(spg, "vector")
        for ideal in lp.ideals():
            if not ideal:
                continue
            mp, wp = lp.suffix_arrays(ideal, cap)
            mv, wv = lv.suffix_arrays(ideal, cap)
            # Same masks, same works, same (DFS preorder) order.
            assert mp.dtype == mv.dtype == np.uint64
            assert np.array_equal(mp, mv)
            assert wp.tobytes() == wv.tobytes()

    @given(
        n=st.integers(min_value=4, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
        cap_frac=st.floats(min_value=0.2, max_value=1.1),
    )
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_suffix_table_identical(self, n, seed, cap_frac):
        spg = random_spg(n, rng=seed)
        cap = sum(spg.weights) * cap_frac
        tp = lattice(spg, "python").suffix_table(cap)
        tv = lattice(spg, "vector").suffix_table(cap)
        for a, b in zip(tp, tv):
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)
            else:
                assert a == b

    @given(budget=st.integers(min_value=1, max_value=400))
    @settings(max_examples=25, deadline=None)
    def test_cluster_budget_parity(self, budget):
        spg = random_spg(10, rng=3)
        cap = sum(spg.weights)
        lp = lattice(spg, "python")
        lv = lattice(spg, "vector")
        for ideal in lp.ideals():
            if not ideal:
                continue
            rp = rv = None
            try:
                got_p = lp.suffix_clusters_weighted(ideal, cap, budget)
            except BudgetExceeded as exc:
                rp = str(exc)
            try:
                got_v = lv.suffix_clusters_weighted(ideal, cap, budget)
            except BudgetExceeded as exc:
                rv = str(exc)
            # Raise at the same cumulative count, same message.
            assert rp == rv
            if rp is None:
                assert got_p == got_v

    @given(budget=st.integers(min_value=1, max_value=3000))
    @settings(max_examples=25, deadline=None)
    def test_transition_budget_parity(self, budget):
        spg = random_spg(12, rng=7)
        cap = sum(spg.weights) * 0.8
        rp = rv = None
        try:
            lattice(spg, "python").suffix_table(cap, budget)
        except BudgetExceeded as exc:
            rp = str(exc)
        try:
            lattice(spg, "vector").suffix_table(cap, budget)
        except BudgetExceeded as exc:
            rv = str(exc)
        assert rp == rv
        if rp is not None:
            assert f"{budget} DP transitions" in rp

    def test_multi_chunk_bulk_build(self):
        # > 1024 nonzero ideals exercises the chunked bulk path.
        spg = fork_join(12)
        lp = lattice(spg, "python")
        lv = lattice(spg, "vector")
        assert len(lv.ideals()) > 1024
        cap = sum(spg.weights) * 0.6
        tp = lp.suffix_table(cap)
        tv = lv.suffix_table(cap)
        assert tp[5] == tv[5] > 0
        for a, b in zip(tp[:5], tv[:5]):
            assert np.array_equal(a, b)

    def test_root_candidates_fallback_without_init_mask(self):
        spg = random_spg(9, rng=11)
        lv = lattice(spg, "vector")
        cap = sum(spg.weights)
        want = lv.suffix_table(cap)
        lv2 = lattice(spg, "vector")
        lv2.ideals()
        lv2._init_mask = {}  # force the _init_list fallback
        got = lv2.suffix_table(cap)
        for a, b in zip(want[:5], got[:5]):
            assert np.array_equal(a, b)

    def test_large_graph_falls_back_to_python(self):
        spg = chain(70)
        lv = lattice(spg, "vector")
        lp = lattice(spg, "python")
        cap = sum(spg.weights)
        # An ideal holding stages past bit 63, whose masks overflow uint64.
        ideal = next(i for i in lv.ideals() if i.bit_length() > 66)
        got = lv.suffix_clusters_weighted(ideal, cap)
        assert got == lp.suffix_clusters_weighted(ideal, cap)
        # A chain prefix's up-sets are its suffixes, one per stage.
        assert len(got) == ideal.bit_length()
        assert max(mask for mask, _w in got) >= 1 << 64

    @pytest.mark.parametrize("n", [62, 63, 64])
    def test_word_size_switch_parity(self, n):
        from repro.core.problem import ProblemInstance
        from repro.heuristics.dpa1d import solve_uniline
        from repro.platform.cmp import CMPGrid

        spg = random_spg_with_elevation(
            n, 2, np.random.default_rng(n), ccr=1.0
        )
        assert spg.n == n
        cap = sum(spg.weights) * 0.3
        lp, lv = lattice(spg, "python"), lattice(spg, "vector")
        for ideal in lp.ideals()[-40:]:
            assert lp.suffix_clusters_weighted(
                ideal, cap
            ) == lv.suffix_clusters_weighted(ideal, cap)
        T = 2.0 * spg.total_work / 1e9 / 8
        prob = ProblemInstance(
            spg, CMPGrid.uni_line(8, uni_directional=True), T
        )
        got = {k: solve_uniline(prob, 8, kernel=k) for k in kernel_names()}
        assert got["python"] == got["vector"]

    @pytest.mark.parametrize("ccr", [None, 10.0, 1.0, 0.1])
    def test_dpa1d_on_serpent(self, ccr):
        # StreamIt #11 (Serpent) has 120 stages: every enumeration runs
        # the DFS, whatever the kernel, and none may overflow a word.
        from repro.core.errors import HeuristicFailure
        from repro.core.problem import ProblemInstance
        from repro.heuristics.dpa1d import dpa1d_mapping
        from repro.platform.cmp import CMPGrid
        from repro.spg.streamit import streamit_workflow

        spg = streamit_workflow(11, ccr=ccr, seed=0)
        assert spg.n > 64
        outcomes = {}
        for kernel in kernel_names():
            runs = []
            for T in (1.0, 0.1):
                prob = ProblemInstance(spg, CMPGrid(4, 4), T)
                try:
                    m = dpa1d_mapping(prob, kernel=kernel)
                    runs.append((m.alloc, m.speeds))
                except HeuristicFailure as exc:
                    runs.append(str(exc))
            outcomes[kernel] = runs
        assert outcomes["python"] == outcomes["vector"]
        assert not isinstance(outcomes["vector"][0], str)

    def test_solver_outputs_identical_under_kernels(self):
        from repro.core.problem import ProblemInstance
        from repro.experiments import choose_period
        from repro.heuristics.dpa1d import dpa1d_mapping
        from repro.platform.cmp import CMPGrid

        spg = random_spg(20, rng=4, ccr=10.0)
        grid = CMPGrid(3, 3)
        T = choose_period(spg, grid, heuristics=("Greedy",), rng=4).period
        prob = ProblemInstance(spg, grid, T)
        maps = {}
        for kernel in kernel_names():
            m = dpa1d_mapping(prob, rng=4, kernel=kernel)
            maps[kernel] = (m.alloc, m.speeds)
        assert maps["python"] == maps["vector"]


# ---------------------------------------------------------------------------
# Keep-loosest caches (satellite: loose -> tight -> loose regression)
# ---------------------------------------------------------------------------
class TestSuffixCaches:
    def test_loosest_arrays_survive_tightening(self):
        spg = random_spg(10, rng=1)
        lat = lattice(spg, "vector")
        total = sum(spg.weights)
        ideal = max(lat.ideals())
        loose_m, loose_w = lat.suffix_arrays(ideal, total)
        tight_m, tight_w = lat.suffix_arrays(ideal, total * 0.3)
        assert tight_m.size <= loose_m.size
        # The loose-cap query after tightening returns the *same* kept
        # arrays — the regression was overwriting them with the view.
        again_m, again_w = lat.suffix_arrays(ideal, total)
        assert again_m is loose_m and again_w is loose_w

    def test_filtered_view_memoised_per_cap(self):
        spg = random_spg(10, rng=1)
        lat = lattice(spg, "vector")
        total = sum(spg.weights)
        ideal = max(lat.ideals())
        lat.suffix_arrays(ideal, total)
        a1, _ = lat.suffix_arrays(ideal, total * 0.4)
        a2, _ = lat.suffix_arrays(ideal, total * 0.4)
        assert a1 is a2  # memoised view for the current solve cap
        b1, _ = lat.suffix_arrays(ideal, total * 0.2)
        assert b1 is not a1  # a new cap derives (and memoises) a new view

    def test_filtered_view_matches_fresh_enumeration(self):
        spg = random_spg(11, rng=6)
        total = sum(spg.weights)
        warm = lattice(spg, "vector")
        cold = lattice(spg, "vector")
        for ideal in warm.ideals():
            if not ideal:
                continue
            warm.suffix_arrays(ideal, total)  # loosest first
            vm, vw = warm.suffix_arrays(ideal, total * 0.35)
            cm, cw = cold.suffix_arrays(ideal, total * 0.35)
            assert np.array_equal(vm, cm)
            assert vw.tobytes() == cw.tobytes()

    def test_looser_cap_reenumerates_and_replaces(self):
        spg = random_spg(9, rng=2)
        lat = lattice(spg, "vector")
        total = sum(spg.weights)
        ideal = max(lat.ideals())
        tight_m, _ = lat.suffix_arrays(ideal, total * 0.3)
        loose_m, _ = lat.suffix_arrays(ideal, total)
        assert loose_m.size >= tight_m.size
        again, _ = lat.suffix_arrays(ideal, total)
        assert again is loose_m  # the looser cap became the kept one

    def test_suffix_table_cached_and_filtered(self):
        spg = random_spg(12, rng=9)
        lat = lattice(spg, "vector")
        total = sum(spg.weights)
        t1 = lat.suffix_table(total)
        assert lat.suffix_table(total) is t1  # exact-cap hit
        t2 = lat.suffix_table(total * 0.5)  # filtered derivation
        fresh = lattice(spg, "vector").suffix_table(total * 0.5)
        for a, b in zip(t2, fresh):
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b)
            else:
                assert a == b

    def test_cached_table_rechecks_budget(self):
        spg = random_spg(12, rng=9)
        lat = lattice(spg, "vector")
        total = sum(spg.weights)
        tbl = lat.suffix_table(total)
        assert tbl[5] > 10
        with pytest.raises(BudgetExceeded, match="10 DP transitions"):
            lat.suffix_table(total, 10)  # same cap, tighter budget

    def test_warm_reports_and_prefills(self):
        spg = random_spg(12, rng=9)
        lat = lattice(spg, "vector")
        total = sum(spg.weights)
        stats = lat.warm(total * 0.8)
        assert stats["ideals"] == len(lat.ideals())
        assert stats["transitions"] == lat.suffix_table(total * 0.8)[5]

    def test_scratch_stats_and_clear(self):
        spg = random_spg(10, rng=4)
        lat = lattice(spg, "vector")
        total = sum(spg.weights)
        before = lat.suffix_table(total)
        stats = lat.scratch_stats()
        assert stats["nodes"] > 0 and stats["bytes"] > 0
        assert stats["tables"] == 1
        lat.clear_scratch()
        empty = lat.scratch_stats()
        assert empty["nodes"] == 0 and empty["tables"] == 0
        # Rebuild after clearing is byte-identical.
        after = lat.suffix_table(total)
        for a, b in zip(before, after):
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b)
            else:
                assert a == b


# ---------------------------------------------------------------------------
# Warm table rebuilds: kept arrays from earlier caps plus bulk builds
# ---------------------------------------------------------------------------
def table_bytes(tbl):
    return tuple(
        a.tobytes() if isinstance(a, np.ndarray) else a for a in tbl
    )


def build(lat, cap, budget=None):
    """The table at ``cap`` or the budget failure's message."""
    try:
        return table_bytes(lat.suffix_table(cap, budget))
    except BudgetExceeded as exc:
        return str(exc)


class TestWarmRebuild:
    """A lattice that already holds per-ideal arrays (from a failed
    looser build, reconstruction or single-ideal queries) rebuilds its
    table through the bulk kernel, byte-identical to a fresh lattice."""

    SPG = fork_join(11)  # 2050 ideals: three bulk chunks

    def caps(self):
        total = sum(self.SPG.weights)
        return total * 0.8, total * 0.45

    def tripped(self, kernel):
        """A lattice whose loose-cap build ran out of budget midway."""
        loose, _tight = self.caps()
        lat = lattice(self.SPG, kernel)
        full = lattice(self.SPG, kernel).suffix_table(loose)[5]
        with pytest.raises(BudgetExceeded):
            lat.suffix_table(loose, full // 2)
        assert 1024 <= len(lat._sfx) < len(lat.ideals()) - 1
        return lat

    @pytest.mark.parametrize("kernel", ["python", "vector"])
    def test_rebuild_after_budget_failure_matches_fresh(self, kernel):
        _loose, tight = self.caps()
        want = build(lattice(self.SPG, kernel), tight)
        assert build(self.tripped(kernel), tight) == want

    def all_kept(self, kernel):
        """A lattice holding every ideal's arrays at the looser cap."""
        loose, _tight = self.caps()
        lat = lattice(self.SPG, kernel)
        for ideal in lat.ideals()[1:]:
            lat.suffix_arrays(ideal, loose)
        return lat

    @pytest.mark.parametrize("kernel", ["python", "vector"])
    @pytest.mark.parametrize("warm", ["tripped", "all_kept"])
    def test_rebuild_raises_exactly_when_fresh_does(self, kernel, warm):
        _loose, tight = self.caps()
        total = lattice(self.SPG, kernel).suffix_table(tight)[5]
        for budget in (0, 1, total // 3, total - 1, total, total + 1):
            want = build(lattice(self.SPG, kernel), tight, budget)
            got = build(getattr(self, warm)(kernel), tight, budget)
            assert got == want
            assert isinstance(got, str) == (total > budget)
            if isinstance(got, str):
                assert got == f"DPA1D exceeded {budget} DP transitions"

    @pytest.mark.parametrize("kernel", ["python", "vector"])
    def test_interleaved_kept_and_fresh_ideals(self, kernel):
        # Kept arrays scattered through the ideal order, some looser and
        # some tighter than the build cap (those must be re-enumerated).
        loose, tight = self.caps()
        lat = lattice(self.SPG, kernel)
        ideals = lat.ideals()
        for pos in range(5, len(ideals), 7):
            lat.suffix_arrays(ideals[pos], loose if pos % 2 else tight / 2)
        want = build(lattice(self.SPG, kernel), tight)
        assert build(lat, tight) == want
        # Re-enumerated ideals now keep arrays at the build cap.
        assert all(lat._sfx[i][0] >= tight for i in ideals if i)


# ---------------------------------------------------------------------------
# CLI / sweep plumbing
# ---------------------------------------------------------------------------
class TestKernelPlumbing:
    def run_cli(self, *argv):
        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_cli_kernel_outputs_identical(self):
        base = ("map", "-w", "DCT", "-H", "DPA1D", "--seed", "1")
        _, want = self.run_cli(*base)
        for kernel in kernel_names():
            code, got = self.run_cli(*base, "--kernel", kernel)
            assert code == 0
            assert got == want

    def test_cli_kernel_restores_ambient(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        code, _ = self.run_cli(
            "map", "-w", "DCT", "-H", "DPA1D", "--kernel", "python"
        )
        assert code == 0
        assert KERNEL_ENV not in os.environ
        assert resolve_kernel().name == DEFAULT_KERNEL

    def test_cli_rejects_unknown_kernel(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["map", "-w", "DCT", "--kernel", "numba"],
                 out=io.StringIO())
        assert "invalid choice" in capsys.readouterr().err

    def test_env_var_selects_kernel(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "python")
        lat = IdealLattice(random_spg(6, rng=0), budget=1 << 16)
        assert lat.kernel.name == "python"

    def test_run_tasks_starts_each_cell_cold(self):
        from repro.experiments.parallel import random_panel_task, run_tasks
        from repro.platform.cmp import CMPGrid

        spg = random_spg(10, rng=5, ccr=10.0)
        task = (spg, CMPGrid(2, 2), ("DPA1D",), 5, None)
        first, second = run_tasks(random_panel_task, [task, task], jobs=1)
        # No lattice outlives its cell: the second cell (and any later
        # run) enumerates from scratch and gets the same answer.
        assert spg._derived == {}
        assert first == second

    def test_sweep_kernel_param_identical_report(self):
        from repro.experiments.scenarios import run_scenario_sweep

        kw = dict(
            topologies=["mesh"], sizes=[(2, 2)], ccrs=[10.0],
            apps=["random-8"], replicates=1, seed=1,
        )
        reports = {
            k: run_scenario_sweep(kernel=k, **kw) for k in kernel_names()
        }
        assert reports["python"] == reports["vector"]

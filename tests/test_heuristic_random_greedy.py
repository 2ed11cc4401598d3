"""Tests for the Random (Section 5.1) and Greedy (Section 5.2) heuristics."""

import numpy as np
import pytest

from repro.core.errors import HeuristicFailure
from repro.core.evaluate import energy, validate
from repro.core.problem import ProblemInstance
from repro.heuristics.greedy import greedy_mapping
from repro.heuristics.random_heuristic import random_mapping
from repro.spg.build import chain, split_join
from repro.spg.random_gen import random_spg


from tests.helpers import loose_period


@pytest.fixture
def easy_problem(grid_4x4):
    g = random_spg(20, rng=7, ccr=10.0)
    return ProblemInstance(g, grid_4x4, loose_period(g))


class TestRandomHeuristic:
    def test_produces_valid_mapping(self, easy_problem):
        m = random_mapping(easy_problem, rng=0)
        validate(m, easy_problem.period)

    def test_deterministic_under_seed(self, easy_problem):
        a = random_mapping(easy_problem, rng=42)
        b = random_mapping(easy_problem, rng=42)
        assert a.alloc == b.alloc
        assert a.speeds == b.speeds

    def test_seeds_vary(self, easy_problem):
        allocs = {
            tuple(sorted(random_mapping(easy_problem, rng=s).alloc.items()))
            for s in range(5)
        }
        assert len(allocs) > 1

    def test_more_trials_never_worse(self, easy_problem):
        e1 = energy(
            random_mapping(easy_problem, rng=3, trials=1), easy_problem.period
        ).total
        e10 = energy(
            random_mapping(easy_problem, rng=3, trials=10), easy_problem.period
        ).total
        assert e10 <= e1 * (1 + 1e-12)

    def test_fails_when_infeasible(self, grid_2x2):
        g = chain(3, [2e9, 2e9, 2e9], [1.0] * 2)  # stages can't meet T=1
        prob = ProblemInstance(g, grid_2x2, 1.0)
        with pytest.raises(HeuristicFailure):
            random_mapping(prob, rng=0)

    def test_fails_when_too_many_clusters(self):
        # 10 heavy stages cannot share cores, but only 4 cores exist.
        from repro.platform.cmp import CMPGrid

        g = chain(10, [9e8] * 10, [1.0] * 9)
        prob = ProblemInstance(g, CMPGrid(2, 2), 1.0)
        with pytest.raises(HeuristicFailure):
            random_mapping(prob, rng=0)

    def test_respects_period_on_every_resource(self, easy_problem):
        from repro.core.evaluate import max_cycle_time

        m = random_mapping(easy_problem, rng=1)
        assert max_cycle_time(m) <= easy_problem.period * (1 + 1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_partition_matches_rescanning_reference(self, grid_4x4, seed):
        """The incrementally kept ready list draws exactly what a rescan
        of every stage's predecessors at each step draws."""
        from repro.heuristics.random_heuristic import _random_partition

        def reference(problem, rng):
            spg, model, T = problem.spg, problem.grid.model, problem.period
            taken: set[int] = set()

            def ready():
                return [i for i in range(spg.n) if i not in taken
                        and all(p in taken for p in spg.preds(i))]

            clusters, speeds = [], []
            while ready():
                first = ready()[0]
                fits = [v for v in model.speeds
                        if spg.weights[first] / v <= T]
                if not fits:
                    return None
                speed = float(rng.choice(fits))
                current, load = [first], spg.weights[first]
                taken.add(first)
                while True:
                    frontier = [i for i in ready()
                                if load + spg.weights[i] <= T * speed]
                    if not frontier:
                        break
                    nxt = int(rng.choice(frontier))
                    current.append(nxt)
                    taken.add(nxt)
                    load += spg.weights[nxt]
                clusters.append(current)
                speeds.append(speed)
            return clusters, speeds

        g = random_spg(30, rng=seed, ccr=1.0)
        for frac in (1.0, 0.3, 0.1, 0.02):
            prob = ProblemInstance(g, grid_4x4, loose_period(g) * frac)
            got = _random_partition(prob, np.random.default_rng(seed))
            want = reference(prob, np.random.default_rng(seed))
            assert got == want

    def test_numpy_generator_accepted(self, easy_problem):
        m = random_mapping(easy_problem, rng=np.random.default_rng(5))
        validate(m, easy_problem.period)


class TestGreedyHeuristic:
    def test_produces_valid_mapping(self, easy_problem):
        m = greedy_mapping(easy_problem)
        validate(m, easy_problem.period)

    def test_deterministic(self, easy_problem):
        a = greedy_mapping(easy_problem)
        b = greedy_mapping(easy_problem)
        assert a.alloc == b.alloc

    def test_source_on_corner(self, easy_problem):
        m = greedy_mapping(easy_problem)
        assert m.alloc[easy_problem.spg.source] == (0, 0)

    def test_speeds_are_downgraded(self, easy_problem):
        """After downgrade, no core can step one speed down and still fit."""
        m = greedy_mapping(easy_problem)
        model = easy_problem.grid.model
        for core, work in m.core_work().items():
            s = m.speeds[core]
            assert s == model.best_feasible(work, easy_problem.period)

    def test_fails_when_infeasible(self, grid_2x2):
        g = chain(3, [2e9, 2e9, 2e9], [1.0] * 2)
        prob = ProblemInstance(g, grid_2x2, 1.0)
        with pytest.raises(HeuristicFailure):
            greedy_mapping(prob)

    def test_splitjoin_balanced(self, grid_4x4):
        g = split_join([1] * 4, w_source=1e8, w_sink=1e8, w_branch=8e8,
                       comm=1e5)
        T = 0.9
        m = greedy_mapping(ProblemInstance(g, grid_4x4, T))
        # Each branch stage is 8e8 cycles: no two fit together at T=0.9.
        validate(m, T)
        assert len(m.active_cores()) >= 4

    def test_chain_uses_few_cores_when_loose(self, grid_4x4):
        g = chain(6, [1e7] * 6, [1e3] * 5)
        m = greedy_mapping(ProblemInstance(g, grid_4x4, 1.0))
        assert len(m.active_cores()) == 1

    def test_beats_random_at_paper_periods(self, grid_4x4):
        """At Section-6.1.3 periods, Greedy beats Random on most seeds
        (the paper reports Greedy "always superior to Random")."""
        from repro.experiments import choose_period

        wins = 0
        total = 0
        for seed in range(4):
            g = random_spg(15, rng=seed, ccr=10.0)
            ch = choose_period(
                g, grid_4x4, heuristics=("Random", "Greedy"), rng=seed
            )
            ge = ch.results["Greedy"]
            re = ch.results["Random"]
            if not (ge.ok and re.ok):
                continue
            total += 1
            if ge.total_energy <= re.total_energy * (1 + 1e-9):
                wins += 1
        assert total >= 2
        assert wins >= total * 0.5

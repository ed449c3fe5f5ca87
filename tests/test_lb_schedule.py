"""Unit tests for the lower-bound schedule."""

import pytest

from repro.benchgen import generate_ptl_mapping, generate_routing
from repro.core import result as result_module
from repro.core.bound_schedule import MAX_INTERVAL, AdaptiveSchedule
from repro.core.options import SolverOptions
from repro.core.solver import BsoloSolver
from repro.pb import Constraint, Objective, PBInstance


def covering_instance():
    return PBInstance(
        [
            Constraint.clause([1, 2]),
            Constraint.clause([2, 3]),
            Constraint.clause([1, 3]),
        ],
        Objective({1: 3, 2: 2, 3: 2}),
    )


def drought(schedule, calls=60):
    for _ in range(calls):
        schedule.record(pruned=False)


class TestAdaptiveSchedule:
    def test_bounds_first_node(self):
        assert AdaptiveSchedule().should_bound()

    def test_interval_grows_on_drought(self):
        schedule = AdaptiveSchedule()
        # From its 0.5 prior the prune rate first drops below 2.5% on the
        # 19th unpruned call; only a sustained drought grows the interval.
        drought(schedule, 18)
        assert schedule.stats_dict()["interval"] == 1
        drought(schedule, 1)
        assert schedule.stats_dict()["interval"] == 2

    def test_interval_never_exceeds_cap(self):
        schedule = AdaptiveSchedule()
        drought(schedule, 500)
        stats = schedule.stats_dict()
        assert stats["interval"] == stats["interval_max"] == MAX_INTERVAL

    def test_interval_shrinks_on_prunes(self):
        schedule = AdaptiveSchedule()
        drought(schedule)
        grown = schedule.stats_dict()["interval"]
        schedule.record(pruned=True)
        assert schedule.stats_dict()["interval"] == grown // 2

    def test_prune_recovers_interval(self):
        schedule = AdaptiveSchedule()
        drought(schedule)
        for _ in range(10):
            schedule.record(pruned=True)
        assert schedule.stats_dict()["interval"] == 1

    def test_skips_nodes_when_interval_grows(self):
        schedule = AdaptiveSchedule()
        drought(schedule)
        interval = schedule.stats_dict()["interval"]
        decisions = [schedule.should_bound() for _ in range(2 * interval)]
        assert decisions == ([False] * (interval - 1) + [True]) * 2
        assert schedule.stats_dict()["skipped_nodes"] == 2 * (interval - 1)

    def test_stats_keys(self):
        schedule = AdaptiveSchedule()
        schedule.should_bound()
        schedule.record(pruned=True)
        assert set(schedule.stats_dict()) == {
            "skipped_nodes",
            "interval",
            "interval_max",
            "prune_rate",
        }


class _SlowClock:
    """Stands in for the ``time`` module; its clock advances 1 s per read."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 1.0
        return self.now


class TestSolverIntegration:
    @pytest.mark.parametrize("method", ["mis", "lgr", "lpr"])
    def test_same_optimum(self, method):
        instance = covering_instance()
        result = BsoloSolver(instance, SolverOptions(lower_bound=method)).solve()
        assert result.status == "optimal"
        assert result.best_cost == 4

    def test_scheduler_stats_reported(self):
        solver = BsoloSolver(covering_instance(), SolverOptions(lower_bound="lpr"))
        solver.solve()
        assert solver.stats.lower_bound_calls >= 1
        assert "skipped_nodes" in solver.stats.lb_stats["scheduler"]

    @pytest.mark.parametrize("method", ["mis", "lpr"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: generate_ptl_mapping(nodes=9, extra_edges=4, seed=3),
            lambda: generate_routing(4, 4, 8, 2, 5, seed=2009),
        ],
        ids=["ptl", "grout"],
    )
    def test_schedule_reads_no_clock(self, monkeypatch, build, method):
        instance = build()

        def counts():
            solver = BsoloSolver(instance, SolverOptions(lower_bound=method))
            assert solver.solve().status == "optimal"
            stats = solver.stats
            return stats.decisions, stats.conflicts, stats.lower_bound_calls

        reference = counts()
        monkeypatch.setattr(result_module, "time", _SlowClock())
        assert counts() == reference

"""Unit tests for the bound-call scheduling policies."""

import pytest

from repro.core.lb_schedule import AdaptiveSchedule, StaticSchedule, make_schedule
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


class TestStaticSchedule:
    @pytest.mark.parametrize("frequency", [1, 2, 3, 7])
    def test_matches_modulo_semantics(self, frequency):
        schedule = StaticSchedule(frequency)
        decisions = [schedule.should_bound() for _ in range(25)]
        expected = [index % frequency == 0 for index in range(25)]
        assert decisions == expected

    def test_record_is_inert(self):
        schedule = StaticSchedule(3)
        pattern_before = [schedule.should_bound() for _ in range(6)]
        schedule.record(pruned=False, seconds=5.0, method="lpr")
        schedule.record(pruned=True, seconds=0.0, method="mis")
        pattern_after = [schedule.should_bound() for _ in range(6)]
        assert pattern_before == pattern_after

    def test_prefilter_always_on(self):
        schedule = StaticSchedule(1)
        for _ in range(10):
            schedule.record(pruned=False, seconds=1.0, method="lpr")
        assert schedule.use_prefilter()

    def test_stats(self):
        schedule = StaticSchedule(2)
        for _ in range(10):
            schedule.should_bound()
        stats = schedule.stats_dict()
        assert stats["policy"] == "static"
        assert stats["nodes_seen"] == 10
        assert stats["bound_calls"] == 5


class TestAdaptiveSchedule:
    def test_bounds_first_node(self):
        assert AdaptiveSchedule(1).should_bound()

    def test_seeded_by_frequency(self):
        schedule = AdaptiveSchedule(4)
        decisions = [schedule.should_bound() for _ in range(8)]
        assert decisions == [False, False, False, True] * 2

    def test_interval_shrinks_on_prunes(self):
        schedule = AdaptiveSchedule(8)
        for _ in range(5):
            schedule.record(pruned=True, seconds=0.001, method="lpr")
        assert schedule.stats_dict()["interval"] == 1

    def test_interval_grows_on_expensive_drought(self):
        schedule = AdaptiveSchedule(1)
        for _ in range(60):
            schedule.record(pruned=False, seconds=0.5, method="lpr")
        stats = schedule.stats_dict()
        assert stats["interval"] > 1
        assert stats["interval"] <= 64

    def test_interval_never_exceeds_cap(self):
        schedule = AdaptiveSchedule(1, max_interval=16)
        for _ in range(500):
            schedule.record(pruned=False, seconds=1.0, method="lpr")
        assert schedule.stats_dict()["interval"] <= 16

    def test_skips_nodes_when_interval_grows(self):
        schedule = AdaptiveSchedule(1)
        for _ in range(60):
            schedule.record(pruned=False, seconds=0.5, method="lpr")
        decisions = [schedule.should_bound() for _ in range(20)]
        assert not all(decisions)
        assert schedule.stats_dict()["skipped_nodes"] > 0

    def test_prune_recovers_interval(self):
        schedule = AdaptiveSchedule(1)
        for _ in range(60):
            schedule.record(pruned=False, seconds=0.5, method="lpr")
        grown = schedule.stats_dict()["interval"]
        for _ in range(10):
            schedule.record(pruned=True, seconds=0.001, method="lpr")
        assert schedule.stats_dict()["interval"] < grown

    def test_prefilter_benched_when_useless(self):
        schedule = AdaptiveSchedule(1)
        # The LP keeps pruning where MIS does not: MIS payoff decays.
        for _ in range(60):
            schedule.record(pruned=True, seconds=0.01, method="lpr")
        assert not schedule.use_prefilter()

    def test_prefilter_reprobed_periodically(self):
        schedule = AdaptiveSchedule(1)
        for _ in range(60):
            schedule.record(pruned=True, seconds=0.01, method="lpr")
        probes = sum(1 for _ in range(200) if schedule.use_prefilter())
        assert probes >= 1  # the periodic probation re-enables it

    def test_prefilter_stays_on_while_pruning(self):
        schedule = AdaptiveSchedule(1)
        for _ in range(60):
            schedule.record(pruned=True, seconds=0.0001, method="mis")
        assert schedule.use_prefilter()

    def test_stats_keys(self):
        schedule = AdaptiveSchedule(2)
        schedule.should_bound()
        schedule.record(pruned=True, seconds=0.001, method="lpr")
        stats = schedule.stats_dict()
        for key in (
            "policy",
            "nodes_seen",
            "bound_calls",
            "skipped_nodes",
            "interval",
            "prune_rate",
            "prefilter_rate",
        ):
            assert key in stats
        assert stats["policy"] == "adaptive"


class TestMakeSchedule:
    def test_dispatch(self):
        assert isinstance(
            make_schedule(SolverOptions(lb_schedule="static")), StaticSchedule
        )
        assert isinstance(
            make_schedule(SolverOptions(lb_schedule="adaptive")), AdaptiveSchedule
        )

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError):
            SolverOptions(lb_schedule="aggressive")

    def test_describe_includes_schedule(self):
        options = SolverOptions(lb_schedule="adaptive")
        described = options.describe()
        assert described["lb_schedule"] == "adaptive"

    def test_replace_roundtrip(self):
        options = SolverOptions().replace(lb_schedule="adaptive")
        assert options.lb_schedule == "adaptive"


class TestSolverIntegration:
    @pytest.mark.parametrize("method", ["mis", "lpr", "hybrid"])
    @pytest.mark.parametrize("schedule", ["static", "adaptive"])
    def test_same_optimum(self, method, schedule):
        instance = covering_instance()
        options = SolverOptions(lower_bound=method, lb_schedule=schedule)
        result = BsoloSolver(instance, options).solve()
        assert result.status == "optimal"
        assert result.best_cost == 4

    def test_scheduler_stats_reported(self):
        options = SolverOptions(lower_bound="lpr", lb_schedule="adaptive")
        solver = BsoloSolver(covering_instance(), options)
        solver.solve()
        scheduler = solver.stats.lb_stats["scheduler"]
        assert scheduler["policy"] == "adaptive"
        assert scheduler["bound_calls"] >= 1

    def test_static_scheduler_counts_nodes(self):
        options = SolverOptions(lower_bound="lpr", lb_frequency=2)
        solver = BsoloSolver(covering_instance(), options)
        solver.solve()
        scheduler = solver.stats.lb_stats["scheduler"]
        assert scheduler["policy"] == "static"
        assert scheduler["nodes_seen"] >= scheduler["bound_calls"]

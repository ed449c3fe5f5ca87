"""Tests for the Lagrangian bound's multiplier reuse (a post-paper
extension)."""

from repro.lagrangian import LagrangianBound
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


class TestMultiplierReuse:
    def test_memory_populated(self):
        lgr = LagrangianBound(covering_instance())
        lgr.compute({})
        assert lgr._mu_memory  # some multipliers active

    def test_second_call_at_least_as_good_quickly(self):
        instance = covering_instance()
        warm = LagrangianBound(instance, max_iterations=100)
        first = warm.compute({}).value
        # very short follow-up budget still reaches the same bound thanks
        # to the warm start
        warm._max_iterations = 5
        second = warm.compute({}).value
        assert second >= first - 1

    def test_reuse_disabled(self):
        lgr = LagrangianBound(covering_instance(), reuse_multipliers=False)
        lgr.compute({})
        assert lgr._mu_memory == {}

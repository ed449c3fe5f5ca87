"""Tests for optimal-solution enumeration."""

import itertools

import pytest

from repro.core import (
    BsoloSolver,
    SolverOptions,
    count_optimal,
    enumerate_optimal,
)
from repro.core import enumeration
from repro.pb import Constraint, Objective, PBInstance


def all_optima_brute_force(instance):
    best = None
    solutions = []
    n = instance.num_variables
    for bits in itertools.product((0, 1), repeat=n):
        assignment = {v: bits[v - 1] for v in range(1, n + 1)}
        if not instance.check(assignment):
            continue
        cost = instance.cost(assignment)
        if best is None or cost < best:
            best = cost
            solutions = [assignment]
        elif cost == best:
            solutions.append(assignment)
    return best, solutions


class TestEnumeration:
    def test_single_optimum(self):
        instance = PBInstance(
            [Constraint.clause([1, 2])], Objective({1: 1, 2: 2})
        )
        # optimum 1 achieved only by x1=1, x2=0
        solutions = list(enumerate_optimal(instance))
        assert solutions == [{1: 1, 2: 0}]

    def test_multiple_optima(self):
        instance = PBInstance(
            [Constraint.clause([1, 2])], Objective({1: 2, 2: 2})
        )
        solutions = list(enumerate_optimal(instance))
        assert len(solutions) == 2
        assert {1: 1, 2: 0} in solutions and {1: 0, 2: 1} in solutions

    def test_limit_respected(self):
        instance = PBInstance(
            [Constraint.clause([1, 2])], Objective({1: 2, 2: 2})
        )
        assert len(list(enumerate_optimal(instance, limit=1))) == 1

    def test_unsat_yields_nothing(self):
        instance = PBInstance(
            [
                Constraint.clause([1]),
                Constraint.clause([-1]),
            ]
        )
        assert list(enumerate_optimal(instance)) == []

    def test_satisfaction_enumerates_models(self):
        instance = PBInstance([Constraint.clause([1, 2])], num_variables=2)
        models = list(enumerate_optimal(instance))
        assert len(models) == 3  # all but {0,0}
        for model in models:
            assert instance.check(model)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        import random

        rng = random.Random(600 + seed)
        n = rng.randint(3, 5)
        constraints = []
        for _ in range(rng.randint(2, 5)):
            variables = rng.sample(range(1, n + 1), rng.randint(1, n))
            constraints.append(
                Constraint.clause(
                    [v if rng.random() < 0.6 else -v for v in variables]
                )
            )
        instance = PBInstance(
            constraints,
            Objective({v: rng.randint(0, 3) for v in range(1, n + 1)}),
            num_variables=n,
        )
        best, expected = all_optima_brute_force(instance)
        found = list(enumerate_optimal(instance, limit=200))
        if best is None:
            assert found == []
        else:
            as_tuples = {tuple(sorted(s.items())) for s in found}
            expected_tuples = {tuple(sorted(s.items())) for s in expected}
            assert as_tuples == expected_tuples

    def test_count_optimal(self):
        instance = PBInstance(
            [Constraint.clause([1, 2])], Objective({1: 2, 2: 2})
        )
        assert count_optimal(instance) == 2

    def test_every_solve_keeps_the_callers_options(self, monkeypatch):
        seen = []

        class RecordingSolver(BsoloSolver):
            def __init__(self, instance, options=None, **kwargs):
                seen.append((options.lower_bound, options.preprocess))
                super().__init__(instance, options, **kwargs)

        monkeypatch.setattr(enumeration, "BsoloSolver", RecordingSolver)
        instance = PBInstance(
            [Constraint.clause([1, 2])], Objective({1: 2, 2: 2})
        )
        options = SolverOptions(lower_bound="mis", preprocess=False)
        assert len(list(enumerate_optimal(instance, options))) == 2
        assert len(seen) >= 2
        assert set(seen) == {("mis", False)}

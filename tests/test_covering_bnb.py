"""Tests for the classical covering branch-and-bound solver."""

import pytest

from repro.baselines import BruteForceSolver, CoveringBnBSolver
from repro.core import OPTIMAL, SATISFIABLE, UNKNOWN, UNSATISFIABLE, SolverOptions
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


class TestBasics:
    def test_requires_covering(self):
        general = PBInstance([Constraint.greater_equal([(2, 1), (1, 2)], 2)])
        with pytest.raises(ValueError):
            CoveringBnBSolver(general)

    def test_optimum(self):
        result = CoveringBnBSolver(covering_instance()).solve()
        assert result.status == OPTIMAL
        assert result.best_cost == 4
        assert covering_instance().check(result.best_assignment)

    def test_unsat(self):
        instance = PBInstance(
            [
                Constraint.clause([1, 2]),
                Constraint.clause([-1, 2]),
                Constraint.clause([1, -2]),
                Constraint.clause([-1, -2]),
            ]
        )
        result = CoveringBnBSolver(instance).solve()
        assert result.status == UNSATISFIABLE

    def test_satisfaction(self):
        instance = PBInstance([Constraint.clause([1, -2])])
        result = CoveringBnBSolver(instance).solve()
        assert result.status == SATISFIABLE
        assert instance.check(result.best_assignment)

    def test_binate_instance(self):
        instance = PBInstance(
            [
                Constraint.clause([1, 2]),
                Constraint.clause([-1, 3]),
                Constraint.clause([-2, -3]),
            ],
            Objective({1: 1, 2: 1, 3: 5}),
        )
        expected = BruteForceSolver(instance).solve()
        result = CoveringBnBSolver(instance).solve()
        assert result.best_cost == expected.best_cost

    def test_stats_populated(self):
        solver = CoveringBnBSolver(covering_instance())
        result = solver.solve()
        assert result.stats.lower_bound_calls >= 1
        assert result.stats.elapsed >= 0


class TestBudgets:
    def test_node_limit(self):
        result = CoveringBnBSolver(
            covering_instance(), SolverOptions(max_decisions=0)
        ).solve()
        assert result.status in (UNKNOWN, OPTIMAL)

    def test_time_limit(self):
        result = CoveringBnBSolver(
            covering_instance(), SolverOptions(time_limit=0.0)
        ).solve()
        assert result.status in (UNKNOWN, OPTIMAL)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_covering(self, seed):
        import random

        rng = random.Random(2500 + seed)
        n = rng.randint(3, 7)
        constraints = []
        for _ in range(rng.randint(2, 9)):
            variables = rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))
            constraints.append(
                Constraint.clause(
                    [v if rng.random() < 0.65 else -v for v in variables]
                )
            )
        instance = PBInstance(
            constraints,
            Objective({v: rng.randint(0, 5) for v in range(1, n + 1)}),
            num_variables=n,
        )
        expected = BruteForceSolver(instance).solve()
        result = CoveringBnBSolver(instance).solve()
        assert result.status == expected.status
        if expected.best_cost is not None:
            assert result.best_cost == expected.best_cost
            assert instance.check(result.best_assignment)

    def test_against_bsolo_on_generated_covering(self):
        from repro.benchgen import generate_covering
        from repro.core import solve

        instance = generate_covering(
            minterms=25, implicants=14, density=0.2, max_cost=25, seed=9
        )
        classical = CoveringBnBSolver(instance, SolverOptions(time_limit=30.0)).solve()
        modern = solve(instance, SolverOptions(lower_bound="lpr", time_limit=30.0))
        assert classical.solved and modern.solved
        assert classical.best_cost == modern.best_cost

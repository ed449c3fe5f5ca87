"""Tests for the comparator solvers (PBS-like, Galena-like, CPLEX-like)."""

import pytest

from repro.baselines import (
    BruteForceSolver,
    CuttingPlanesSolver,
    DecisionSearch,
    LinearSearchSolver,
    MILPSolver,
    cardinality_reduction,
)
from repro.core import OPTIMAL, SATISFIABLE, UNKNOWN, UNSATISFIABLE, SolverOptions
from repro.pb import Constraint, Objective, PBInstance

SOLVERS = [LinearSearchSolver, CuttingPlanesSolver, MILPSolver]


def covering_instance():
    return PBInstance(
        [
            Constraint.clause([1, 2]),
            Constraint.clause([2, 3]),
            Constraint.clause([1, 3]),
        ],
        Objective({1: 3, 2: 2, 3: 2}),
    )


def unsat_instance():
    return PBInstance(
        [
            Constraint.clause([1, 2]),
            Constraint.clause([-1, 2]),
            Constraint.clause([1, -2]),
            Constraint.clause([-1, -2]),
        ]
    )


class TestDecisionSearch:
    def test_sat(self):
        search = DecisionSearch(2)
        search.add_constraint(Constraint.clause([1, 2]))
        outcome, model = search.solve()
        assert outcome == "sat"
        assert model[1] == 1 or model[2] == 1

    def test_unsat(self):
        search = DecisionSearch(2)
        for constraint in unsat_instance().constraints:
            search.add_constraint(constraint)
        outcome, model = search.solve()
        assert outcome == "unsat" and model is None

    def test_incremental_tightening(self):
        search = DecisionSearch(2)
        search.add_constraint(Constraint.clause([1, 2]))
        outcome, model = search.solve()
        assert outcome == "sat"
        # forbid the model, ask again
        forbid = Constraint.clause(
            [-v if model[v] == 1 else v for v in (1, 2)]
        )
        search.add_constraint(forbid)
        outcome2, model2 = search.solve()
        assert outcome2 == "sat"
        assert model2 != model

    def test_conflict_budget(self):
        search = DecisionSearch(2)
        for constraint in unsat_instance().constraints:
            search.add_constraint(constraint)
        # budget may stop the search early; whichever happens it must not
        # report SAT
        outcome, _ = search.solve(max_conflicts=0)
        assert outcome in ("unsat", "stopped")


class TestCardinalityReduction:
    def test_reduces_general_constraint(self):
        constraint = Constraint.greater_equal([(3, 1), (2, 2), (1, 3)], 4)
        reduced = cardinality_reduction(constraint)
        assert reduced is not None
        assert reduced.is_cardinality
        assert reduced.cardinality_threshold == 2

    def test_reduction_is_implied(self):
        import itertools

        constraint = Constraint.greater_equal([(3, 1), (2, 2), (2, 3), (1, 4)], 5)
        reduced = cardinality_reduction(constraint)
        assert reduced is not None
        for bits in itertools.product((0, 1), repeat=4):
            assignment = {v: bits[v - 1] for v in range(1, 5)}
            if constraint.is_satisfied_by(assignment):
                assert reduced.is_satisfied_by(assignment)

    def test_cardinality_input_skipped(self):
        assert cardinality_reduction(Constraint.at_least([1, 2, 3], 2)) is None

    def test_vacuous_skipped(self):
        clause = Constraint.clause([1, 2])
        assert cardinality_reduction(clause) is None


class TestBaselineCorrectness:
    @pytest.mark.parametrize("solver_cls", SOLVERS)
    def test_covering_optimum(self, solver_cls):
        result = solver_cls(covering_instance()).solve()
        assert result.status == OPTIMAL
        assert result.best_cost == 4

    @pytest.mark.parametrize("solver_cls", SOLVERS)
    def test_unsat(self, solver_cls):
        result = solver_cls(unsat_instance()).solve()
        assert result.status == UNSATISFIABLE

    @pytest.mark.parametrize("solver_cls", SOLVERS)
    def test_satisfaction(self, solver_cls):
        instance = PBInstance([Constraint.clause([1, 2]), Constraint.clause([-1, 2])])
        result = solver_cls(instance).solve()
        assert result.status == SATISFIABLE
        assert instance.check(result.best_assignment)

    @pytest.mark.parametrize("solver_cls", SOLVERS)
    @pytest.mark.parametrize("seed", range(10))
    def test_random_against_brute_force(self, solver_cls, seed):
        import random

        rng = random.Random(1000 + seed)
        n = rng.randint(3, 6)
        constraints = []
        for _ in range(rng.randint(2, 7)):
            size = rng.randint(1, min(4, n))
            variables = rng.sample(range(1, n + 1), size)
            terms = [
                (rng.randint(1, 4), v if rng.random() < 0.6 else -v)
                for v in variables
            ]
            rhs = rng.randint(1, max(1, sum(c for c, _ in terms)))
            constraint = Constraint.greater_equal(terms, rhs)
            if not constraint.is_tautology and not constraint.is_unsatisfiable:
                constraints.append(constraint)
        objective = Objective({v: rng.randint(0, 6) for v in range(1, n + 1)})
        try:
            instance = PBInstance(constraints, objective, num_variables=n)
        except ValueError:
            pytest.skip("degenerate draw")
        expected = BruteForceSolver(instance).solve()
        result = solver_cls(instance).solve()
        assert result.solved
        if expected.status == UNSATISFIABLE:
            assert result.status == UNSATISFIABLE
        else:
            assert result.best_cost == expected.best_cost
            assert instance.check(result.best_assignment)


class TestBudgets:
    @pytest.mark.parametrize(
        "solver_cls", [LinearSearchSolver, CuttingPlanesSolver]
    )
    def test_time_limit(self, solver_cls):
        result = solver_cls(covering_instance(), SolverOptions(time_limit=0.0)).solve()
        assert result.status in (UNKNOWN, OPTIMAL)

    def test_milp_node_limit(self):
        result = MILPSolver(covering_instance(), SolverOptions(max_decisions=1)).solve()
        assert result.status in (UNKNOWN, OPTIMAL)

    def test_milp_time_limit(self):
        result = MILPSolver(covering_instance(), SolverOptions(time_limit=0.0)).solve()
        assert result.status in (UNKNOWN, OPTIMAL)

    def test_milp_stops_inside_a_node_lp(self, monkeypatch):
        """milp polls its deadline and should_stop inside a node's LP: a
        stop that fires on the second poll (the first is the node loop's)
        ends the root LP early, and the open root makes the answer
        UNKNOWN, not a claim."""
        from repro.baselines import milp as milp_module
        from repro.benchgen import generate_scheduling

        pivots = []

        class CountingSimplex(milp_module.SimplexSolver):
            def solve(self):
                result = super().solve()
                pivots.append(result.iterations)
                return result

        monkeypatch.setattr(milp_module, "SimplexSolver", CountingSimplex)
        instance = generate_scheduling(teams=6, seed=1997)
        full = MILPSolver(instance).solve()
        assert full.status == SATISFIABLE and len(pivots) == 1
        full_pivots = pivots.pop()
        polls = []

        def stop_on_second_poll():
            polls.append(None)
            return len(polls) >= 2

        result = MILPSolver(
            instance, SolverOptions(should_stop=stop_on_second_poll)
        ).solve()
        assert result.status == UNKNOWN and result.stats.interrupted
        assert result.best_assignment is None
        assert len(pivots) == 1 and len(polls) == 2
        assert pivots[0] < full_pivots


class TestBruteForce:
    def test_caps_variables(self):
        instance = PBInstance([], num_variables=30)
        with pytest.raises(ValueError):
            BruteForceSolver(instance)

    def test_satisfaction_short_circuit(self):
        instance = PBInstance([Constraint.clause([1, 2])])
        result = BruteForceSolver(instance).solve()
        assert result.status == SATISFIABLE

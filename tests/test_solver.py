"""Integration tests for the bsolo solver."""

import pytest

from repro.baselines.brute_force import BruteForceSolver, brute_force_optimum
from repro.benchgen import generate_covering, generate_routing
from repro.core import (
    BsoloSolver,
    OPTIMAL,
    SATISFIABLE,
    SolverOptions,
    UNKNOWN,
    UNSATISFIABLE,
    solve,
)
from repro.pb import Constraint, Objective, PBInstance, PBModel

ALL_METHODS = ["plain", "mis", "lgr", "lpr"]


def covering_instance():
    """min 3a + 2b + 2c, clauses (a|b), (b|c), (a|c); optimum 4."""
    return PBInstance(
        [
            Constraint.clause([1, 2]),
            Constraint.clause([2, 3]),
            Constraint.clause([1, 3]),
        ],
        Objective({1: 3, 2: 2, 3: 2}),
    )


class TestBasicSolves:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_covering_optimum(self, method):
        result = solve(covering_instance(), SolverOptions(lower_bound=method))
        assert result.status == OPTIMAL
        assert result.best_cost == 4
        assert covering_instance().check(result.best_assignment)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_satisfaction_instance(self, method):
        instance = PBInstance(
            [Constraint.clause([1, 2]), Constraint.clause([-1, 2])]
        )
        result = solve(instance, SolverOptions(lower_bound=method))
        assert result.status == SATISFIABLE
        assert instance.check(result.best_assignment)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_unsatisfiable(self, method):
        instance = PBInstance(
            [
                Constraint.clause([1, 2]),
                Constraint.clause([-1, 2]),
                Constraint.clause([1, -2]),
                Constraint.clause([-1, -2]),
            ]
        )
        result = solve(instance, SolverOptions(lower_bound=method))
        assert result.status == UNSATISFIABLE

    def test_zero_cost_solution_is_optimal(self):
        instance = PBInstance([Constraint.clause([-1, 2])], Objective({1: 5}))
        result = solve(instance)
        assert result.status == OPTIMAL
        assert result.best_cost == 0

    def test_empty_instance(self):
        instance = PBInstance([], Objective({1: 3}), num_variables=1)
        result = solve(instance)
        assert result.status == OPTIMAL
        assert result.best_cost == 0

    def test_forced_cost(self):
        instance = PBInstance([Constraint.clause([1])], Objective({1: 7}))
        result = solve(instance)
        assert result.status == OPTIMAL and result.best_cost == 7

    def test_objective_offset_reported(self):
        model = PBModel()
        x = model.new_variable("x")
        model.add_clause([x])
        model.minimize([(2, x), (3, -x)])  # 3*~x folds into offset
        result = solve(model.build())
        assert result.status == OPTIMAL
        assert result.best_cost == 2  # x must be 1: cost 2 + 0

    def test_general_pb_constraints(self):
        # 2a + 3b + 4c >= 5, minimize a + 10b + 3c: best is a=0,b=0? needs
        # >=5: c alone gives 4 < 5; a+c = 6 >= 5 cost 4; b+c = 7 cost 13;
        # a+b = 5 cost 11 -> optimum 4
        instance = PBInstance(
            [Constraint.greater_equal([(2, 1), (3, 2), (4, 3)], 5)],
            Objective({1: 1, 2: 10, 3: 3}),
        )
        for method in ALL_METHODS:
            result = solve(instance, SolverOptions(lower_bound=method))
            assert result.status == OPTIMAL
            assert result.best_cost == 4


class TestAgainstBruteForce:
    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("seed", range(15))
    def test_random_instances(self, method, seed):
        import random

        rng = random.Random(seed * 17 + 3)
        n = rng.randint(3, 7)
        constraints = []
        for _ in range(rng.randint(2, 8)):
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
        objective = Objective(
            {v: rng.randint(0, 6) for v in range(1, n + 1)}
        )
        try:
            instance = PBInstance(constraints, objective, num_variables=n)
        except ValueError:
            pytest.skip("degenerate draw")
        expected = BruteForceSolver(instance).solve()
        result = solve(instance, SolverOptions(lower_bound=method))
        assert result.solved
        if expected.status == UNSATISFIABLE:
            assert result.status == UNSATISFIABLE
        else:
            assert result.status == OPTIMAL
            assert result.best_cost == expected.best_cost
            assert instance.check(result.best_assignment)
            assert instance.cost(result.best_assignment) == expected.best_cost


class TestOptionVariants:
    def test_no_bound_conflict_learning(self):
        options = SolverOptions(lower_bound="lpr", bound_conflict_learning=False)
        result = solve(covering_instance(), options)
        assert result.status == OPTIMAL and result.best_cost == 4

    def test_no_cuts(self):
        options = SolverOptions(
            lower_bound="plain", upper_bound_cuts=False, cardinality_cuts=False
        )
        result = solve(covering_instance(), options)
        assert result.status == OPTIMAL and result.best_cost == 4

    def test_no_preprocess(self):
        options = SolverOptions(preprocess=False)
        result = solve(covering_instance(), options)
        assert result.status == OPTIMAL and result.best_cost == 4

    def test_vsids_branching_only(self):
        options = SolverOptions(lower_bound="lpr", lp_guided_branching=False)
        result = solve(covering_instance(), options)
        assert result.status == OPTIMAL and result.best_cost == 4

    @pytest.mark.parametrize(
        "technique,instance,factor",
        [
            # Section 4: learn w_bc and backjump, against blaming every
            # decision and stepping back one level
            (
                "bound_conflict_learning",
                generate_covering(
                    minterms=40, implicants=22, density=0.15, max_cost=30, seed=5
                ),
                2,
            ),
            # Section 5: branch on the most fractional route selector,
            # against VSIDS alone
            (
                "lp_guided_branching",
                generate_routing(
                    rows=5, cols=5, nets=8, capacity=2, detours=3, seed=21
                ),
                3,
            ),
        ],
        ids=["ncb", "lp-branching"],
    )
    def test_technique_does_not_blow_up_decisions(self, technique, instance, factor):
        decisions = {}
        for enabled in (True, False):
            options = SolverOptions(
                lower_bound="lpr", time_limit=10.0, **{technique: enabled}
            )
            solver = BsoloSolver(instance, options)
            assert solver.solve().status == OPTIMAL
            decisions[enabled] = solver.stats.decisions
        assert decisions[True] <= factor * decisions[False]

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            SolverOptions(lower_bound="simplex")


class TestBudgets:
    def test_decision_budget_times_out(self):
        # A chain of 12 queens-ish clauses that needs some search.
        model = PBModel()
        variables = [model.new_variable() for _ in range(12)]
        for i in range(0, 12, 3):
            model.add_exactly(variables[i : i + 3], 1)
        model.minimize([(i + 1, v) for i, v in enumerate(variables)])
        options = SolverOptions(lower_bound="plain", max_decisions=1)
        result = solve(model.build(), options)
        assert result.status in (UNKNOWN, OPTIMAL)

    def test_time_limit_zero(self):
        options = SolverOptions(time_limit=0.0)
        result = solve(covering_instance(), options)
        # either solved instantly before the first budget check, or unknown
        assert result.status in (UNKNOWN, OPTIMAL)

    def test_conflict_budget(self):
        options = SolverOptions(lower_bound="plain", max_conflicts=0)
        result = solve(covering_instance(), options)
        assert result.status in (UNKNOWN, OPTIMAL)

    def test_unknown_reports_incumbent(self):
        model = PBModel()
        variables = [model.new_variable() for _ in range(16)]
        for i in range(0, 16, 4):
            model.add_exactly(variables[i : i + 4], 2)
        model.minimize([((i % 5) + 1, v) for i, v in enumerate(variables)])
        options = SolverOptions(lower_bound="plain", max_conflicts=2)
        result = solve(model.build(), options)
        if result.status == UNKNOWN and result.best_cost is not None:
            assert result.table_entry().startswith("ub ")


class TestStats:
    def test_stats_populated(self):
        solver = BsoloSolver(covering_instance(), SolverOptions(lower_bound="lpr"))
        result = solver.solve()
        assert result.stats.elapsed >= 0
        assert result.stats.solutions_found >= 1
        assert result.stats.lower_bound_calls >= 1

    def test_bound_conflicts_counted_with_lpr(self):
        # A covering instance large enough to trigger pruning.
        constraints = [
            Constraint.clause([1, 2]),
            Constraint.clause([3, 4]),
            Constraint.clause([5, 6]),
            Constraint.clause([1, 6]),
            Constraint.clause([2, 5]),
        ]
        instance = PBInstance(
            constraints, Objective({v: v for v in range(1, 7)})
        )
        solver = BsoloSolver(instance, SolverOptions(lower_bound="lpr"))
        result = solver.solve()
        assert result.status == OPTIMAL
        # the solver must at least have estimated bounds
        assert result.stats.lower_bound_calls >= 1

    def test_propagations_counted_without_logic_conflicts(self):
        # solved to optimality through implications and cuts alone: no
        # logic conflict ever syncs the count mid-search
        instance = PBInstance(
            [Constraint.at_least([1, 2, 3], 2)], Objective({1: 1, 2: 2, 3: 3})
        )
        solver = BsoloSolver(instance, SolverOptions())
        result = solver.solve()
        assert (result.status, result.best_cost) == (OPTIMAL, 3)
        assert result.stats.logic_conflicts == 0
        assert result.stats.propagations == solver._propagator.num_propagations
        assert result.stats.propagations > 0

    def test_plain_makes_no_lb_calls(self):
        solver = BsoloSolver(covering_instance(), SolverOptions(lower_bound="plain"))
        solver.solve()
        assert solver.stats.lower_bound_calls == 0

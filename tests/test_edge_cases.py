"""Regression tests for subtle edge cases across the stack."""

import pytest

from repro.baselines import BruteForceSolver, MILPSolver
from repro.core import SolverOptions, SolverStats, solve
from repro.core.result import SolveResult, UNKNOWN
from repro.experiments import RunRecord
from repro.lp import build_lp_data
from repro.pb import Constraint, Objective, PBInstance


class TestZeroFillRows:
    """build_lp_data's 'satisfied' flag means satisfied-by-zero-fill; the
    MILP baseline's completions must stay consistent with it."""

    def test_negative_literal_before_fixed_true(self):
        # 2~x1 + x2 >= 2 with x2 = 1: remaining requirement 2~x1 >= 1,
        # i.e. x1 must be 0 -- exactly what zero-fill produces.
        instance = PBInstance(
            [Constraint.greater_equal([(2, -1), (1, 2)], 2)],
            Objective({1: 1, 2: 1}),
        )
        data = build_lp_data(instance, fixed={2: 1})
        if data is not None and data.num_rows == 0:
            # the dropped row must be satisfied by zero-fill
            assert instance.check({1: 0, 2: 1})

    def test_milp_zero_fill_feasible(self):
        instance = PBInstance(
            [
                Constraint.greater_equal([(2, -1), (1, 2)], 2),
                Constraint.clause([2, 3]),
            ],
            Objective({1: 4, 2: 1, 3: 1}),
        )
        expected = BruteForceSolver(instance).solve()
        result = MILPSolver(instance).solve()
        assert result.status == expected.status
        assert result.best_cost == expected.best_cost
        assert instance.check(result.best_assignment)

    @pytest.mark.parametrize("seed", range(10))
    def test_milp_negative_heavy_instances(self, seed):
        import random

        rng = random.Random(3100 + seed)
        n = rng.randint(3, 6)
        constraints = []
        for _ in range(rng.randint(2, 7)):
            variables = rng.sample(range(1, n + 1), rng.randint(1, n))
            # negation-heavy: stresses the ~x -> 1-x bookkeeping
            terms = [
                (rng.randint(1, 4), -v if rng.random() < 0.7 else v)
                for v in variables
            ]
            constraint = Constraint.greater_equal(
                terms, rng.randint(1, sum(c for c, _ in terms))
            )
            if not constraint.is_tautology and not constraint.is_unsatisfiable:
                constraints.append(constraint)
        if not constraints:
            pytest.skip("degenerate draw")
        instance = PBInstance(
            constraints,
            Objective({v: rng.randint(0, 5) for v in range(1, n + 1)}),
            num_variables=n,
        )
        expected = BruteForceSolver(instance).solve()
        result = MILPSolver(instance).solve()
        assert result.status == expected.status
        if expected.best_cost is not None:
            assert result.best_cost == expected.best_cost
            assert instance.check(result.best_assignment)

    @pytest.mark.parametrize(
        "family, seed, optimum",
        [
            ("grout", 5002095, 19),
            ("grout", 6002018, 17),
            ("planted", 9301, None),
            ("planted", 9406, None),
            ("planted", 9546, None),
        ],
    )
    def test_milp_integral_point_violating_dropped_row(self, family, seed, optimum):
        # Each input reaches a node whose integral LP optimum sets the
        # variable of a free negated literal to 1 and so violates a row
        # build_lp_data dropped; milp must branch there, not discard the
        # node with its subtree.
        from repro.benchgen import generate_planted, generate_routing

        if family == "grout":
            instance = generate_routing(
                rows=3, cols=3, nets=7, capacity=2, detours=5, seed=seed
            )
        else:
            instance, _ = generate_planted(10, 16, 3, seed=seed)
            optimum = BruteForceSolver(instance).solve().best_cost
        result = MILPSolver(instance).solve()
        assert result.status == "optimal"
        assert result.best_cost == optimum
        assert instance.check(result.best_assignment)


class TestReportingEdges:
    def test_unknown_without_incumbent_is_time(self):
        record = RunRecord("x", "inst", SolveResult(UNKNOWN), 1.0)
        assert record.cell() == "time"
        assert not record.solved

    def test_unknown_with_incumbent_is_ub(self):
        record = RunRecord("x", "inst", SolveResult(UNKNOWN, best_cost=7), 1.0)
        assert record.cell() == "ub 7"

    def test_run_record_repr(self):
        record = RunRecord("x", "inst", SolveResult(UNKNOWN), 1.0)
        assert "inst" in repr(record)

    def test_stats_repr_and_backjumps(self):
        stats = SolverStats()
        stats.record_backjump(5, 2)
        stats.record_backjump(3, 2)
        assert stats.backjump_total == 4
        assert stats.backjump_max == 3
        assert "decisions" in repr(stats)

    def test_result_table_entry_variants(self):
        assert SolveResult("optimal", best_cost=3).table_entry() == "optimal"
        assert SolveResult(UNKNOWN, best_cost=3).table_entry() == "ub 3"
        assert SolveResult(UNKNOWN).table_entry() == "time"


class TestOptionFactories:
    def test_named_constructors(self):
        assert SolverOptions.plain().lower_bound == "plain"
        assert SolverOptions.with_mis().lower_bound == "mis"
        assert SolverOptions.with_lgr().lower_bound == "lgr"
        assert SolverOptions.with_lpr().lower_bound == "lpr"

    def test_repr(self):
        assert "lpr" in repr(SolverOptions())


class TestWeirdInstances:
    def test_all_variables_unconstrained(self):
        instance = PBInstance([], Objective({1: 4, 2: 1}), num_variables=3)
        result = solve(instance)
        assert result.best_cost == 0

    def test_single_variable_forced_both_ways(self):
        instance = PBInstance(
            [Constraint.clause([1]), Constraint.clause([-1])]
        )
        result = solve(instance)
        assert result.status == "unsatisfiable"

    def test_huge_coefficients(self):
        instance = PBInstance(
            [Constraint.greater_equal([(10**9, 1), (1, 2)], 10**9)],
            Objective({1: 10**6, 2: 1}),
        )
        result = solve(instance)
        assert result.status == "optimal"
        # x1 = 1 satisfies alone at cost 10**6; x2 = 1 alone cannot reach
        assert result.best_cost == 10**6

    def test_duplicate_constraints(self):
        clause = Constraint.clause([1, 2])
        instance = PBInstance([clause, clause, clause], Objective({1: 1, 2: 2}))
        result = solve(instance)
        assert result.best_cost == 1

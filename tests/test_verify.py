"""Tests for independent result verification."""

import pytest

from repro.core import (
    BsoloSolver,
    SolveResult,
    SolverOptions,
    VerificationError,
    VerifyOutcome,
    solve,
    verify_result,
)
from repro.core.result import OPTIMAL, SATISFIABLE, UNKNOWN, UNSATISFIABLE
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


class TestHappyPaths:
    def test_optimal_verifies(self):
        instance = covering_instance()
        result = solve(instance)
        outcome = verify_result(instance, result)
        assert outcome
        assert outcome.verified
        assert outcome.status == VerifyOutcome.VERIFIED
        assert "optimality" in outcome.checks

    def test_satisfiable_verifies(self):
        instance = PBInstance([Constraint.clause([1, 2])])
        result = solve(instance)
        assert verify_result(instance, result)

    def test_unsat_verifies(self):
        instance = PBInstance(
            [
                Constraint.clause([1, 2]),
                Constraint.clause([-1, 2]),
                Constraint.clause([1, -2]),
                Constraint.clause([-1, -2]),
            ]
        )
        result = solve(instance)
        outcome = verify_result(instance, result)
        assert outcome.verified
        assert outcome.checks == ("unsatisfiability",)

    def test_zero_cost_optimum(self):
        instance = PBInstance([Constraint.clause([-1])], Objective({1: 5}))
        result = solve(instance)
        assert result.best_cost == 0
        assert verify_result(instance, result)

    def test_unknown_passes_with_feasibility_only(self):
        instance = covering_instance()
        fake = SolveResult(
            UNKNOWN, best_cost=5, best_assignment={1: 1, 2: 1, 3: 0}
        )
        assert verify_result(instance, fake)


class TestDetection:
    def test_infeasible_assignment_rejected(self):
        instance = covering_instance()
        fake = SolveResult(
            OPTIMAL, best_cost=2, best_assignment={1: 0, 2: 1, 3: 0}
        )
        with pytest.raises(VerificationError):
            verify_result(instance, fake)

    def test_wrong_cost_rejected(self):
        instance = covering_instance()
        fake = SolveResult(
            OPTIMAL, best_cost=3, best_assignment={1: 0, 2: 1, 3: 1}
        )
        with pytest.raises(VerificationError):
            verify_result(instance, fake)

    def test_suboptimal_claim_rejected(self):
        instance = covering_instance()
        # cost 7 solution claimed optimal; true optimum is 4
        fake = SolveResult(
            OPTIMAL, best_cost=7, best_assignment={1: 1, 2: 2 // 2, 3: 1}
        )
        fake.best_assignment = {1: 1, 2: 1, 3: 1}
        with pytest.raises(VerificationError):
            verify_result(instance, fake)

    def test_false_unsat_rejected(self):
        instance = covering_instance()
        fake = SolveResult(UNSATISFIABLE)
        with pytest.raises(VerificationError):
            verify_result(instance, fake)

    def test_missing_assignment_rejected(self):
        instance = covering_instance()
        fake = SolveResult(OPTIMAL, best_cost=4, best_assignment=None)
        with pytest.raises(VerificationError):
            verify_result(instance, fake)

    def test_partial_assignment_rejected(self):
        instance = covering_instance()
        fake = SolveResult(OPTIMAL, best_cost=4, best_assignment={2: 1})
        with pytest.raises(VerificationError):
            verify_result(instance, fake)


class TestCustomProver:
    def test_prover_injection(self):
        instance = covering_instance()
        result = solve(instance)

        def bsolo_prover(subinstance, time_limit):
            return BsoloSolver(
                subinstance, SolverOptions(lower_bound="mis", time_limit=time_limit)
            ).solve()

        assert verify_result(instance, result, prover=bsolo_prover)

    def test_prover_budget_exhaustion_reported_as_unverified(self):
        instance = covering_instance()
        result = solve(instance)

        def lazy_prover(subinstance, time_limit):
            return SolveResult(UNKNOWN)

        outcome = verify_result(instance, result, prover=lazy_prover)
        assert outcome  # truthy for back-compat: nothing failed
        assert not outcome.verified
        assert outcome.status == VerifyOutcome.UNVERIFIED
        assert "optimality" not in outcome.checks
        assert "feasibility" in outcome.checks
        assert "unknown" in outcome.detail

    def test_prover_budget_exhaustion_on_unsat_is_unverified(self):
        instance = PBInstance(
            [
                Constraint.clause([1, 2]),
                Constraint.clause([-1, 2]),
                Constraint.clause([1, -2]),
                Constraint.clause([-1, -2]),
            ]
        )
        result = solve(instance)

        def lazy_prover(subinstance, time_limit):
            return SolveResult(UNKNOWN)

        outcome = verify_result(instance, result, prover=lazy_prover)
        assert outcome
        assert not outcome.verified
        assert "unsatisfiability" in outcome.detail


class TestDifferential:
    """Differential fuzzing: every solver's verified on random instances."""

    @pytest.mark.parametrize("seed", range(10))
    def test_all_solvers_verified(self, seed):
        from repro.benchgen import generate_random
        from repro.experiments import SOLVER_NAMES, run_one

        instance = generate_random(
            num_variables=6, num_constraints=7, seed=900 + seed
        )
        for name in SOLVER_NAMES:
            record = run_one(
                name, instance, "fuzz", SolverOptions(time_limit=10.0)
            )
            assert record.solved, name
            outcome = verify_result(instance, record.result)
            # distinguish "checked and certified" from "prover gave up"
            assert outcome.verified, (name, outcome)

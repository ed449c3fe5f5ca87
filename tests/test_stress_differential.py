"""Differential stress tests: all solvers, all option mixes, one oracle.

Each case generates a random instance (general PB constraints, mixed
polarities, occasional zero-cost variables), solves it with every
registered solver and several bsolo option combinations, and checks every
conclusive answer against the brute-force oracle and the independent
verifier.
"""

import random

import pytest

from repro.baselines import BruteForceSolver
from repro.benchgen import generate_planted, generate_random
from repro.core import (
    BsoloSolver,
    SolverOptions,
    UNSATISFIABLE,
    verify_result,
)
from repro.experiments import SOLVER_NAMES, run_one
from repro.pb import Constraint, Objective, PBInstance

OPTION_MIXES = [
    {"lower_bound": "lgr", "lgr_alpha_refinement": False},
    {"lower_bound": "lpr", "lp_guided_branching": False, "preprocess": False},
    {"lower_bound": "mis", "max_learned": 3},
    {"lower_bound": "plain", "upper_bound_cuts": False, "cardinality_cuts": False},
    {"lower_bound": "lpr", "bound_conflict_learning": False},
]


def random_instance(seed):
    rng = random.Random(seed)
    return generate_random(
        num_variables=rng.randint(4, 8),
        num_constraints=rng.randint(3, 10),
        max_arity=rng.randint(2, 5),
        max_coefficient=rng.randint(1, 5),
        max_cost=rng.randint(0, 8),
        negation_probability=rng.random() * 0.6,
        seed=seed,
    )


class TestAllSolversDifferential:
    @pytest.mark.parametrize("seed", range(20))
    def test_registry_vs_oracle(self, seed):
        instance = random_instance(2000 + seed)
        oracle = BruteForceSolver(instance).solve()
        for name in SOLVER_NAMES:
            record = run_one(
                name, instance, "stress", SolverOptions(time_limit=20.0)
            )
            assert record.solved, (name, seed)
            if oracle.status == UNSATISFIABLE:
                assert record.result.status == UNSATISFIABLE, (name, seed)
            else:
                assert record.result.best_cost == oracle.best_cost, (name, seed)


class TestOptionMixesDifferential:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("mix", range(len(OPTION_MIXES)))
    def test_option_mix_vs_oracle(self, seed, mix):
        instance = random_instance(3000 + seed)
        oracle = BruteForceSolver(instance).solve()
        options = SolverOptions(**OPTION_MIXES[mix])
        result = BsoloSolver(instance, options).solve()
        assert result.solved, (mix, seed)
        if oracle.status == UNSATISFIABLE:
            assert result.status == UNSATISFIABLE, (mix, seed)
        else:
            assert result.best_cost == oracle.best_cost, (mix, seed)
            assert instance.check(result.best_assignment)


class TestClauseOnlyDifferential:
    """Clause-only instances (binate covering): bsolo's default search
    against the oracle."""

    @pytest.mark.parametrize("seed", range(8))
    def test_clause_only_vs_oracle(self, seed):
        rng = random.Random(400 + seed)
        n = rng.randint(4, 7)
        constraints = []
        for _ in range(rng.randint(3, 9)):
            variables = rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))
            constraints.append(
                Constraint.clause(
                    [v if rng.random() < 0.6 else -v for v in variables]
                )
            )
        instance = PBInstance(
            constraints,
            Objective({v: rng.randint(0, 5) for v in range(1, n + 1)}),
            num_variables=n,
        )
        assert instance.is_covering
        oracle = BruteForceSolver(instance).solve()
        result = BsoloSolver(instance, SolverOptions()).solve()
        assert result.status == oracle.status
        if oracle.best_cost is not None:
            assert result.best_cost == oracle.best_cost
            assert instance.check(result.best_assignment)


class TestPlantedInstances:
    @pytest.mark.parametrize("seed", range(10))
    def test_planted_always_solved(self, seed):
        instance, witness = generate_planted(
            num_variables=8, num_constraints=10, seed=seed
        )
        result = BsoloSolver(instance, SolverOptions(lower_bound="lpr")).solve()
        assert result.is_optimal
        assert result.best_cost <= instance.cost(witness)
        outcome = verify_result(instance, result)
        # surface prover-budget exhaustion distinctly from a real pass
        assert outcome.verified, outcome


class TestSatisfactionStress:
    @pytest.mark.parametrize("seed", range(10))
    def test_satisfaction_instances(self, seed):
        instance = generate_random(
            num_variables=7, num_constraints=9, satisfaction_only=True,
            seed=4000 + seed,
        )
        oracle = BruteForceSolver(instance).solve()
        for options in (
            SolverOptions(),
            SolverOptions(preprocess=False, max_learned=2),
        ):
            result = BsoloSolver(instance, options).solve()
            assert result.status == oracle.status
            if result.best_assignment is not None:
                assert instance.check(result.best_assignment)

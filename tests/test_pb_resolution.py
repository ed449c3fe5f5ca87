"""Tests for cutting-plane resolution and the galena baseline's PB
learning."""

import itertools

import pytest

from repro.baselines import (
    BruteForceSolver,
    CuttingPlanesSolver,
    LinearSearchSolver,
)
from repro.core import SolverOptions
from repro.engine.pb_resolution import (
    MAX_LITERALS,
    cardinality_reduction,
    derive_resolvent,
    resolve,
)
from repro.pb import Constraint, Objective, PBInstance


def implied_by(antecedents, candidate, n):
    """Exhaustively check: every model of all antecedents satisfies
    candidate."""
    for bits in itertools.product((0, 1), repeat=n):
        assignment = {v: bits[v - 1] for v in range(1, n + 1)}
        if all(c.is_satisfied_by(assignment) for c in antecedents):
            if not candidate.is_satisfied_by(assignment):
                return False
    return True


class TestResolve:
    def test_clausal_resolution(self):
        c1 = Constraint.clause([1, 2])
        c2 = Constraint.clause([-1, 3])
        resolvent = resolve(c1, c2, 1)
        assert resolvent == Constraint.clause([2, 3])

    def test_pb_resolution_cancels_variable(self):
        c1 = Constraint.greater_equal([(2, 1), (3, 2)], 3)
        c2 = Constraint.greater_equal([(3, -1), (1, 3)], 3)
        resolvent = resolve(c1, c2, 1)
        assert resolvent is not None
        assert 1 not in [abs(l) for l in resolvent.literals]

    def test_resolvent_implied(self):
        c1 = Constraint.greater_equal([(2, 1), (3, 2), (1, 3)], 3)
        c2 = Constraint.greater_equal([(2, -1), (2, 3)], 2)
        resolvent = resolve(c1, c2, 1)
        assert resolvent is not None
        assert implied_by([c1, c2], resolvent, 3)

    def test_same_polarity_returns_none(self):
        c1 = Constraint.clause([1, 2])
        c2 = Constraint.clause([1, 3])
        assert resolve(c1, c2, 1) is None

    def test_missing_variable_returns_none(self):
        c1 = Constraint.clause([1, 2])
        c2 = Constraint.clause([-3, 4])
        assert resolve(c1, c2, 1) is None

    def test_multiplier_scaling(self):
        # coefficients 2 and 3 on x1: multipliers 3 and 2
        c1 = Constraint.greater_equal([(2, 1), (5, 2)], 5)
        c2 = Constraint.greater_equal([(3, -1), (5, 3)], 5)
        resolvent = resolve(c1, c2, 1)
        assert resolvent is not None
        assert implied_by([c1, c2], resolvent, 3)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_resolvents_implied(self, seed):
        import random

        rng = random.Random(seed)
        n = 4
        pivot = rng.randint(1, n)

        def random_constraint(pivot_literal):
            terms = [(rng.randint(1, 4), pivot_literal)]
            for var in range(1, n + 1):
                if var == abs(pivot_literal):
                    continue
                if rng.random() < 0.6:
                    terms.append(
                        (rng.randint(1, 4), var if rng.random() < 0.5 else -var)
                    )
            rhs = rng.randint(1, sum(c for c, _ in terms))
            return Constraint.greater_equal(terms, rhs)

        c1 = random_constraint(pivot)
        c2 = random_constraint(-pivot)
        if c1.is_tautology or c2.is_tautology:
            return
        if c1.coefficient(pivot) == 0 or c2.coefficient(-pivot) == 0:
            return  # saturation/cancellation removed the pivot
        resolvent = resolve(c1, c2, pivot)
        if resolvent is not None:
            assert implied_by([c1, c2], resolvent, n)


class TestCardinalityReduction:
    def test_moved_from_baselines(self):
        from repro.baselines import cardinality_reduction as alias

        assert alias is cardinality_reduction

    def test_reduction_implied(self):
        constraint = Constraint.greater_equal([(3, 1), (2, -2), (2, 3), (1, 4)], 5)
        reduced = cardinality_reduction(constraint)
        assert reduced is not None
        assert implied_by([constraint], reduced, 4)


class TestDeriveResolvent:
    def test_simple_chain(self):
        # conflict: 2a + b >= 2 with reason for a: 3~a... build manually
        conflict = Constraint.greater_equal([(2, 1), (1, 2), (1, 3)], 3)
        reason = Constraint.greater_equal([(2, -1), (1, 4)], 2)
        antecedents = {1: reason}
        resolvent = derive_resolvent(
            conflict, [1], lambda var: antecedents.get(var)
        )
        if resolvent is not None:
            assert implied_by([conflict, reason], resolvent, 4)

    def test_missing_antecedent_aborts(self):
        conflict = Constraint.greater_equal([(2, 1), (1, 2)], 2)
        assert derive_resolvent(conflict, [1], lambda var: None) is None

    def test_cancelled_variable_skipped(self):
        conflict = Constraint.greater_equal([(2, 1), (1, 2)], 2)
        # var 5 never occurs: step skipped, then the clause filter kicks in
        result = derive_resolvent(conflict, [5], lambda var: None)
        # conflict itself is not a clause and survives untouched
        assert result == conflict

    def test_clause_result_filtered(self):
        conflict = Constraint.clause([1, 2])
        assert derive_resolvent(conflict, [], lambda var: None) is None


class TestSolverWithPBLearning:
    """The galena baseline (``cutting-planes``) learns a cutting-plane
    resolvent next to each first-UIP clause."""

    def general_instance(self):
        return PBInstance(
            [
                Constraint.greater_equal([(3, 1), (2, 2), (2, 3)], 4),
                Constraint.greater_equal([(2, -1), (3, -2), (1, 4)], 3),
                Constraint.greater_equal([(1, 1), (1, -3), (2, -4)], 2),
            ],
            Objective({1: 2, 2: 3, 3: 1, 4: 2}),
        )

    def test_same_optimum_with_pb_learning(self):
        instance = self.general_instance()
        # pbs: the same linear search over the same engine, clauses only
        base = LinearSearchSolver(instance, SolverOptions()).solve()
        learned = CuttingPlanesSolver(instance, SolverOptions()).solve()
        assert base.status == learned.status
        assert base.best_cost == learned.best_cost

    @pytest.mark.parametrize("seed", range(12))
    def test_random_against_brute_force(self, seed):
        import random

        rng = random.Random(7000 + seed)
        n = rng.randint(4, 7)
        constraints = []
        for _ in range(rng.randint(3, 8)):
            size = rng.randint(2, min(4, n))
            variables = rng.sample(range(1, n + 1), size)
            terms = [
                (rng.randint(1, 4), v if rng.random() < 0.6 else -v)
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
        result = CuttingPlanesSolver(instance, SolverOptions()).solve()
        assert result.status == expected.status
        if expected.best_cost is not None:
            assert result.best_cost == expected.best_cost
            assert instance.check(result.best_assignment)

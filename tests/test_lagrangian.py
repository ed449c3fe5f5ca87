"""Unit tests for the Lagrangian relaxation bound."""

import itertools

import pytest

from repro.benchgen import generate_covering
from repro.lagrangian import LagrangianBound
from repro.lp import LPRelaxationBound
from repro.mis import MISBound
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


def brute_force_optimum(instance):
    best = None
    n = instance.num_variables
    for bits in itertools.product([0, 1], repeat=n):
        assignment = {v: bits[v - 1] for v in range(1, n + 1)}
        if instance.check(assignment):
            cost = instance.cost(assignment)
            best = cost if best is None else min(best, cost)
    return best


class TestBoundValue:
    def test_positive_bound_on_covering(self):
        bound = LagrangianBound(covering_instance()).compute({})
        assert not bound.infeasible
        assert bound.value >= 1

    def test_never_exceeds_optimum(self):
        instance = covering_instance()
        optimum = brute_force_optimum(instance)
        bound = LagrangianBound(instance).compute({})
        assert bound.value <= optimum

    def test_weak_duality_vs_lpr(self):
        # L* equals the LP bound for this relaxation (integrality property
        # of the 0/1 box); subgradient approaches from below.
        instance = covering_instance()
        lpr = LPRelaxationBound(instance).compute({}).value
        lgr = LagrangianBound(instance, max_iterations=500).compute({})
        assert lgr.value <= lpr

    def test_enough_iterations_reach_the_weaker_of_mis_and_lpr(self):
        # Section 6: LGR converges slowly, but 800 subgradient steps on a
        # generated covering instance end between min(MIS, LPR) and LPR
        instance = generate_covering(
            minterms=60, implicants=30, density=0.12, max_cost=60, seed=1
        )
        mis = MISBound(instance).compute({}).value
        lpr = LPRelaxationBound(instance).compute({}).value
        lgr = LagrangianBound(instance, max_iterations=800).compute({})
        assert min(mis, lpr) <= lgr.value <= lpr

    def test_nothing_left(self):
        bound = LagrangianBound(covering_instance()).compute({1: 1, 2: 1, 3: 1})
        assert bound.value == 0

    def test_infeasible_fixing(self):
        instance = PBInstance([Constraint.clause([1, 2])], Objective({1: 1}))
        bound = LagrangianBound(instance).compute({1: 0, 2: 0})
        assert bound.infeasible

    def test_more_iterations_never_worse(self):
        instance = covering_instance()
        short = LagrangianBound(instance, max_iterations=3)
        long = LagrangianBound(instance, max_iterations=200)
        assert long.compute({}).value >= short.compute({}).value

    @pytest.mark.parametrize("seed", range(6))
    def test_soundness_random(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(2, 5)
        constraints = []
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, n)
            variables = rng.sample(range(1, n + 1), size)
            terms = [(rng.randint(1, 3), v if rng.random() < 0.7 else -v) for v in variables]
            constraint = Constraint.greater_equal(terms, rng.randint(1, 3))
            if not constraint.is_tautology and not constraint.is_unsatisfiable:
                constraints.append(constraint)
        if not constraints:
            pytest.skip("degenerate draw")
        instance = PBInstance(
            constraints, Objective({v: rng.randint(0, 4) for v in range(1, n + 1)}),
            num_variables=n,
        )
        optimum = brute_force_optimum(instance)
        if optimum is None:
            return
        bound = LagrangianBound(instance).compute({})
        assert bound.value <= optimum


class TestExplanations:
    def test_explanation_has_active_constraints(self):
        instance = covering_instance()
        bound = LagrangianBound(instance).compute({})
        assert bound.explanation  # some multipliers must be active
        for constraint in bound.explanation:
            assert constraint in instance.constraints

    def test_duals_all_positive(self):
        bound = LagrangianBound(covering_instance()).compute({})
        assert all(mu > 0 for mu in bound.duals_by_row.values())

    def test_alpha_of_assigned(self):
        instance = covering_instance()
        lgr = LagrangianBound(instance)
        bound = lgr.compute({1: 0})
        alpha = lgr.alpha_of_assigned({1: 0}, bound.duals_by_row)
        assert 1 in alpha
        # alpha_1 = c_1 - sum(mu_i * w_i1) <= c_1
        assert alpha[1] <= instance.objective.costs[1] + 1e-9


class TestConvergenceTrace:
    def test_trace_recorded(self):
        lgr = LagrangianBound(covering_instance(), max_iterations=50)
        lgr.compute({})
        assert len(lgr.last_trace) > 1

    def test_trace_monotone_best(self):
        import math

        lgr = LagrangianBound(covering_instance(), max_iterations=50)
        bound = lgr.compute({})
        running_best = max(lgr.last_trace)
        # the reported bound is ceil(best L(mu)) and never more
        assert bound.value <= math.ceil(running_best - 1e-6) or bound.value == 0

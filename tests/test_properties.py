"""Property-based tests (hypothesis) for core invariants."""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import BruteForceSolver, cardinality_reduction
from repro.core import SolverOptions, UNSATISFIABLE, solve
from repro.core.cuts import CutGenerator
from repro.engine import Propagator
from repro.lagrangian import LagrangianBound
from repro.lp import LPRelaxationBound
from repro.mis import MISBound
from repro.pb import Constraint, Objective, PBInstance, parse, write

SLOW = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def raw_terms(draw, max_var=5):
    size = draw(st.integers(1, max_var))
    variables = draw(
        st.lists(
            st.integers(1, max_var), min_size=size, max_size=size, unique=True
        )
    )
    terms = []
    for var in variables:
        coef = draw(st.integers(-5, 5))
        literal = var if draw(st.booleans()) else -var
        terms.append((coef, literal))
    rhs = draw(st.integers(-6, 10))
    return terms, rhs


@st.composite
def pb_instances(draw, max_var=5, max_constraints=5, satisfaction=False):
    n = draw(st.integers(2, max_var))
    constraints = []
    for _ in range(draw(st.integers(1, max_constraints))):
        size = draw(st.integers(1, n))
        variables = draw(
            st.lists(st.integers(1, n), min_size=size, max_size=size, unique=True)
        )
        terms = []
        for var in variables:
            coef = draw(st.integers(1, 4))
            literal = var if draw(st.booleans()) else -var
            terms.append((coef, literal))
        rhs = draw(st.integers(1, sum(c for c, _ in terms)))
        constraint = Constraint.greater_equal(terms, rhs)
        if not constraint.is_tautology and not constraint.is_unsatisfiable:
            constraints.append(constraint)
    if not constraints:
        constraints = [Constraint.clause([1])]
    if satisfaction:
        objective = Objective({})
    else:
        objective = Objective(
            {var: draw(st.integers(0, 5)) for var in range(1, n + 1)}
        )
    return PBInstance(constraints, objective, num_variables=n)


def all_assignments(n):
    for bits in itertools.product((0, 1), repeat=n):
        yield {var: bits[var - 1] for var in range(1, n + 1)}


# ----------------------------------------------------------------------
# Normalization
# ----------------------------------------------------------------------
class TestNormalizationProperties:
    @SLOW
    @given(raw_terms())
    def test_normal_form_invariants(self, data):
        terms, rhs = data
        constraint = Constraint.greater_equal(terms, rhs)
        assert constraint.rhs >= 0
        seen_vars = set()
        for coef, lit in constraint.terms:
            assert coef > 0
            assert coef <= constraint.rhs
            var = abs(lit)
            assert var not in seen_vars
            seen_vars.add(var)

    @SLOW
    @given(raw_terms())
    def test_normalization_preserves_models(self, data):
        terms, rhs = data
        constraint = Constraint.greater_equal(terms, rhs)
        variables = {abs(l) for _, l in terms} | {abs(l) for l in constraint.literals}
        if not variables:
            return
        n = max(variables)
        for assignment in all_assignments(n):
            raw_lhs = 0
            for coef, lit in terms:
                var = abs(lit)
                value = assignment[var] if lit > 0 else 1 - assignment[var]
                raw_lhs += coef * value
            raw_sat = raw_lhs >= rhs
            norm_sat = (
                True
                if constraint.is_tautology
                else constraint.is_satisfied_by(assignment)
            )
            assert raw_sat == norm_sat

    @SLOW
    @given(raw_terms())
    def test_integer_form_equivalence(self, data):
        terms, rhs = data
        constraint = Constraint.greater_equal(terms, rhs)
        weights, r = constraint.integer_form()
        variables = {abs(l) for _, l in constraint.terms}
        if not variables:
            return
        n = max(variables)
        for assignment in all_assignments(n):
            lhs = sum(w * assignment[var] for var, w in weights.items())
            assert (lhs >= r) == constraint.is_satisfied_by(assignment)


# ----------------------------------------------------------------------
# OPB round trip
# ----------------------------------------------------------------------
class TestOPBProperties:
    @SLOW
    @given(pb_instances())
    def test_round_trip(self, instance):
        reparsed = parse(write(instance))
        assert set(reparsed.constraints) == set(instance.constraints)
        assert reparsed.objective.costs == instance.objective.costs


# ----------------------------------------------------------------------
# Lower bound soundness
# ----------------------------------------------------------------------
class TestBoundSoundness:
    @SLOW
    @given(pb_instances())
    def test_all_bounds_below_optimum(self, instance):
        best = None
        for assignment in all_assignments(instance.num_variables):
            if instance.check(assignment):
                cost = instance.cost(assignment)
                best = cost if best is None else min(best, cost)
        if best is None:
            return
        for bounder in (
            MISBound(instance),
            LagrangianBound(instance),
            LPRelaxationBound(instance),
        ):
            bound = bounder.compute({})
            if not bound.infeasible:
                assert bound.value <= best, type(bounder).__name__

    @SLOW
    @given(pb_instances(), st.integers(0, 100))
    def test_bounds_under_partial_fixing(self, instance, salt):
        import random

        rng = random.Random(salt)
        fixed = {
            var: rng.randint(0, 1)
            for var in range(1, instance.num_variables + 1)
            if rng.random() < 0.4
        }
        best_completion = None
        for assignment in all_assignments(instance.num_variables):
            if any(assignment[var] != value for var, value in fixed.items()):
                continue
            if instance.check(assignment):
                remaining = sum(
                    cost
                    for var, cost in instance.objective.costs.items()
                    if var not in fixed and assignment[var] == 1
                )
                if best_completion is None or remaining < best_completion:
                    best_completion = remaining
        for bounder in (
            MISBound(instance),
            LagrangianBound(instance),
            LPRelaxationBound(instance),
        ):
            try:
                bound = bounder.compute(fixed)
            except Exception:  # pragma: no cover - restricted() rejects
                continue
            if best_completion is None:
                continue  # any value is vacuously a bound; infeasible ok
            if not bound.infeasible:
                assert bound.value <= best_completion, type(bounder).__name__


# ----------------------------------------------------------------------
# End-to-end solver agreement
# ----------------------------------------------------------------------
class TestSolverAgreement:
    @SLOW
    @given(pb_instances(), st.sampled_from(["plain", "mis", "lgr", "lpr"]))
    def test_bsolo_matches_brute_force(self, instance, method):
        expected = BruteForceSolver(instance).solve()
        result = solve(instance, SolverOptions(lower_bound=method))
        assert result.solved
        if expected.status == UNSATISFIABLE:
            assert result.status == UNSATISFIABLE
        else:
            assert result.best_cost == expected.best_cost
            assert instance.check(result.best_assignment)

    @SLOW
    @given(pb_instances(satisfaction=True))
    def test_satisfaction_agreement(self, instance):
        expected = BruteForceSolver(instance).solve()
        result = solve(instance)
        if expected.status == UNSATISFIABLE:
            assert result.status == UNSATISFIABLE
        else:
            assert result.status == "satisfiable"
            assert instance.check(result.best_assignment)


# ----------------------------------------------------------------------
# Engine invariants
# ----------------------------------------------------------------------
class TestEngineProperties:
    @SLOW
    @given(pb_instances(satisfaction=True), st.lists(st.integers(), max_size=8))
    def test_slacks_consistent_under_search(self, instance, moves):
        propagator = Propagator(instance.num_variables)
        for constraint in instance.constraints:
            propagator.add_constraint(constraint)
        propagator.propagate()
        for move in moves:
            unassigned = propagator.trail.unassigned_variables()
            if not unassigned or move % 3 == 0:
                level = propagator.trail.decision_level
                if level:
                    propagator.backtrack(max(0, level - 1 - (move % 2)))
                continue
            var = unassigned[move % len(unassigned)]
            propagator.decide(var if move % 2 else -var)
            propagator.propagate()
        propagator.database.check_slacks()


# ----------------------------------------------------------------------
# Cuts and reductions
# ----------------------------------------------------------------------
class TestCutProperties:
    @SLOW
    @given(pb_instances(), st.integers(1, 25))
    def test_cuts_keep_strictly_better_solutions(self, instance, upper):
        keyed, proven = CutGenerator(instance).cuts(upper)
        for assignment in all_assignments(instance.num_variables):
            if not instance.check(assignment):
                continue
            cost = instance.objective.path_cost(assignment)
            if cost < upper:
                assert proven is None
                for _, cut in keyed:
                    assert cut.is_satisfied_by(assignment)

    @SLOW
    @given(raw_terms())
    def test_cardinality_reduction_implied(self, data):
        terms, rhs = data
        constraint = Constraint.greater_equal(terms, rhs)
        if constraint.is_tautology or constraint.is_unsatisfiable:
            return
        reduced = cardinality_reduction(constraint)
        if reduced is None:
            return
        n = max(abs(l) for l in constraint.literals)
        for assignment in all_assignments(n):
            if constraint.is_satisfied_by(assignment):
                assert reduced.is_satisfied_by(assignment)

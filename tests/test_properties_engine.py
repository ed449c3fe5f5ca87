"""Property-based tests for engine explanations and LP duality."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Propagator
from repro.lp import GE, OPTIMAL, solve_lp, solve_node_lp
from repro.pb import Constraint

SLOW = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def pb_constraint(draw, max_var=6):
    size = draw(st.integers(2, max_var))
    variables = draw(
        st.lists(st.integers(1, max_var), min_size=size, max_size=size, unique=True)
    )
    terms = [
        (draw(st.integers(1, 5)), var if draw(st.booleans()) else -var)
        for var in variables
    ]
    rhs = draw(st.integers(1, sum(c for c, _ in terms)))
    return Constraint.greater_equal(terms, rhs)


class TestExplanationProperties:
    @SLOW
    @given(pb_constraint(), st.integers(0, 10**6))
    def test_violation_explanation_sufficient_and_tight(self, constraint, salt):
        """The greedy explanation's coefficients alone exceed total - rhs,
        and every reported literal is false."""
        import random

        if constraint.is_tautology or constraint.is_unsatisfiable:
            return
        rng = random.Random(salt)
        n = max(abs(l) for l in constraint.literals)
        prop = Propagator(n)
        prop.add_constraint(constraint)
        # falsify literals one by one until violated (if possible)
        literals = list(constraint.literals)
        rng.shuffle(literals)
        stored = prop.database.constraints[0]
        for lit in literals:
            if stored.slack < 0:
                break
            prop.decide(-lit)
        if stored.slack >= 0:
            return  # could not violate (propagation would fire first)
        explanation = prop.explain_violation(stored)
        total = sum(c for c, _ in constraint.terms)
        covered = sum(constraint.coefficient(lit) for lit in explanation)
        assert covered > total - constraint.rhs
        for lit in explanation:
            assert prop.trail.literal_is_false(lit)

    @SLOW
    @given(pb_constraint())
    def test_implication_reasons_sufficient(self, constraint):
        """Every propagation's reason forces the implied literal: the
        false-literal coefficients exceed total - rhs - coef(implied)."""
        if constraint.is_tautology or constraint.is_unsatisfiable:
            return
        n = max(abs(l) for l in constraint.literals)
        prop = Propagator(n)
        prop.add_constraint(constraint)
        prop.propagate()
        # falsify the first unassigned literal, then propagate
        for lit in constraint.literals:
            if not prop.trail.is_assigned(abs(lit)):
                prop.decide(-lit)
                break
        prop.propagate()
        total = sum(c for c, _ in constraint.terms)
        for var in range(1, n + 1):
            reason = prop.trail.reason(var)
            if reason is None or len(reason) < 1:
                continue
            implied = reason[0]
            if abs(implied) != var:
                continue
            coef = constraint.coefficient(implied)
            if coef == 0:
                continue  # implied by a different (learned) constraint
            covered = sum(constraint.coefficient(l) for l in reason[1:])
            assert covered > total - constraint.rhs - coef


class TestLPDuality:
    @SLOW
    @given(st.integers(0, 10**6))
    def test_weak_duality_on_covering_lps(self, seed):
        """y >= 0 and y . b <= optimum for >=-row LPs (weak duality), on
        both simplex solvers."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        c = rng.integers(1, 9, size=n).astype(float)
        A = rng.integers(0, 4, size=(m, n)).astype(float)
        b = np.minimum(A.sum(axis=1), rng.integers(1, 4, size=m)).astype(float)
        for result in (solve_lp(c, A, b, [GE] * m, upper=np.ones(n)), solve_node_lp(c, A, b)):
            if result.status != OPTIMAL:
                continue
            duals = np.asarray(result.duals)
            # duals of >= rows in a min problem are non-negative (tolerance)
            assert np.all(duals >= -1e-6)
            # weak duality with upper bounds: y.b - sum(max(0, y.A - c)) <= z*
            reduced_violation = np.maximum(duals @ A - c, 0.0).sum()
            assert duals @ b - reduced_violation <= result.objective + 1e-6

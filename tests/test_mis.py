"""Unit tests for the MIS lower bound."""

import itertools
import math

import pytest

from repro.mis import MISBound, constraint_min_cost
from repro.pb import Constraint, Objective, PBInstance


class TestConstraintMinCost:
    def test_clause_picks_cheapest(self):
        constraint = Constraint.clause([1, 2, 3])
        cost, false_lits, free = constraint_min_cost(constraint, {}, {1: 5, 2: 2, 3: 9})
        assert cost == pytest.approx(2.0)
        assert free == {1, 2, 3}
        assert false_lits == []

    def test_negative_literal_is_free(self):
        constraint = Constraint.clause([1, -2])
        cost, _, _ = constraint_min_cost(constraint, {}, {1: 5, 2: 7})
        assert cost == pytest.approx(0.0)

    def test_satisfied_returns_none(self):
        constraint = Constraint.clause([1, 2])
        cost, _, _ = constraint_min_cost(constraint, {1: 1}, {2: 3})
        assert cost is None

    def test_unsatisfiable_returns_inf(self):
        constraint = Constraint.at_least([1, 2], 2)
        cost, false_lits, _ = constraint_min_cost(constraint, {1: 0}, {})
        assert cost == math.inf
        assert false_lits == [1]

    def test_fractional_cover(self):
        # 2*x1 + 2*x2 >= 3 with costs 4, 4: fractional optimum
        # 4 + 4*(1/2) = 6 < integer optimum 8
        constraint = Constraint.greater_equal([(2, 1), (2, 2)], 3)
        cost, _, _ = constraint_min_cost(constraint, {}, {1: 4, 2: 4})
        assert cost == pytest.approx(6.0)

    def test_false_literals_reported(self):
        constraint = Constraint.clause([1, 2, 3])
        _, false_lits, free = constraint_min_cost(constraint, {2: 0}, {1: 1, 3: 1})
        assert false_lits == [2]
        assert free == {1, 3}


class TestMISBound:
    def test_disjoint_constraints_add(self):
        instance = PBInstance(
            [Constraint.clause([1, 2]), Constraint.clause([3, 4])],
            Objective({1: 3, 2: 5, 3: 2, 4: 7}),
        )
        bound = MISBound(instance).compute({})
        assert bound.value == 5  # 3 + 2
        assert len(bound.explanation) == 2

    def test_overlapping_constraints_pick_one(self):
        instance = PBInstance(
            [Constraint.clause([1, 2]), Constraint.clause([2, 3])],
            Objective({1: 3, 2: 5, 3: 2}),
        )
        bound = MISBound(instance).compute({})
        # constraints share variable 2: only one can be selected
        assert bound.value in (2, 3)
        assert len(bound.explanation) == 1

    def test_never_exceeds_optimum(self):
        instance = PBInstance(
            [
                Constraint.clause([1, 2]),
                Constraint.clause([2, 3]),
                Constraint.clause([1, 3]),
            ],
            Objective({1: 3, 2: 2, 3: 2}),
        )
        best = None
        for bits in itertools.product([0, 1], repeat=3):
            assignment = {v: bits[v - 1] for v in range(1, 4)}
            if instance.check(assignment):
                cost = instance.cost(assignment)
                best = cost if best is None else min(best, cost)
        assert MISBound(instance).compute({}).value <= best

    def test_zero_cost_constraints_skipped(self):
        instance = PBInstance(
            [Constraint.clause([1, 2])], Objective({3: 9})
        )
        bound = MISBound(instance).compute({})
        assert bound.value == 0
        assert bound.explanation == []

    def test_infeasible_detection(self):
        instance = PBInstance([Constraint.at_least([1, 2], 2)], Objective({1: 1}))
        bound = MISBound(instance).compute({1: 0})
        assert bound.infeasible

    def test_fixed_satisfied_ignored(self):
        instance = PBInstance(
            [Constraint.clause([1, 2]), Constraint.clause([3])],
            Objective({1: 5, 2: 4, 3: 2}),
        )
        bound = MISBound(instance).compute({1: 1})
        assert bound.value == 2  # only the x3 clause contributes

    def test_violated_costless_row_is_infeasible(self):
        # ~1 + ~2 + ~3 >= 2 has only negative literals, so it is costless:
        # it never adds to the bound, but with two of them true it is
        # violated, and a violated row makes the relaxation infeasible
        at_most_one = Constraint.at_most([1, 2, 3], 1)
        assert all(lit < 0 for lit in at_most_one.literals)
        instance = PBInstance(
            [Constraint.clause([1, 4]), at_most_one], Objective({1: 2, 4: 3})
        )
        mis = MISBound(instance)
        assert not mis.compute({1: 1}).infeasible
        assert mis.compute({1: 1, 2: 1}).infeasible

    def test_call_counter(self):
        mis = MISBound(PBInstance([Constraint.clause([1])], Objective({1: 1})))
        mis.compute({})
        mis.compute({})
        assert mis.num_calls == 2

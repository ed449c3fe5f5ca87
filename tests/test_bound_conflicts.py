"""Unit tests for bound-conflict explanation construction (Section 4)."""

from repro.core import (
    bound_conflict_clause,
    lower_bound_explanation,
    path_explanation,
)
from repro.engine import Trail
from repro.pb import Constraint, Objective


def make_trail(n, assignments):
    """assignments: list of (literal, is_decision)."""
    trail = Trail(n)
    for literal, is_decision in assignments:
        if is_decision:
            trail.decide(literal)
        else:
            trail.imply(literal, (literal,))
    return trail


class TestPathExplanation:
    def test_costed_ones_negated(self):
        trail = make_trail(3, [(1, True), (-2, True), (3, True)])
        objective = Objective({1: 5, 2: 5, 3: 0})
        # x1 = 1 costed -> ~x1; x2 = 0 -> no; x3 = 1 but zero cost -> no
        assert path_explanation(objective, trail) == [-1]

    def test_empty_when_no_cost_incurred(self):
        trail = make_trail(2, [(-1, True), (-2, True)])
        objective = Objective({1: 5, 2: 5})
        assert path_explanation(objective, trail) == []

    def test_unassigned_costed_ignored(self):
        trail = make_trail(3, [(1, True)])
        objective = Objective({1: 2, 2: 9})
        assert path_explanation(objective, trail) == [-1]


class TestLowerBoundExplanation:
    def test_false_literals_of_responsible(self):
        trail = make_trail(3, [(-1, True), (2, True)])
        responsible = [Constraint.clause([1, 3]), Constraint.clause([-2, 3])]
        lits = lower_bound_explanation(responsible, trail)
        # literal 1 false (x1=0), literal -2 false (x2=1); 3 unassigned
        assert set(lits) == {1, -2}

    def test_deduplicated(self):
        trail = make_trail(2, [(-1, True)])
        responsible = [Constraint.clause([1, 2]), Constraint.clause([1, -2])]
        lits = lower_bound_explanation(responsible, trail)
        assert lits.count(1) == 1

    def test_alpha_refinement_drops_unhelpful(self):
        trail = make_trail(2, [(-1, True), (2, True)])
        responsible = [Constraint.clause([1, -2])]
        # x1 = 0 with alpha >= 0: flipping to 1 cannot lower the bound.
        lits = lower_bound_explanation(responsible, trail, {1: 0.5, 2: 0.5})
        assert 1 not in lits
        # x2 = 1 with alpha > 0: flipping to 0 could lower it -> kept.
        assert -2 in lits

    def test_alpha_refinement_keeps_helpful(self):
        trail = make_trail(2, [(-1, True), (2, True)])
        responsible = [Constraint.clause([1, -2])]
        lits = lower_bound_explanation(responsible, trail, {1: -0.5, 2: -0.5})
        assert 1 in lits  # x1 = 0 with alpha < 0: flip could lower bound
        assert -2 not in lits  # x2 = 1 with alpha < 0: flip only raises


class TestBoundConflictClause:
    def test_union_of_pp_and_pl(self):
        trail = make_trail(3, [(1, True), (-2, True)])
        objective = Objective({1: 4})
        responsible = [Constraint.clause([2, 3])]
        clause = bound_conflict_clause(objective, trail, responsible)
        assert set(clause) == {-1, 2}

    def test_all_literals_false(self):
        trail = make_trail(3, [(1, True), (-2, True)])
        clause = bound_conflict_clause(
            Objective({1: 4}), trail, [Constraint.clause([2, 3])]
        )
        for lit in clause:
            assert trail.literal_is_false(lit)

    def test_empty_clause_when_root_bound(self):
        trail = Trail(2)
        clause = bound_conflict_clause(Objective({1: 4}), trail, [])
        assert clause == ()


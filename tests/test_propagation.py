"""Unit tests for counter-based PB propagation."""

import pytest

from repro.engine import Conflict, Propagator
from repro.pb import Constraint


def propagator_with(num_vars, constraints):
    prop = Propagator(num_vars)
    for constraint in constraints:
        assert prop.add_constraint(constraint) is None
    assert prop.propagate() is None
    return prop


class TestSlackBookkeeping:
    def test_initial_slack(self):
        prop = Propagator(3)
        prop.add_constraint(Constraint.greater_equal([(2, 1), (3, -2), (1, 3)], 3))
        (stored,) = prop.database.constraints
        assert stored.slack == 3

    def test_slack_decreases_when_literal_false(self):
        prop = propagator_with(3, [Constraint.greater_equal([(2, 1), (3, -2), (1, 3)], 3)])
        prop.decide(2)  # makes ~x2 false
        (stored,) = prop.database.constraints
        assert stored.slack == 0

    def test_slack_restored_on_backtrack(self):
        prop = propagator_with(3, [Constraint.greater_equal([(2, 1), (3, -2), (1, 3)], 3)])
        prop.decide(2)
        prop.backtrack(0)
        (stored,) = prop.database.constraints
        assert stored.slack == 3
        prop.database.check_slacks()

    def test_check_slacks_detects_drift(self):
        prop = propagator_with(2, [Constraint.clause([1, 2])])
        prop.database.constraints[0].slack = 99
        with pytest.raises(AssertionError):
            prop.database.check_slacks()


class TestUnitPropagation:
    def test_unit_clause_propagates(self):
        prop = Propagator(2)
        prop.add_constraint(Constraint.clause([1, 2]))
        prop.decide(-1)
        assert prop.propagate() is None
        assert prop.trail.literal_is_true(2)
        assert prop.trail.reason(2) == (2, 1)

    def test_chain_propagation(self):
        prop = Propagator(4)
        prop.add_constraint(Constraint.clause([-1, 2]))
        prop.add_constraint(Constraint.clause([-2, 3]))
        prop.add_constraint(Constraint.clause([-3, 4]))
        prop.decide(1)
        assert prop.propagate() is None
        assert all(prop.trail.literal_is_true(l) for l in (2, 3, 4))

    def test_pb_implication(self):
        # 3*x1 + 2*x2 + 2*x3 >= 5: x1 is implied immediately (slack 2 < 3)
        prop = Propagator(3)
        prop.add_constraint(Constraint.greater_equal([(3, 1), (2, 2), (2, 3)], 5))
        assert prop.propagate() is None
        assert prop.trail.literal_is_true(1)
        assert prop.trail.level(1) == 0

    def test_pb_implication_after_assignment(self):
        # 3*x1 + 2*x2 + 2*x3 >= 4: nothing implied initially (slack 3)
        prop = Propagator(3)
        prop.add_constraint(Constraint.greater_equal([(3, 1), (2, 2), (2, 3)], 4))
        assert prop.propagate() is None
        assert len(prop.trail) == 0
        prop.decide(-2)  # slack 1 -> x1 and x3 both implied
        assert prop.propagate() is None
        assert prop.trail.literal_is_true(1)
        assert prop.trail.literal_is_true(3)

    def test_propagation_counter(self):
        prop = Propagator(2)
        prop.add_constraint(Constraint.clause([1, 2]))
        prop.decide(-1)
        prop.propagate()
        assert prop.num_propagations == 1


class TestConflicts:
    def test_clause_conflict(self):
        prop = Propagator(2)
        prop.add_constraint(Constraint.clause([1, 2]))
        prop.decide(-1)
        assert prop.propagate() is None
        prop.backtrack(0)
        prop.decide(-1)
        prop.decide(-2)
        conflict = prop.propagate()
        assert conflict is not None
        assert set(conflict.literals) == {1, 2}

    def test_pb_conflict_explanation_is_minimal_greedy(self):
        # 2*x1 + x2 + x3 >= 2 with x1, x2, x3 all false: the greedy
        # explanation takes x1 (coef 2) and x2 and can drop x3.
        prop = Propagator(3)
        prop.add_constraint(Constraint.greater_equal([(2, 1), (1, 2), (1, 3)], 2))
        prop.decide(-2)
        prop.decide(-3)
        prop.decide(-1)
        conflict = prop.propagate()
        assert conflict is not None
        assert set(conflict.literals) == {1, 2}  # x3 not needed to explain

    def test_conflict_on_add_constraint(self):
        prop = Propagator(2)
        prop.decide(-1)
        prop.decide(-2)
        conflict = prop.add_constraint(Constraint.clause([1, 2]))
        assert conflict is not None
        assert set(conflict.literals) == {1, 2}

    def test_added_constraint_propagates(self):
        prop = Propagator(2)
        prop.decide(-1)
        assert prop.add_constraint(Constraint.clause([1, 2])) is None
        assert prop.propagate() is None
        assert prop.trail.literal_is_true(2)


class TestReasons:
    def test_pb_reason_sufficient(self):
        # 2*x1 + 2*x2 + 1*x3 + 1*x4 >= 3; after ~x1, ~x3: slack = 3-3... let
        # us force x2: total=6, rhs=3. Falsify x1 (slack 1): x2 implied
        # (coef 2 > 1). Reason needs false coef sum > 6-3-2 = 1: {~x1} (coef
        # 2) suffices; x3/x4 must not appear.
        prop = Propagator(4)
        prop.add_constraint(
            Constraint.greater_equal([(2, 1), (2, 2), (1, 3), (1, 4)], 3)
        )
        prop.decide(-1)
        assert prop.propagate() is None
        assert prop.trail.literal_is_true(2)
        assert prop.trail.reason(2) == (2, 1)

    def test_reason_literals_all_false(self):
        prop = Propagator(3)
        prop.add_constraint(Constraint.greater_equal([(2, 1), (1, 2), (1, 3)], 3))
        prop.decide(-2)
        assert prop.propagate() is None
        for var in (1, 3):
            if prop.trail.is_assigned(var):
                reason = prop.trail.reason(var)
                if reason:
                    assert all(
                        prop.trail.literal_is_false(lit) for lit in reason[1:]
                    )


class TestBacktrackIntegration:
    def test_propagate_after_backtrack(self):
        prop = Propagator(3)
        prop.add_constraint(Constraint.clause([1, 2, 3]))
        prop.decide(-1)
        prop.decide(-2)
        assert prop.propagate() is None
        assert prop.trail.literal_is_true(3)
        prop.backtrack(1)
        assert not prop.trail.is_assigned(3)
        prop.decide(-3)
        assert prop.propagate() is None
        assert prop.trail.literal_is_true(2)
        prop.database.check_slacks()

    def test_reschedule_all(self):
        prop = Propagator(2)
        prop.add_constraint(Constraint.clause([1, 2]))
        prop.decide(-1)
        prop.propagate()
        prop.backtrack(0)
        prop.decide(-1)
        # simulate a stale queue: clear and rely on reschedule
        prop._clear_pending()
        prop.reschedule_all()
        assert prop.propagate() is None
        assert prop.trail.literal_is_true(2)

    def test_model_requires_completeness(self):
        prop = Propagator(2)
        prop.decide(1)
        with pytest.raises(ValueError):
            prop.model()
        prop.decide(2)
        assert prop.model() == {1: 1, 2: 1}


# ----------------------------------------------------------------------
# Learned-constraint deletion mid-search (no stale references)
# ----------------------------------------------------------------------
class TestReduceLearnedMidSearch:
    def test_deleted_mid_search_never_wakes_again(self):
        engine = Propagator(4)
        engine.add_constraint(Constraint.clause([1, 2, 3, 4]))
        assert engine.propagate() is None
        engine.decide(-1)
        assert engine.propagate() is None
        # learn two clauses mid-search, then forget one of them
        engine.add_constraint(Constraint.clause([2, 3]), learned=True)
        engine.add_constraint(Constraint.clause([1, 2]), learned=True)
        assert engine.propagate() is None
        removed = engine.reduce_learned(
            lambda stored: stored.constraint.literals == (2, 3)
        )
        assert removed == 1
        survivors = [s.constraint.literals for s in engine.database.constraints]
        assert (1, 2) not in survivors
        # back at the root, falsify the deleted clause's literals: a live
        # (1,2) would imply 2 under -1 and then conflict under -2, so the
        # silent propagates are the staleness proof
        engine.backtrack(0)
        engine.decide(-1)
        assert engine.propagate() is None
        assert not engine.trail.is_assigned(2)  # deleted (1,2) stays silent
        engine.decide(-2)
        assert engine.propagate() is None  # a live (1,2) would conflict here
        assert engine.trail.literal_is_true(3)  # from the surviving (2,3)
        engine.backtrack(0)
        assert engine.propagate() is None
        live = set(map(id, engine.database.constraints))
        assert all(id(record) in live for record in _referenced(engine))

    def test_deleted_general_pb_mid_search(self):
        engine = Propagator(3)
        engine.add_constraint(Constraint.clause([1, 2, 3]))
        assert engine.propagate() is None
        engine.decide(3)
        assert engine.propagate() is None
        engine.add_constraint(
            Constraint.greater_equal([(2, 1), (2, 2), (1, -3)], 2), learned=True
        )
        assert engine.propagate() is None
        assert engine.reduce_learned(lambda stored: False) == 1
        assert engine.database.num_learned() == 0
        # re-propagating after deletion must not touch the dead constraint
        engine.decide(-1)
        assert engine.propagate() is None
        assert not engine.trail.is_assigned(2)
        engine.backtrack(0)
        assert engine.propagate() is None

    def test_pending_queue_purged_on_delete(self):
        engine = Propagator(3)
        engine.decide(1)
        engine.decide(-2)
        # added under assignment, unit on 3: sits in the pending queue
        # unscanned, and a scan would imply 3
        engine.add_constraint(Constraint.clause([-1, 2, 3]), learned=True)
        assert engine.reduce_learned(lambda stored: False) == 1
        assert engine.propagate() is None
        assert not engine.trail.is_assigned(3)


# ----------------------------------------------------------------------
# Row swaps (the stale-reference audit, for replaced records)
# ----------------------------------------------------------------------
def _referenced(engine):
    """Every record named by the engine's occurrence lists and its
    pending queue."""
    records = [
        stored
        for entries in engine.database._occurrences.values()
        for stored, _ in entries
    ]
    return records + list(engine._pending)


class TestReplaceMidSearch:
    def test_same_terms_tighten_in_place(self):
        engine = Propagator(4)
        cut = Constraint.greater_equal([(3, 1), (2, 2), (2, 3), (1, 4)], 3)
        row = engine.replace_constraint(None, cut)
        assert engine.propagate() is None
        engine.decide(-1)
        assert engine.propagate() is None
        tighter = Constraint(cut.terms, 4)
        assert engine.replace_constraint(row, tighter) is row
        assert row.constraint is tighter and row.queued
        # supply 5, slack 1: both coefficient-2 literals are implied
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(2) and engine.trail.literal_is_true(3)
        assert not engine.trail.is_assigned(4)
        engine.database.check_slacks()

    def test_replaced_record_is_never_referenced_again(self):
        engine = Propagator(6)
        terms = [(5, 1), (4, 2), (3, 3), (1, 4), (1, 5), (1, 6)]
        row = engine.replace_constraint(None, Constraint.greater_equal(terms, 4))
        assert engine.propagate() is None
        engine.decide(-4)
        assert engine.propagate() is None
        # x1's coefficient saturates at the new rhs: the terms change,
        # so the row is re-attached in the same slot
        terms[0] = (9, 1)
        new = engine.replace_constraint(row, Constraint.greater_equal(terms, 6))
        assert new is not row and new.index == row.index
        assert not engine.database.holds(row)
        assert all(record is not row for record in _referenced(engine))
        assert any(record is new for record in _referenced(engine))
        # swapped again before any propagate: the still-queued record
        # leaves the pending queue too
        assert new.queued
        terms[3] = (2, 4)
        again = engine.replace_constraint(new, Constraint.greater_equal(terms, 6))
        assert again is not new and not new.queued
        assert all(record not in (row, new) for record in _referenced(engine))
        assert engine.propagate() is None
        engine.database.check_slacks()
        # under -1 the supply is 9: a replacement with rhs 10 is
        # returned queued, not as a conflict, and propagate reports it
        engine.decide(-1)
        assert engine.propagate() is None
        live = engine.replace_constraint(again, Constraint(again.constraint.terms, 10))
        conflict = engine.propagate()
        assert isinstance(conflict, Conflict) and conflict.stored is live
        engine.backtrack(0)
        assert engine.propagate() is None
        assert all(record not in (row, new) for record in _referenced(engine))
        engine.database.check_slacks()

    def test_replacing_a_deleted_row_attaches_a_new_one(self):
        engine = Propagator(3)
        terms = ((2, 1), (1, 2), (1, 3))
        row = engine.replace_constraint(None, Constraint(terms, 2), learned=True)
        assert engine.reduce_learned(lambda stored: False) == 1
        new = engine.replace_constraint(row, Constraint(terms, 3), learned=True)
        assert new is not row and engine.database.constraints == [new]
        assert all(record is not row for record in _referenced(engine))
        engine.decide(-2)
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(1) and engine.trail.literal_is_true(3)
        engine.database.check_slacks()

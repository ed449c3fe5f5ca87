"""Unit tests for the watched-literal propagation backend.

Per-scheme corner cases (2-watch clauses, (b+1)-watch cardinality,
watched-sum general PB), the engine registry, and the learned-constraint
deletion audit (no stale watcher references mid-search).
"""

import pytest

from repro.engine import (
    Conflict,
    Propagator,
    UnknownEngineError,
    WatchedPropagator,
    available_engines,
    engine_descriptions,
    make_engine,
)
from repro.engine.constraint_db import KIND_CARDINALITY, KIND_CLAUSE, KIND_GENERAL
from repro.pb import Constraint


def watched_with(num_vars, constraints):
    engine = WatchedPropagator(num_vars)
    for constraint in constraints:
        assert engine.add_constraint(constraint) is None
    assert engine.propagate() is None
    return engine


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_both_backends_registered(self):
        names = available_engines()
        assert "counter" in names
        assert "watched" in names

    def test_descriptions_cover_all_engines(self):
        descriptions = engine_descriptions()
        for name in available_engines():
            assert descriptions[name]

    def test_make_engine_dispatches(self):
        assert isinstance(make_engine("counter", 4), Propagator)
        assert isinstance(make_engine("watched", 4), WatchedPropagator)

    def test_unknown_engine_raises(self):
        with pytest.raises(UnknownEngineError):
            make_engine("no-such-backend", 4)

    def test_unknown_engine_is_value_error(self):
        with pytest.raises(ValueError):
            make_engine("no-such-backend", 4)


# ----------------------------------------------------------------------
# Classification-based dispatch
# ----------------------------------------------------------------------
class TestClassifiedAttach:
    def test_kinds_route_to_their_watch_maps(self):
        engine = watched_with(
            8,
            [
                Constraint.clause([1, 2, 3]),
                Constraint.at_least([1, 2, 3, 4, 5, 6, 7, 8], 2),
                Constraint.greater_equal(
                    [(8, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8)],
                    2,
                ),
            ],
        )
        kinds = [stored.kind for stored in engine.database.constraints]
        assert kinds == [KIND_CLAUSE, KIND_CARDINALITY, KIND_GENERAL]
        assert engine.database.clause_watch
        assert engine.database.card_watch
        assert engine.database.pb_watch

    def test_binary_clauses_use_inline_lists(self):
        engine = watched_with(2, [Constraint.clause([1, 2])])
        (stored,) = engine.database.constraints
        assert not engine.database.clause_watch
        assert [e[0] for e in engine.database.binary_watch[1]] == [stored]
        assert [e[0] for e in engine.database.binary_watch[2]] == [stored]

    def test_dense_constraints_degrade_at_birth(self):
        # Watching b+1 of n literals with b+1 >= 0.75n leaves no room
        # for laziness: these attach straight into the counter regime.
        engine = watched_with(
            4,
            [
                Constraint.at_least([1, 2, 3, 4], 2),
                Constraint.greater_equal([(3, 1), (2, 2), (1, 3)], 3),
            ],
        )
        card, general = engine.database.constraints
        assert card.watch_all and general.watch_all
        assert not engine.database.card_watch
        assert not engine.database.pb_watch
        assert engine.database.pb_occ
        engine.database.check_invariants()

    def test_clause_watches_exactly_two(self):
        engine = watched_with(4, [Constraint.clause([1, 2, 3, 4])])
        (stored,) = engine.database.constraints
        watching = [
            lit
            for lit, entries in engine.database.clause_watch.items()
            if stored in entries
        ]
        assert len(watching) == 2

    def test_cardinality_watches_threshold_plus_one(self):
        engine = watched_with(9, [Constraint.at_least(list(range(1, 10)), 3)])
        (stored,) = engine.database.constraints
        watching = [
            lit
            for lit, entries in engine.database.card_watch.items()
            if stored in entries
        ]
        assert len(watching) == 4  # b + 1


# ----------------------------------------------------------------------
# Clause scheme
# ----------------------------------------------------------------------
class TestClauseScheme:
    def test_unit_implication_with_reason(self):
        engine = watched_with(3, [Constraint.clause([1, 2, 3])])
        engine.decide(-1)
        assert engine.propagate() is None
        engine.decide(-2)
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(3)
        assert set(engine.trail.reason(3)) == {1, 2, 3}

    def test_conflict_when_all_false(self):
        engine = watched_with(2, [Constraint.clause([1, 2])])
        engine.decide(-1)
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(2)
        engine.backtrack(0)
        engine.decide(-2)
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(1)

    def test_top_level_implication_survives_backtrack_to_zero(self):
        # a unit clause implies at level 0; rewinding to 0 keeps it
        engine = WatchedPropagator(2)
        engine.add_constraint(Constraint.clause([1]))
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(1)
        engine.decide(2)
        assert engine.propagate() is None
        engine.backtrack(0)
        assert engine.trail.literal_is_true(1)
        assert not engine.trail.is_assigned(2)

    def test_watch_replacement_keeps_clause_silent(self):
        engine = watched_with(4, [Constraint.clause([1, 2, 3, 4])])
        engine.decide(-1)
        assert engine.propagate() is None
        engine.decide(-2)
        assert engine.propagate() is None
        # two non-false literals remain: nothing implied yet
        assert not engine.trail.is_assigned(3)
        assert not engine.trail.is_assigned(4)
        engine.database.check_invariants()


# ----------------------------------------------------------------------
# Cardinality scheme
# ----------------------------------------------------------------------
class TestCardinalityScheme:
    def test_implies_all_remaining_when_tight(self):
        engine = watched_with(4, [Constraint.at_least([1, 2, 3, 4], 3)])
        engine.decide(-1)
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(2)
        assert engine.trail.literal_is_true(3)
        assert engine.trail.literal_is_true(4)

    def test_conflict_when_too_many_false(self):
        engine = watched_with(4, [Constraint.at_least([1, 2, 3, 4], 3)])
        engine.assume(-1)
        engine.assume(-2)
        conflict = engine.propagate()
        assert isinstance(conflict, Conflict)

    def test_backtrack_to_zero_then_repropagate(self):
        engine = watched_with(4, [Constraint.at_least([1, 2, 3, 4], 2)])
        engine.decide(-1)
        assert engine.propagate() is None
        engine.decide(-2)
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(3)
        engine.backtrack(0)
        assert not engine.trail.is_assigned(3)
        engine.decide(-3)
        assert engine.propagate() is None
        engine.decide(-4)
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(1)
        assert engine.trail.literal_is_true(2)
        engine.database.check_invariants()


# ----------------------------------------------------------------------
# General PB scheme
# ----------------------------------------------------------------------
class TestGeneralPBScheme:
    def test_coefficient_tie_implies_both(self):
        # 3a + 3b + 2c >= 6: falsifying c leaves slack 2 < 3, so the
        # tied big coefficients are both implied in one scan
        engine = watched_with(
            3, [Constraint.greater_equal([(3, 1), (3, 2), (2, 3)], 6)]
        )
        engine.decide(-3)
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(1)
        assert engine.trail.literal_is_true(2)

    def test_implication_reason_is_sufficient(self):
        engine = watched_with(
            4, [Constraint.greater_equal([(3, 1), (3, 2), (2, 3), (2, 4)], 6)]
        )
        engine.decide(-2)
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(1)
        # reason is in clause form: the implied literal plus the false
        # constraint literals (in their constraint polarity)
        reason = engine.trail.reason(1)
        assert 1 in reason and 2 in reason

    def test_necessary_assignment_implied_at_top_level(self):
        # total - coef(x1) = 6 < rhs: x1 is forced with an unconditional
        # (unit) reason before any decision is made
        engine = WatchedPropagator(4)
        engine.add_constraint(
            Constraint.greater_equal([(4, 1), (3, 2), (2, 3), (1, 4)], 7)
        )
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(1)
        assert engine.trail.level(1) == 0
        assert engine.trail.reason(1) == (1,)

    def test_degraded_constraint_detects_conflict(self):
        engine = watched_with(
            3, [Constraint.greater_equal([(2, 1), (2, 2), (2, 3)], 4)]
        )
        engine.assume(-1)
        engine.assume(-2)
        conflict = engine.propagate()
        assert isinstance(conflict, Conflict)
        assert set(conflict.literals) <= {1, 2}

    def test_backtrack_to_zero_restores_watched_sums(self):
        engine = watched_with(
            4, [Constraint.greater_equal([(3, 1), (3, 2), (2, 3), (2, 4)], 6)]
        )
        engine.decide(-1)
        assert engine.propagate() is None  # degrades and implies
        assert engine.trail.literal_is_true(2)
        engine.backtrack(0)
        assert not engine.trail.is_assigned(1)
        assert not engine.trail.is_assigned(2)
        engine.database.check_invariants()
        # the constraint still propagates correctly after the rewind
        engine.decide(-2)
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(1)

    def test_degradation_is_sticky_and_exact(self):
        # unequal coefficients: all-equal ones would classify as
        # cardinality and bypass the general PB scheme entirely
        engine = watched_with(
            4, [Constraint.greater_equal([(3, 1), (3, 2), (2, 3), (2, 4)], 6)]
        )
        engine.decide(-1)
        assert engine.propagate() is None
        (stored,) = engine.database.constraints
        assert stored.watch_all
        assert engine.database.pb_occ
        engine.backtrack(0)
        # sticky: the constraint stays in the counter regime, with wsum
        # tracking the exact non-false supply through undo events
        assert stored.watch_all
        assert stored.wsum == 10
        engine.database.check_invariants()

    def test_violated_at_add_returns_conflict(self):
        engine = WatchedPropagator(2)
        engine.assume(-1)
        engine.assume(-2)
        conflict = engine.add_constraint(
            Constraint.greater_equal([(2, 1), (2, 2)], 2)
        )
        assert isinstance(conflict, Conflict)

    def test_tautology_is_inert(self):
        engine = WatchedPropagator(2)
        assert engine.add_constraint(Constraint.greater_equal([(2, 1)], 0)) is None
        assert engine.propagate() is None
        assert not engine.trail.is_assigned(1)


# ----------------------------------------------------------------------
# Learned-constraint deletion (stale-reference audit)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["counter", "watched"])
class TestReduceLearnedMidSearch:
    def test_deleted_mid_search_never_wakes_again(self, backend):
        engine = make_engine(backend, 4)
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
        if backend == "watched":
            engine.database.check_invariants()
            for watch_map in (
                engine.database.clause_watch,
                engine.database.card_watch,
                engine.database.pb_watch,
            ):
                for entries in watch_map.values():
                    for entry in entries:
                        stored = entry[0] if isinstance(entry, tuple) else entry
                        assert id(stored) in live

    def test_deleted_general_pb_mid_search(self, backend):
        engine = make_engine(backend, 3)
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

    def test_pending_queue_purged_on_delete(self, backend):
        engine = make_engine(backend, 3)
        engine.decide(1)
        # added under assignment: sits in the pending queue unscanned
        engine.add_constraint(Constraint.clause([-1, 2, 3]), learned=True)
        assert engine.reduce_learned(lambda stored: False) == 1
        assert engine.propagate() is None
        assert not engine.trail.is_assigned(2)
        assert not engine.trail.is_assigned(3)


# ----------------------------------------------------------------------
# Row swaps (the stale-reference audit, for replaced records)
# ----------------------------------------------------------------------
def _referenced(engine):
    """Every record named by the engine's occurrence or watch lists and
    its pending queue."""
    database = engine.database
    if engine.name == "counter":
        maps = [database._occurrences]
    else:
        maps = [
            database.binary_watch,
            database.clause_watch,
            database.card_watch,
            database.pb_watch,
            database.pb_occ,
        ]
    records = [
        entry[0] if isinstance(entry, tuple) else entry
        for watch_map in maps
        for entries in watch_map.values()
        for entry in entries
    ]
    return records + list(engine._pending)


def _check_bookkeeping(engine):
    if engine.name == "counter":
        engine.database.check_slacks()
    else:
        engine.database.check_invariants()


@pytest.mark.parametrize("backend", ["counter", "watched"])
class TestReplaceMidSearch:
    def test_same_terms_tighten_in_place(self, backend):
        engine = make_engine(backend, 4)
        cut = Constraint.greater_equal([(3, 1), (2, 2), (2, 3), (1, 4)], 3)
        row = engine.replace_constraint(None, cut)
        assert engine.propagate() is None
        engine.decide(-1)
        assert engine.propagate() is None
        if backend == "watched":
            assert row.watch_all  # dense: the counter regime from birth
        tighter = Constraint(cut.terms, 4)
        assert engine.replace_constraint(row, tighter) is row
        assert row.constraint is tighter and row.queued
        # supply 5, slack 1: both coefficient-2 literals are implied
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(2) and engine.trail.literal_is_true(3)
        assert not engine.trail.is_assigned(4)
        _check_bookkeeping(engine)

    def test_replaced_record_is_never_referenced_again(self, backend):
        engine = make_engine(backend, 6)
        terms = [(5, 1), (4, 2), (3, 3), (1, 4), (1, 5), (1, 6)]
        row = engine.replace_constraint(None, Constraint.greater_equal(terms, 4))
        assert engine.propagate() is None
        engine.decide(-4)
        assert engine.propagate() is None
        # x1's coefficient saturates at the new rhs: the terms change,
        # so the row is re-attached in the same slot on every backend
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
        _check_bookkeeping(engine)
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
        _check_bookkeeping(engine)

    def test_replacing_a_deleted_row_attaches_a_new_one(self, backend):
        engine = make_engine(backend, 3)
        terms = ((2, 1), (1, 2), (1, 3))
        row = engine.replace_constraint(None, Constraint(terms, 2), learned=True)
        assert engine.reduce_learned(lambda stored: False) == 1
        new = engine.replace_constraint(row, Constraint(terms, 3), learned=True)
        assert new is not row and engine.database.constraints == [new]
        assert all(record is not row for record in _referenced(engine))
        engine.decide(-2)
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(1) and engine.trail.literal_is_true(3)
        _check_bookkeeping(engine)

"""Tests for persistent solving sessions (``repro.incremental``).

The load-bearing property is *cold-equivalence lockstep*: whatever a
warm session reports for the current effective instance under the
current assumptions, a fresh one-shot solver must report too.  The rest
of the file checks the push/pop frame lifecycle, assumption cores,
bounder-cache invalidation and the option screening.
"""

import pytest

import repro
from repro.api import solve
from repro.benchgen import (
    STREAM_BUILDERS,
    assumption_stream,
    constraint_stream,
    generate_ptl_mapping,
    objective_stream,
)
from repro.core import SolverOptions
from repro.core.options import UnsupportedOptionError
from repro.core.result import OPTIMAL, UNSATISFIABLE
from repro.core.solver import BsoloSolver
from repro.incremental import SessionStats, SolverSession, make_session
from repro.pb import Constraint, InfeasibleConstraintError, Objective, PBInstance


def covering_instance():
    """min 3a + 2b + 2c, clauses (a|b), (b|c), (a|c); optimum 4."""
    return PBInstance(
        [
            Constraint.clause([1, 2]),
            Constraint.clause([2, 3]),
            Constraint.clause([1, 3]),
        ],
        Objective({1: 3, 2: 2, 3: 2}),
    )


def options(**overrides):
    """Session-friendly options (bounded, deterministic)."""
    base = dict(preprocess=False)
    base.update(overrides)
    return SolverOptions(**base)


class TestSessionBasics:
    def test_repeated_solves_match_one_shot(self):
        session = make_session(covering_instance(), options())
        for _ in range(3):
            result = session.solve()
            assert result.status == OPTIMAL
            assert result.best_cost == 4
        assert session.stats.calls == 3

    def test_model_never_contains_guard_variable(self):
        session = make_session(covering_instance(), options())
        result = session.solve()
        assert set(result.model) <= {1, 2, 3}
        assert session.guard_var == 4

    def test_solve_under_respects_assumptions(self):
        session = make_session(covering_instance(), options())
        unconstrained = session.solve()
        assert unconstrained.best_cost == 4
        forced = session.solve_under([1])  # force the expensive variable
        assert forced.status == OPTIMAL
        assert forced.model[1] == 1
        assert forced.best_cost == 5  # a=3 plus one of b/c
        # the session is not poisoned by the previous assumptions
        assert session.solve().best_cost == 4

    def test_contradictory_assumptions_report_a_core(self):
        session = make_session(covering_instance(), options())
        result = session.solve_under([2, -2])
        assert result.status == UNSATISFIABLE
        assert result.core == (2, -2)
        # a prefix core: the contradiction needs both literals
        assert session.solve().status == OPTIMAL

    def test_assumption_conflicting_with_instance(self):
        # ~b forces both a and c through the clauses; also assume ~a.
        session = make_session(covering_instance(), options())
        result = session.solve_under([-2, -1])
        assert result.status == UNSATISFIABLE
        assert result.core == (-2, -1)

    def test_upper_bound_hint_keeps_lockstep(self):
        session = make_session(covering_instance(), options())
        hinted = session.solve_under((), upper_bound=5)
        assert hinted.status == OPTIMAL and hinted.best_cost == 4
        # a hint at the optimum: nothing better exists locally, so the
        # imported incumbent is confirmed optimal (its model lives with
        # whoever published the bound)
        confirmed = session.solve_under((), upper_bound=4)
        assert confirmed.status == OPTIMAL
        assert confirmed.best_cost == 4
        assert confirmed.best_assignment is None
        # and the hint must not leak into later calls
        later = session.solve()
        assert later.best_cost == 4 and later.best_assignment is not None

    def test_out_of_range_assumption_rejected(self):
        session = make_session(covering_instance(), options())
        with pytest.raises(ValueError):
            session.solve_under([99])
        assert session.solve().status == OPTIMAL  # still usable

    def test_calls_count_only_their_own_propagations(self):
        session = make_session(
            generate_ptl_mapping(seed=3), options(lower_bound="mis")
        )
        counts = [
            session.solve_under(assumptions).stats.propagations
            for assumptions in ([], [1], [-2], [3, -4])
        ]
        assert all(counts)
        assert sum(counts) == session.propagator.num_propagations

    def test_stats_snapshot(self):
        session = make_session(covering_instance(), options())
        session.solve()
        snapshot = session.stats.as_dict()
        assert snapshot["calls"] == 1
        assert set(snapshot) == set(SessionStats.__slots__)


class TestFrames:
    def test_push_add_pop_restores_instance(self):
        session = make_session(covering_instance(), options())
        base = session.solve().best_cost
        session.push()
        session.add_constraint(Constraint.clause([-2]))  # outlaw b
        assert session.depth == 1
        constrained = session.solve()
        assert constrained.best_cost == 5  # a + c
        session.pop()
        assert session.depth == 0
        assert session.solve().best_cost == base
        assert len(session.instance.constraints) == 3

    def test_nested_frames_pop_in_order(self):
        session = make_session(covering_instance(), options())
        session.push()
        session.add_constraint(Constraint.clause([-1]))  # outlaw a
        session.push()
        session.add_constraint(Constraint.clause([-3]))  # outlaw c too
        assert session.solve().status == UNSATISFIABLE
        session.pop()
        assert session.solve().best_cost == 4  # b + c
        session.pop()
        assert session.solve().best_cost == 4

    def test_pop_without_push_raises(self):
        session = make_session(covering_instance(), options())
        with pytest.raises(ValueError):
            session.pop()

    def test_add_constraint_validations(self):
        session = make_session(covering_instance(), options())
        with pytest.raises(InfeasibleConstraintError):
            session.add_constraint(Constraint.greater_equal([(1, 1)], 5))
        with pytest.raises(ValueError):
            session.add_constraint(Constraint.clause([9]))
        # tautologies are silently dropped, as PBInstance would
        session.add_constraint(Constraint.greater_equal([(1, 1), (1, -1)], 1))
        assert len(session.instance.constraints) == 3

    def test_pop_deletes_frame_learned_clauses(self):
        session = make_session(covering_instance(), options())
        session.push()
        session.add_constraint(Constraint.clause([-2]))
        session.solve()
        database = session.propagator.database
        session.pop()
        # nothing learned while the frame was open survives it
        leftover = [s for s in database.constraints if s.learned]
        assert leftover == []
        assert session.stats.learned_retained == 0

    def test_pop_invalidates_bounder_caches(self):
        session = make_session(covering_instance(), options(lower_bound="mis"))
        before = session.bounder
        session.push()
        session.add_constraint(Constraint.clause([-2]))
        after_add = session.bounder
        assert before is not after_add
        session.pop()
        assert session.bounder is not after_add

    def test_set_objective_changes_optimum(self):
        session = make_session(covering_instance(), options())
        assert session.solve().best_cost == 4
        session.set_objective({1: 1, 2: 10, 3: 1})
        repriced = session.solve()
        assert repriced.best_cost == 2  # a + c
        session.set_objective(Objective({1: 3, 2: 2, 3: 2}))
        assert session.solve().best_cost == 4

    def test_set_objective_out_of_range_rejected(self):
        session = make_session(covering_instance(), options())
        with pytest.raises(ValueError):
            session.set_objective({7: 1})


class TestOptionScreening:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("proof", "proof.log"),
            ("external_bound", lambda: None),
            ("should_stop", lambda: False),
        ],
    )
    def test_per_solve_options_rejected(self, field, value):
        with pytest.raises(UnsupportedOptionError):
            make_session(covering_instance(), SolverOptions(**{field: value}))

    def test_root_asserting_options_forced_off(self):
        session = make_session(
            covering_instance(),
            SolverOptions(preprocess=True),
        )
        assert session.solve().best_cost == 4


class TestLockstepStreams:
    """Cold-equivalence over the benchgen perturbation streams: every
    step of a warm session must match a fresh one-shot solver on the
    materialised instance."""

    @pytest.mark.parametrize("family", sorted(STREAM_BUILDERS))
    @pytest.mark.parametrize("seed", [11, 12])
    def test_stream_lockstep(self, family, seed):
        builder = STREAM_BUILDERS[family]
        stream = builder(
            num_variables=12, num_constraints=18, steps=6, seed=seed
        )
        for method in ("mis", "lpr"):
            opts = options(lower_bound=method)
            session = make_session(stream.instance, opts)
            for index, step in enumerate(stream.steps):
                if step.pop:
                    session.pop()
                if step.push is not None:
                    session.push()
                    session.add_constraint(step.push)
                if step.objective is not None:
                    session.set_objective(step.objective)
                warm = session.solve_under(step.assumptions)
                effective, assumptions = stream.materialize(index)
                cold = BsoloSolver(effective, opts)
                cold.set_assumptions(list(assumptions))
                reference = cold.solve()
                assert (warm.status, warm.best_cost) == (
                    reference.status,
                    reference.best_cost,
                ), "%s lockstep diverged at step %d of %s stream" % (
                    method, index, family
                )


class TestStreamGenerators:
    def test_materialize_tracks_frames(self):
        stream = constraint_stream(
            num_variables=10, num_constraints=14, steps=8, seed=5
        )
        base = len(stream.instance.constraints)
        depth = 0
        live = 0
        stack = []
        for index, step in enumerate(stream.steps):
            if step.pop:
                depth -= 1
                live = stack.pop()
            if step.push is not None:
                stack.append(live)
                live += 1
                depth += 1
            effective, _ = stream.materialize(index)
            assert len(effective.constraints) == base + live
        assert depth >= 0

    def test_objective_stream_varies_costs(self):
        stream = objective_stream(
            num_variables=10, num_constraints=14, steps=5, seed=5
        )
        objectives = [
            step.objective for step in stream.steps if step.objective
        ]
        assert len(objectives) == len(stream.steps)
        assert any(o != objectives[0] for o in objectives[1:])

    def test_streams_deterministic_under_seed(self):
        first = assumption_stream(seed=9)
        second = assumption_stream(seed=9)
        assert [s.assumptions for s in first.steps] == [
            s.assumptions for s in second.steps
        ]


class TestReentrancy:
    def test_mutation_inside_call_rejected(self):
        session = make_session(covering_instance(), options())
        session._in_call = True  # simulate a mid-solve callback
        try:
            with pytest.raises(RuntimeError):
                session.push()
            with pytest.raises(RuntimeError):
                session.add_constraint(Constraint.clause([1]))
            with pytest.raises(RuntimeError):
                session.solve()
        finally:
            session._in_call = False
        assert session.solve().status == OPTIMAL


class TestPackageSurface:
    def test_reexports(self):
        assert repro.SolverSession is SolverSession
        assert repro.make_session is make_session
        assert repro.UnsupportedOptionError is UnsupportedOptionError

    def test_session_matches_api_solve(self):
        instance = covering_instance()
        session = make_session(instance, options())
        assert (
            session.solve().best_cost
            == solve(instance, options=options()).best_cost
        )

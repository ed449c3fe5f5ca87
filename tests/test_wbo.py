"""Tests for the WBO soft-constraint front end (``repro.wbo``).

Covers the relaxation-variable compilation, decode's re-check of the
original soft constraints, both solver modes against a brute-force
oracle, the ``top`` hard budget, and the ``.wbo`` parser/writer.
"""

import itertools

import pytest

import repro
from repro.benchgen import generate_random_wbo, wbo_suite
from repro.core import SolverOptions
from repro.core.result import OPTIMAL, UNSATISFIABLE
from repro.incremental import SolverSession
from repro.pb import Constraint, Objective, PBInstance
from repro.pb.opb import OPBError, parse_wbo, write_wbo
from repro.wbo import (
    MODES,
    SoftConstraint,
    WBOInstance,
    WBOSolver,
    compile_to_pbo,
    decode,
    solve_wbo,
)


def simple_wbo(top=None):
    """Hard: a|b.  Soft: ~a (weight 2), ~b (weight 3); optimum 2."""
    return WBOInstance(
        [Constraint.clause([1, 2])],
        [
            SoftConstraint(Constraint.clause([-1]), 2),
            SoftConstraint(Constraint.clause([-2]), 3),
        ],
        num_variables=2,
        top=top,
    )


def brute_force_wbo(wbo):
    """Reference optimum by enumeration; None when hard-infeasible or
    every assignment busts ``top``."""
    best = None
    for bits in itertools.product([0, 1], repeat=wbo.num_variables):
        assignment = {v: bits[v - 1] for v in range(1, wbo.num_variables + 1)}
        if not all(c.is_satisfied_by(assignment) for c in wbo.hard):
            continue
        cost = wbo.cost_of(assignment)
        if wbo.top is not None and cost >= wbo.top:
            continue
        best = cost if best is None else min(best, cost)
    return best


class TestModel:
    def test_weights_validated(self):
        with pytest.raises(ValueError):
            SoftConstraint(Constraint.clause([1]), 0)
        with pytest.raises(ValueError):
            SoftConstraint(Constraint.clause([1]), -2)

    def test_cost_and_violations(self):
        wbo = simple_wbo()
        assert wbo.total_weight == 5
        assert wbo.cost_of({1: 1, 2: 0}) == 2
        assert wbo.violated_soft({1: 1, 2: 0}) == (0,)
        assert wbo.cost_of({1: 1, 2: 1}) == 5
        assert wbo.violated_soft({1: 0, 2: 0}) == ()


class TestCompilation:
    def test_relaxation_shape(self):
        compiled = compile_to_pbo(simple_wbo())
        # one relaxed copy per soft constraint, hard part first
        assert len(compiled.instance.constraints) == 3
        assert compiled.instance.num_variables == 4  # 2 orig + 2 relax
        assert compiled.base_cost == 0
        assert compiled.instance.objective.max_value == 5

    def test_decode_recovers_original_cost(self):
        wbo = simple_wbo()
        compiled = compile_to_pbo(wbo)
        # relax var for soft 0 set even though soft 0 actually holds:
        # decode must re-check the *original* softs, not trust r.
        assignment = {1: 0, 2: 1}
        assignment[compiled.relax_var[0]] = 1
        assignment[compiled.relax_var[1]] = 1
        model, cost, violated = decode(compiled, assignment)
        assert set(model) == {1, 2}
        assert cost == 3 and violated == (1,)

    def test_top_becomes_hard_budget(self):
        compiled = compile_to_pbo(simple_wbo(top=3))
        # the extra budget constraint outlaws cost >= 3
        assert len(compiled.instance.constraints) == 4

    def test_unsatisfiable_soft_folds_into_base_cost(self):
        wbo = WBOInstance(
            [Constraint.clause([1])],
            [
                SoftConstraint(
                    Constraint.greater_equal([(1, 1)], 5), 4
                ),  # never satisfiable
                SoftConstraint(Constraint.clause([-1]), 1),
            ],
            num_variables=1,
        )
        compiled = compile_to_pbo(wbo)
        assert compiled.base_cost == 4
        result = solve_wbo(wbo)
        assert result.status == OPTIMAL and result.cost == 5


class TestSolverModes:
    @pytest.mark.parametrize("mode", MODES)
    def test_simple_optimum(self, mode):
        result = solve_wbo(simple_wbo(), mode=mode)
        assert result.status == OPTIMAL
        assert result.cost == 2
        assert result.violated_soft == (0,)
        assert result.model == {1: 1, 2: 0}

    @pytest.mark.parametrize("mode", MODES)
    def test_top_prunes_and_can_unsat(self, mode):
        assert solve_wbo(simple_wbo(top=3), mode=mode).cost == 2
        # top=2: even the best assignment costs 2, which busts the budget
        result = solve_wbo(simple_wbo(top=2), mode=mode)
        assert result.status == UNSATISFIABLE

    @pytest.mark.parametrize("mode", MODES)
    def test_hard_unsatisfiable(self, mode):
        wbo = WBOInstance(
            [Constraint.clause([1]), Constraint.clause([-1])],
            [SoftConstraint(Constraint.clause([1]), 1)],
            num_variables=1,
        )
        assert solve_wbo(wbo, mode=mode).status == UNSATISFIABLE

    @pytest.mark.parametrize("mode", MODES)
    def test_zero_cost_when_all_softs_fit(self, mode):
        wbo = WBOInstance(
            [Constraint.clause([1, 2])],
            [SoftConstraint(Constraint.clause([1]), 7)],
            num_variables=2,
        )
        result = solve_wbo(wbo, mode=mode)
        assert result.status == OPTIMAL
        assert result.cost == 0 and result.violated_soft == ()

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances_match_brute_force(self, mode, seed):
        wbo = generate_random_wbo(
            num_variables=6,
            num_hard=5,
            num_soft=5,
            top_probability=0.3,
            seed=seed,
        )
        expected = brute_force_wbo(wbo)
        result = solve_wbo(wbo, mode=mode)
        if expected is None:
            assert result.status == UNSATISFIABLE
        else:
            assert result.status == OPTIMAL
            assert result.cost == expected
            if result.model is not None:
                assert wbo.cost_of(result.model) == expected

    def test_core_guided_records_cores(self):
        solver = WBOSolver(simple_wbo(), mode="core-guided")
        result = solver.solve()
        assert result.cost == 2
        assert len(solver.cores) >= 1
        for core in solver.cores:
            assert all(0 <= index < 2 for index in core)

    def test_core_guided_stats_sum_its_session_calls(self, monkeypatch):
        calls = []
        solve_under = SolverSession.solve_under

        def recording(session, *args, **kwargs):
            result = solve_under(session, *args, **kwargs)
            calls.append((session, result.stats))
            return result

        monkeypatch.setattr(SolverSession, "solve_under", recording)
        result = WBOSolver(generate_random_wbo(seed=1), mode="core-guided").solve()
        assert result.status == OPTIMAL
        assert len(calls) > 1
        session = calls[0][0]
        assert result.stats.propagations == session.propagator.num_propagations
        for field in (
            "lower_bound_calls",
            "cuts_added",
            "learned_constraints",
            "solutions_found",
            "decisions",
            "conflicts",
        ):
            assert getattr(result.stats, field) == sum(
                getattr(stats, field) for _, stats in calls
            ), field
        assert result.stats.lower_bound_calls > 0

    def test_options_respected(self):
        result = solve_wbo(
            simple_wbo(), options=SolverOptions(lower_bound="mis")
        )
        assert result.cost == 2

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            WBOSolver(simple_wbo(), mode="portfolio")


class TestWboFormat:
    def test_round_trip(self):
        wbo = simple_wbo(top=4)
        text = write_wbo(wbo)
        parsed = parse_wbo(text)
        assert parsed.top == 4
        assert len(parsed.hard) == 1
        assert [s.weight for s in parsed.soft] == [2, 3]
        assert solve_wbo(parsed).cost == solve_wbo(wbo).cost

    def test_parse_soft_header_and_weights(self):
        parsed = parse_wbo(
            "* comment\nsoft: 7 ;\n+1 x1 +1 x2 >= 1 ;\n[3] +1 x1 >= 1 ;\n"
        )
        assert parsed.top == 7
        assert len(parsed.hard) == 1 and len(parsed.soft) == 1
        assert parsed.soft[0].weight == 3

    def test_bare_soft_header_means_no_top(self):
        parsed = parse_wbo("soft: ;\n[1] +1 x1 >= 1 ;\n")
        assert parsed.top is None

    def test_soft_equality_rejected(self):
        with pytest.raises(OPBError):
            parse_wbo("soft: ;\n[1] +1 x1 = 1 ;\n")

    def test_hard_equality_splits(self):
        parsed = parse_wbo("soft: ;\n+1 x1 +1 x2 = 1 ;\n[1] +1 x1 >= 1 ;\n")
        assert len(parsed.hard) == 2

    def test_header_violations_rejected(self):
        with pytest.raises(OPBError):
            parse_wbo("soft: 0 ;\n[1] +1 x1 >= 1 ;\n")
        with pytest.raises(OPBError):
            parse_wbo("soft: ;\nsoft: ;\n[1] +1 x1 >= 1 ;\n")
        with pytest.raises(OPBError):
            parse_wbo("+1 x1 >= 1 ;\nsoft: ;\n")


class TestSuiteGenerators:
    def test_wbo_suite_shapes(self):
        suite = wbo_suite(count=2, seed=42)
        assert len(suite) == 2
        for wbo in suite:
            assert wbo.soft and wbo.hard
            assert solve_wbo(wbo).status in (OPTIMAL, UNSATISFIABLE)
        # the default suite has a planted hard part: both modes prove the
        # same optimum on every instance
        for wbo in wbo_suite(count=3, seed=7000):
            direct = WBOSolver(wbo, mode="direct").solve()
            core = WBOSolver(wbo, mode="core-guided").solve()
            assert direct.status == OPTIMAL
            assert (core.status, core.cost) == (direct.status, direct.cost)

    def test_reexports(self):
        assert repro.WBOInstance is WBOInstance
        assert repro.solve_wbo is solve_wbo
        assert repro.parse_wbo is parse_wbo
        assert repro.write_wbo is write_wbo

"""Tests for proof logging and independent checking (repro.certify)."""

import subprocess
import sys
from collections import Counter
from io import StringIO

import pytest

from repro.api import make_solver
from repro.benchgen import (
    generate_covering,
    generate_ptl_mapping,
    generate_routing,
    generate_scheduling,
)
from repro.certify import (
    CheckOutcome,
    ProofChecker,
    ProofError,
    ProofLogger,
    ProofSyntaxError,
)
from repro.certify import checker as checker_module
from repro.certify import format as fmt
from repro.certify import rules
from repro.core import BsoloSolver, SolverOptions
from repro.experiments.table1 import family_instances
from repro.lagrangian.subgradient import LagrangianBound
from repro.lp.relaxation import LPRelaxationBound
from repro.lp.simplex import solve_node_lp
from repro.lp.standard_form import build_lp_data
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


def solve_with_proof(instance, assumptions=None, **options):
    """Solve under a StringIO proof sink; returns (result, proof text)."""
    sink = StringIO()
    logger = ProofLogger(sink)
    solver = BsoloSolver(instance, SolverOptions(proof=logger, **options))
    result = solver.solve(assumptions=assumptions)
    logger.close()
    return result, sink.getvalue()


class TestFormatRoundTrip:
    def test_all_step_kinds_round_trip(self):
        steps = [
            fmt.Step(fmt.ASSUMPTION, literals=(3,)),
            fmt.Step(fmt.RUP, literals=(1, -2)),
            fmt.Step(fmt.SOLUTION, literals=(1, -2, 3)),
            fmt.Step(fmt.CARD_CUT, ids=(2,)),
            fmt.Step(
                fmt.BOUND_MIS, variables=(1,), ids=(2, 3), literals=(-1, 4)
            ),
            fmt.Step(
                fmt.BOUND_LIN, ids=(1, 2), multipliers=(3, 1), literals=(-1,)
            ),
            fmt.Step(fmt.CONTRADICTION),
            fmt.Step(fmt.END, status="optimal", cost=7),
        ]
        text = "\n".join(
            [fmt.HEADER, "f 3"] + [fmt.format_step(step) for step in steps]
        )
        num_inputs, parsed = fmt.parse_proof(text)
        assert num_inputs == 3
        assert len(parsed) == len(steps)
        for original, reparsed in zip(steps, parsed):
            assert reparsed.kind == original.kind
            assert fmt.format_step(reparsed) == fmt.format_step(original)

    def test_bad_header_rejected(self):
        with pytest.raises(ProofSyntaxError):
            fmt.parse_proof("nope\nf 1\n")

    def test_syntax_error_carries_line(self):
        text = fmt.HEADER + "\nf 1\nu 1 2 0\nq broken\n"
        with pytest.raises(ProofSyntaxError) as info:
            fmt.parse_proof(text)
        assert info.value.line == 4

    def test_end_statuses_validated(self):
        with pytest.raises(ProofSyntaxError):
            fmt.parse_proof(fmt.HEADER + "\nf 0\ne maybe\n")
        with pytest.raises(ProofSyntaxError):
            fmt.parse_proof(fmt.HEADER + "\nf 0\ne optimal\n")  # cost missing


class TestRules:
    def test_combine_and_cut_off(self):
        c1 = Constraint.greater_equal([(1, 1), (1, 2)], 1)
        c2 = Constraint.greater_equal([(1, -1), (1, 2)], 1)
        combined = rules.combine([(c1, 1), (c2, 1)])
        # x1 cancels: 2*x2 >= 1, so the unit clause (2,) is cut off
        assert rules.clause_cut_off(combined, [2])
        assert not rules.clause_cut_off(c1, [2])

    def test_combine_rejects_nonpositive_multiplier(self):
        c1 = Constraint.clause([1])
        with pytest.raises(ValueError):
            rules.combine([(c1, 0)])

    def test_improvement_axiom(self):
        replayer = rules.CutReplayer({1: 3, 2: 2})
        axiom = replayer.improvement_axiom(4)
        assert not axiom.is_satisfied_by({1: 1, 2: 1})  # cost 5 > 3
        assert axiom.is_satisfied_by({1: 1, 2: 0})  # cost 3 <= 3
        assert replayer.improvement_axiom(6).is_tautology  # every cost <= 5
        # constant objective: nothing to derive
        assert rules.CutReplayer({}).improvement_axiom(0).is_tautology

    def test_cardinality_cut_matches_paper_eq13(self):
        # x1+x2+x3 >= 2 with member costs 1,2,3: V = 1+2 = 3
        source = Constraint.at_least([1, 2, 3], 2)
        costs = {1: 1, 2: 2, 3: 3, 4: 5}
        cut = rules.CutReplayer(costs).cardinality_cut(source, upper=6)
        # outside budget: 6 - 1 - 3 = 2, so 5*x4 <= 2 forces x4 = 0
        assert cut is not None
        assert not cut.is_satisfied_by({4: 1})
        assert cut.is_satisfied_by({4: 0})

    def test_cardinality_cut_negative_budget_is_unsat(self):
        source = Constraint.at_least([1, 2], 2)
        replayer = rules.CutReplayer({1: 5, 2: 5})
        cut = replayer.cardinality_cut(source, upper=4)
        assert cut is not None and cut.is_unsatisfiable

    def test_check_mis_bound_accepts_sound_accounting(self):
        c1 = Constraint.clause([1, 2])
        costs = {1: 2, 2: 2}
        # ~clause pins x1 = 0; satisfying c1 then costs 2 >= upper
        assert rules.check_mis_bound([1], [], [c1], costs, upper=2)
        assert not rules.check_mis_bound([1], [], [c1], costs, upper=3)

    def test_check_mis_bound_rejects_double_charge(self):
        c1 = Constraint.clause([1, 2])
        c2 = Constraint.clause([2, 3])
        costs = {1: 1, 2: 1, 3: 1}
        # both constraints would charge x2: disjointness is violated and
        # the combined accounting must be refused outright
        assert not rules.check_mis_bound([1, 3], [], [c1, c2], costs, upper=3)


def scratch_cardinality_cut(source, costs, upper):
    """Eq. 13 built from scratch for one source (None: no row)."""
    if not source.is_cardinality or any(lit < 0 for lit in source.literals):
        return None
    members = set(source.literals)
    member_costs = sorted(costs.get(var, 0) for var in members)
    value_v = sum(member_costs[: source.cardinality_threshold])
    if value_v <= 0:
        return None
    outside = [(cost, var) for var, cost in costs.items() if var not in members]
    row = Constraint.less_equal(outside, upper - 1 - value_v)
    return None if row.is_tautology else row


class TestCutReplayer:
    @pytest.mark.parametrize("family", ["ptl", "mcnc", "grout"])
    def test_rows_equal_scratch_builds(self, family):
        """Every ``o`` row and every input's ``t`` row, at every bound
        from below the cheapest to above the dearest solution (the ``o``
        row is built whole, tautology included: every ``o`` step derives
        a row, while a vacuous ``t`` step is refused)."""
        (instance,), _ = family_instances(family, count=1, scale=0.3)
        costs = instance.objective.costs
        objective = [(cost, var) for var, cost in costs.items()]
        replayer = rules.CutReplayer(costs)
        rows = Counter()
        for upper in range(-1, sum(costs.values()) + 2):
            axiom = replayer.improvement_axiom(upper)
            assert axiom == Constraint.less_equal(objective, upper - 1), upper
            for source in instance.constraints:
                cut = replayer.cardinality_cut(source, upper)
                assert cut == scratch_cardinality_cut(source, costs, upper)
                if cut is not None:
                    rows["unsat" if cut.is_unsatisfiable else "cut"] += 1
        assert rows["unsat"] and rows["cut"]


class TestEndToEnd:
    def test_optimal_proof_verifies(self):
        instance = covering_instance()
        result, text = solve_with_proof(instance)
        assert result.is_optimal
        outcome = ProofChecker(instance).check_text(text)
        assert outcome.certified
        assert outcome.status == "optimal"
        assert outcome.cost == result.best_cost
        assert not outcome.conditional
        assert outcome.model is not None

    def test_unsat_proof_verifies(self):
        instance = PBInstance(
            [
                Constraint.clause([1, 2]),
                Constraint.clause([-1, 2]),
                Constraint.clause([1, -2]),
                Constraint.clause([-1, -2]),
            ]
        )
        result, text = solve_with_proof(instance)
        assert result.status == "unsatisfiable"
        outcome = ProofChecker(instance).check_text(text)
        assert outcome.status == "unsatisfiable"
        assert outcome.model is None

    def test_constant_objective_satisfiable_claim(self):
        instance = PBInstance([Constraint.clause([1, 2])])
        result, text = solve_with_proof(instance)
        assert result.solved
        outcome = ProofChecker(instance).check_text(text)
        assert outcome.status == "satisfiable"

    def test_assumptions_make_claim_conditional(self):
        instance = PBInstance(
            [Constraint.clause([1, 2]), Constraint.clause([-2, 3])],
            Objective({1: 1, 2: 1, 3: 1}),
        )
        result, text = solve_with_proof(instance, assumptions=[2])
        assert result.solved
        outcome = ProofChecker(instance).check_text(text)
        assert outcome.conditional

    @pytest.mark.parametrize(
        "options",
        [
            {"lower_bound": "lgr", "lgr_alpha_refinement": False},
            {"lower_bound": "mis"},
            {"lower_bound": "lgr"},
            {"lower_bound": "lpr", "lp_guided_branching": False, "preprocess": False},
            {"bound_conflict_learning": False},
            {"lower_bound": "mis", "cardinality_cuts": False, "max_learned": 3},
            {"upper_bound_cuts": False},
        ],
    )
    def test_option_mixes_all_certify(self, options):
        instance = covering_instance()
        result, text = solve_with_proof(instance, **options)
        assert result.is_optimal
        outcome = ProofChecker(instance).check_text(text)
        assert outcome.status == "optimal"
        assert outcome.cost == result.best_cost

    def test_quick_families_all_certify(self, monkeypatch):
        """Certify-after-solve across the quick families; each record
        carries its solve's declined prunes."""
        from repro.experiments import certsmoke

        run_one = certsmoke.run_one
        results = []

        def recording_run_one(*args):
            record = run_one(*args)
            results.append(record.result)
            return record

        monkeypatch.setattr(certsmoke, "run_one", recording_run_one)
        records = certsmoke.run_certsmoke(count=1, scale=0.25, time_limit=30.0)
        assert records, "no runs executed"
        bad = [row for row in records if not row["ok"]]
        assert not bad, bad
        declined = [row["uncertified_prunes"] for row in records]
        assert declined == [r.stats.uncertified_prunes for r in results]
        summary = certsmoke.format_certsmoke(records).splitlines()[-1]
        assert summary.endswith(", %d prunes declined" % sum(declined))

    def test_proof_mode_matches_reference_run(self):
        instance = covering_instance()
        reference = BsoloSolver(instance, SolverOptions()).solve()
        result, _ = solve_with_proof(instance)
        assert result.status == reference.status
        assert result.best_cost == reference.best_cost


#: One small seeded instance per Table 1 family, at the sizes of the
#: certified bench workload.  mcnc seed 1991 is clause-only; grout seed
#: 2032 is unsatisfiable, so bsolo-lgr's value prunes there all come
#: before any incumbent.
SAME_SEARCH_INSTANCES = {
    "acc": lambda: generate_scheduling(teams=8, seed=1997),
    "grout": lambda: generate_routing(
        rows=3, cols=3, nets=7, capacity=2, detours=5, seed=2032
    ),
    "mcnc": lambda: generate_covering(
        minterms=28, implicants=14, density=0.11, max_cost=120, seed=1991
    ),
    "ptl": lambda: generate_ptl_mapping(nodes=7, extra_edges=3, seed=432),
}


def search_counts(result):
    """What a proof must leave unchanged: the answer and the search."""
    stats = result.stats
    return (
        result.status,
        result.best_cost,
        stats.decisions,
        stats.conflicts,
        stats.lower_bound_calls,
    )


class TestProofOnlyRecords:
    """A proof records the search and never changes it: every bsolo mode
    runs the same root set-up and the same search with and without a
    ProofLogger, and declines no prune."""

    @pytest.mark.parametrize("family", sorted(SAME_SEARCH_INSTANCES))
    @pytest.mark.parametrize("solver", ["bsolo-lpr", "bsolo-mis", "bsolo-lgr"])
    def test_same_search_with_and_without_proof(self, solver, family):
        instance = SAME_SEARCH_INSTANCES[family]()
        plain = make_solver(instance, solver, SolverOptions()).solve()
        sink = StringIO()
        logger = ProofLogger(sink)
        proved = make_solver(instance, solver, SolverOptions(proof=logger)).solve()
        logger.close()
        assert proved.stats.uncertified_prunes == 0
        assert search_counts(proved) == search_counts(plain)
        outcome = ProofChecker(instance).check_text(sink.getvalue())
        assert (outcome.status, outcome.cost) == (proved.status, proved.best_cost)

    def test_lgr_value_prunes_before_the_first_incumbent(self):
        """Before any solution ``P.upper`` is ``max_value + 1``, so a
        Lagrangian value prune's multipliers alone cut the node off: the
        prune is certified without the improvement axiom, which no ``o``
        step has derived yet."""
        instance = SAME_SEARCH_INSTANCES["grout"]()
        result, text = solve_with_proof(instance, lower_bound="lgr")
        assert result.status == "unsatisfiable"
        assert result.stats.prunings > 0
        assert result.stats.uncertified_prunes == 0
        outcome = ProofChecker(instance).check_text(text)
        assert outcome.status == "unsatisfiable"


class TestProofModeOptions:
    def test_proof_with_external_bound_rejected(self):
        with pytest.raises(ValueError):
            SolverOptions(proof=ProofLogger(StringIO()), external_bound=object())

    def test_set_upper_bound_declined_under_proof(self):
        logger = ProofLogger(StringIO())
        solver = BsoloSolver(covering_instance(), SolverOptions(proof=logger))
        assert solver.set_upper_bound(100) is False

    def test_logger_cannot_be_reused(self):
        instance = covering_instance()
        logger = ProofLogger(StringIO())
        BsoloSolver(instance, SolverOptions(proof=logger)).solve()
        with pytest.raises(RuntimeError):
            BsoloSolver(instance, SolverOptions(proof=logger)).solve()


class TestAdversarial:
    """Tampered proofs must be rejected with step-numbered errors."""

    def _valid_proof(self):
        instance = covering_instance()
        result, text = solve_with_proof(instance)
        assert result.is_optimal
        return instance, text

    def _assert_rejected(self, instance, text):
        with pytest.raises(ProofError) as info:
            ProofChecker(instance).check_text(text)
        assert "proof step" in str(info.value) or "header" in str(info.value)
        return info.value

    def test_wrong_final_cost_rejected(self):
        instance, text = self._valid_proof()
        lines = text.splitlines()
        assert lines[-1].startswith("e optimal")
        lines[-1] = "e optimal 0"
        error = self._assert_rejected(instance, "\n".join(lines))
        assert error.step > 0

    def test_dropped_solution_step_rejected(self):
        instance, text = self._valid_proof()
        lines = [line for line in text.splitlines() if not line.startswith("o ")]
        self._assert_rejected(instance, "\n".join(lines))

    def test_truncated_proof_rejected(self):
        instance, text = self._valid_proof()
        lines = text.splitlines()[:-1]  # drop the final 'e' claim
        error = self._assert_rejected(instance, "\n".join(lines))
        assert "truncated" in str(error)

    def test_steps_after_end_rejected(self):
        instance, text = self._valid_proof()
        error = self._assert_rejected(instance, text + "u 1 0\n")
        assert "after the final" in str(error)

    def test_bogus_model_rejected(self):
        instance, text = self._valid_proof()
        lines = text.splitlines()
        for index, line in enumerate(lines):
            if line.startswith("o "):
                # flip every literal: the model violates the clauses
                literals = [-int(tok) for tok in line.split()[1:]]
                lines[index] = "o " + " ".join(str(lit) for lit in literals)
                break
        self._assert_rejected(instance, "\n".join(lines))

    def test_wrong_input_count_rejected(self):
        instance, text = self._valid_proof()
        lines = text.splitlines()
        assert lines[1] == "f 3"
        lines[1] = "f 2"
        error = self._assert_rejected(instance, "\n".join(lines))
        assert error.step == 0  # header-level mismatch

    def test_resolution_step_rejected(self):
        # A 'p' line (cutting-plane resolution replay) is no step kind of
        # the format, even when it states the sound resolvent of its
        # premises on x1: 2 x2 + x3 + x4 >= 2.
        c1 = Constraint.greater_equal([(2, 1), (1, 2), (1, 3)], 2)
        c2 = Constraint.greater_equal([(2, -1), (1, 2), (1, 4)], 2)
        instance = PBInstance([c1, c2])
        text = "\n".join(
            [fmt.HEADER, "f 2", "p 1 r 1 2 0 2 2 1 3 1 4 >= 2", "e unknown", ""]
        )
        error = self._assert_rejected(instance, text)
        assert error.line == 3
        assert "unknown step kind 'p'" in str(error)

    def test_forged_bound_explanation_rejected(self):
        # c1 justifies the bound clause, unrelated c2 does not
        c1 = Constraint.clause([1, 2])
        c2 = Constraint.clause([3, 4])
        instance = PBInstance([c1, c2], Objective({1: 2, 2: 2}))
        header = [fmt.HEADER, "f 2"]
        solution = fmt.format_step(
            fmt.Step(fmt.SOLUTION, literals=(1, -2, -3, 4))
        )  # cost 2 -> axiom id 3

        def bound(cid):
            return fmt.format_step(
                fmt.Step(
                    fmt.BOUND_MIS, variables=(), ids=(cid,), literals=(1,)
                )
            )

        good = "\n".join(header + [solution, bound(1), "e unknown", ""])
        ProofChecker(instance).check_text(good)  # sanity: c1 justifies it
        forged = "\n".join(header + [solution, bound(2), "e unknown", ""])
        error = self._assert_rejected(instance, forged)
        assert error.step == 2
        assert "MIS accounting" in str(error)

    def test_wrong_linear_multiplier_rejected(self):
        # multiplier 0 (and a combination too weak to cut the clause off)
        c1 = Constraint.greater_equal([(1, 1), (1, 2)], 1)
        instance = PBInstance([c1], Objective({1: 1, 2: 1}))
        header = [fmt.HEADER, "f 1"]
        solution = fmt.format_step(
            fmt.Step(fmt.SOLUTION, literals=(1, -2))
        )  # cost 1 -> axiom id 2: x1 + x2 <= 0

        def lin(ids, multipliers):
            return fmt.format_step(
                fmt.Step(
                    fmt.BOUND_LIN,
                    ids=ids,
                    multipliers=multipliers,
                    literals=(-1,),
                )
            )

        good = "\n".join(
            header + [solution, lin((1, 2), (1, 1)), "e unknown", ""]
        )
        ProofChecker(instance).check_text(good)  # sanity
        zero = "\n".join(
            header + [solution, lin((1, 2), (1, 0)), "e unknown", ""]
        )
        error = self._assert_rejected(instance, zero)
        assert "multiplier" in str(error)
        weak = "\n".join(header + [solution, lin((1,), (5,)), "e unknown", ""])
        error = self._assert_rejected(instance, weak)
        assert error.step == 2


class OracleDatabase:
    """From-scratch RUP reference: keeps every derived row, answers each
    query on copies of the root state, and rescans a whole row whenever
    its slack drops."""

    def __init__(self):
        self.rows = []
        self.occ = {}
        self.root_slack = []
        self.root_value = {}
        self.root_conflict = False

    def add(self, constraint):
        index = len(self.rows)
        self.rows.append(constraint)
        slack = -constraint.rhs
        for coef, lit in constraint.terms:
            self.occ.setdefault(lit, []).append((index, coef))
            value = self.root_value.get(abs(lit))
            if value is None or value == (lit > 0):
                slack += coef
        self.root_slack.append(slack)
        if self.root_conflict:
            return
        if slack < 0:
            self.root_conflict = True
            return
        implied = [
            lit
            for coef, lit in constraint.terms
            if coef > slack and abs(lit) not in self.root_value
        ]
        if implied and self.propagate(self.root_value, self.root_slack, implied):
            self.root_conflict = True

    def rup(self, literals):
        if self.root_conflict:
            return True
        return self.propagate(
            dict(self.root_value),
            list(self.root_slack),
            [-lit for lit in literals],
        )

    def propagate(self, values, slack, queue):
        for lit in queue:  # grows while it is read
            previous = values.get(abs(lit))
            if previous is not None:
                if previous != (lit > 0):
                    return True
                continue
            values[abs(lit)] = lit > 0
            for index, coef in self.occ.get(-lit, ()):
                slack[index] -= coef
                if slack[index] < 0:
                    return True
                queue.extend(
                    lit2
                    for coef2, lit2 in self.rows[index].terms
                    if coef2 > slack[index] and abs(lit2) not in values
                )
        return False


class LockstepDatabase(checker_module._Database):
    """The shipped database, checked against the oracle on every row it
    takes and every RUP query (and each one-literal-shorter query)."""

    def __init__(self):
        super().__init__()
        self.oracle = OracleDatabase()
        self.verdicts = Counter()

    def add(self, constraint, key=None):
        super().add(constraint, key)
        self.oracle.add(constraint)
        assert self.root_conflict == self.oracle.root_conflict

    def rup(self, literals):
        queries = [tuple(literals)] + [
            tuple(literals[:i]) + tuple(literals[i + 1 :])
            for i in range(len(literals))
        ]
        for query in reversed(queries):  # the clause itself goes last
            verdict = super().rup(query)
            assert verdict == self.oracle.rup(query), query
            self.verdicts[verdict] += 1
        return verdict


@pytest.fixture
def lockstep(monkeypatch):
    """Every database a checker builds, each in lockstep with the oracle."""
    databases = []

    class Recorded(LockstepDatabase):
        def __init__(self):
            super().__init__()
            databases.append(self)

    monkeypatch.setattr(checker_module, "_Database", Recorded)
    return databases


def rejected(instance, text):
    with pytest.raises(ProofError) as info:
        ProofChecker(instance).check_text(text)
    return info.value


class TestCheckerLockstep:
    @pytest.mark.parametrize(
        "family, scale", [("grout", 0.5), ("ptl", 0.3), ("mcnc", 0.5)]
    )
    def test_rup_verdicts_match_the_oracle(self, family, scale, lockstep):
        instances, _ = family_instances(family, count=2, scale=scale)
        for instance in instances:
            for options in ({}, {"lower_bound": "mis"}):
                result, text = solve_with_proof(instance, **options)
                outcome = ProofChecker(instance).check_text(text)
                assert outcome.status == result.status
        verdicts = sum((database.verdicts for database in lockstep), Counter())
        assert verdicts[True] and verdicts[False], verdicts
        # Some source's row was tightened in place instead of added.
        assert any(len(db._slack) < len(db.oracle.rows) for db in lockstep)

    def test_objective_row_tightened_in_place(self, lockstep):
        instance = PBInstance(
            [Constraint.clause([1, 2, 3, 4])],
            Objective({1: 1, 2: 1, 3: 1, 4: 1}),
        )
        steps = [
            "o 1 2 3 4 0",  # cost 4: at most 3 of x1..x4
            "o 1 2 3 -4 0",  # cost 3: at most 2, tightened in place
            "o 1 2 -3 -4 0",  # cost 2: at most 1, tightened again
            "u -1 -2 0",  # not both x1 and x2: needs "at most 1"
            "o 1 -2 -3 -4 0",  # cost 1: none, which violates the input
            "c",
            "e optimal 1",
        ]
        text = "\n".join([fmt.HEADER, "f 1"] + steps) + "\n"
        outcome = ProofChecker(instance).check_text(text)
        assert (outcome.status, outcome.cost) == ("optimal", 1)
        # The input, one objective row and the u clause.
        assert len(lockstep[0]._slack) == 3
        for tampered in (
            text.replace("o 1 2 -3 -4 0\n", ""),
            text.replace("o 1 2 -3 -4 0\n", "o 1 2 3 -4 0\n"),  # cost 3
        ):
            error = rejected(instance, tampered)
            assert "not RUP" in str(error)

    def test_cardinality_row_whose_saturation_changes(self, lockstep):
        # x1+x2+x3 >= 2 pays V = 2, so x4 (cost 4) and x5 (cost 1) get
        # at most upper - 3 between them.
        instance = PBInstance(
            [Constraint.at_least([1, 2, 3], 2)],
            Objective({1: 1, 2: 1, 3: 1, 4: 4, 5: 1}),
        )
        steps = [
            "o 1 2 3 4 5 0",  # cost 8
            "o 1 2 -3 4 5 0",  # cost 7
            "t 1",  # 1 ~x4 + 1 ~x5 >= 1
            "o 1 2 -3 4 -5 0",  # cost 6
            "t 1",  # 2 ~x4 + 1 ~x5 >= 2: new terms, a new row
            "u -4 0",  # needs the second t row
            "e unknown",
        ]
        text = "\n".join([fmt.HEADER, "f 1"] + steps) + "\n"
        ProofChecker(instance).check_text(text)
        replayer = rules.CutReplayer(instance.objective.costs)
        first, second = (
            replayer.cardinality_cut(instance.constraints[0], upper)
            for upper in (7, 6)
        )
        assert first.terms != second.terms
        error = rejected(instance, text.replace("t 1\nu -4 0", "u -4 0"))
        assert error.step == 5 and "not RUP" in str(error)
        # A source that yields no row at the bound is refused.
        error = rejected(
            instance, text.replace("o 1 2 -3 4 5 0\nt 1", "t 1")
        )
        assert "no cardinality cut" in str(error)


class TestDuplicateRows:
    """An instance holding a row twice gives each copy a multiplier; the
    certificate weighs the row by their sum."""

    ROW = Constraint.clause([1, 2])
    INSTANCE = PBInstance(
        [ROW, Constraint.clause([2, 3]), ROW], Objective({1: 2, 2: 3, 3: 2})
    )

    def certified(self, bound):
        logger = ProofLogger(StringIO())
        logger.start(self.INSTANCE)
        logger.log_solution([-1, 2, -3])  # the optimum, cost 3
        assert bound.value == logger.upper
        return logger.log_bound_linear([], list(bound.duals_by_row.items()))

    def test_lpr_duals_sum_over_copies(self):
        bound = LPRelaxationBound(self.INSTANCE).compute({})
        data = build_lp_data(self.INSTANCE, {})
        duals = solve_node_lp(data.c, data.A, data.b).duals
        copies = [dual for row, dual in zip(data.rows, duals) if row == self.ROW]
        assert len(copies) == 2
        assert bound.duals_by_row[self.ROW] == pytest.approx(sum(copies))
        assert self.certified(bound)

    def test_lgr_multipliers_sum_over_copies(self):
        lgr = LagrangianBound(self.INSTANCE)
        bound = lgr.compute({})
        # The copies ascend in step; warm starts keep one value per copy.
        assert bound.explanation.count(self.ROW) == 2
        assert bound.duals_by_row[self.ROW] == pytest.approx(
            2 * lgr._mu_memory[self.ROW]
        )
        assert self.certified(bound)

    def test_lgr_certifies_every_mcnc_prune(self):
        instances, labels = family_instances("mcnc", count=3, scale=0.5)
        instance = instances[labels.index("mcnc-3")]
        assert len(set(instance.constraints)) < len(instance.constraints)
        sink = StringIO()
        logger = ProofLogger(sink)
        result = make_solver(
            instance, "bsolo-lgr", SolverOptions(proof=logger)
        ).solve()
        logger.close()
        assert result.stats.uncertified_prunes == 0
        outcome = ProofChecker(instance).check_text(sink.getvalue())
        assert (outcome.status, outcome.cost) == ("optimal", result.best_cost)


class TestFarkasCertificate:
    """An infeasible node LP with no single-row witness: no row is
    violated and propagation forces nothing, yet the three pair clauses
    and "at most one of x1..x3" admit no point of the 0-1 box.  The LP's
    Farkas ray (1/2, 1/2, 1/2, 1) explains and certifies the root prune."""

    INSTANCE = PBInstance(
        [
            Constraint.clause([1, 2]),
            Constraint.clause([2, 3]),
            Constraint.clause([1, 3]),
            Constraint.at_most([1, 2, 3], 1),
        ],
        Objective({1: 1, 2: 2, 3: 3}),
    )

    @staticmethod
    def ray_step(multipliers):
        return fmt.format_step(
            fmt.Step(
                fmt.BOUND_LIN, ids=(1, 2, 3, 4), multipliers=multipliers, literals=()
            )
        )

    def test_ray_certifies_the_root_prune(self):
        result, text = solve_with_proof(
            self.INSTANCE, lower_bound="lpr", preprocess=False
        )
        assert result.status == "unsatisfiable"
        assert result.stats.uncertified_prunes == 0
        assert self.ray_step((1, 1, 1, 2)) in text.splitlines()
        outcome = ProofChecker(self.INSTANCE).check_text(text)
        assert outcome.status == "unsatisfiable"

    def test_corrupted_ray_rejected(self):
        _, text = solve_with_proof(
            self.INSTANCE, lower_bound="lpr", preprocess=False
        )
        forged = text.replace(
            self.ray_step((1, 1, 1, 2)), self.ray_step((1, 1, 1, 1))
        )
        assert forged != text
        error = rejected(self.INSTANCE, forged)
        assert "does not cut off" in str(error)


class TestCheckerIsolation:
    def test_checker_imports_no_search_code(self):
        """The trust base excludes repro.core and repro.engine entirely.

        Audits every import statement in src/repro/certify: the checker
        may depend on repro.pb arithmetic only, never on the search code
        whose answers it is supposed to verify.
        """
        import ast
        import pathlib

        import repro.certify

        package = pathlib.Path(repro.certify.__file__).parent
        forbidden = ("repro.core", "repro.engine")
        leaked = []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    if node.level:  # relative: resolve against repro.certify
                        base = "repro" if node.level == 2 else "repro.certify"
                        module = node.module or ""
                        names = [
                            ".".join(filter(None, (base, module, alias.name)))
                            for alias in node.names
                        ]
                    else:
                        names = [node.module or ""]
                else:
                    continue
                leaked.extend(
                    (path.name, name)
                    for name in names
                    if name.startswith(forbidden)
                )
        assert not leaked, leaked

    def test_certify_package_importable_standalone(self):
        """`import repro.certify` works in a fresh interpreter."""
        completed = subprocess.run(
            [sys.executable, "-c", "import repro.certify"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr


class TestCli:
    def test_certify_main_round_trip(self, tmp_path, capsys):
        from repro.cli import certify_main, main
        from repro.pb.opb import write_file

        instance = covering_instance()
        opb = tmp_path / "instance.opb"
        proof = tmp_path / "proof.pbp"
        write_file(instance, str(opb))
        assert main([str(opb), "--solver", "bsolo-lpr", "--proof", str(proof)]) == 0
        out = capsys.readouterr().out
        assert "c proof file=" in out
        assert certify_main([str(opb), str(proof)]) == 0
        out = capsys.readouterr().out
        assert "s VERIFIED" in out
        assert "c claim optimal" in out

    def test_certify_main_rejects_tampered(self, tmp_path, capsys):
        from repro.cli import certify_main, main
        from repro.pb.opb import write_file

        instance = covering_instance()
        opb = tmp_path / "instance.opb"
        proof = tmp_path / "proof.pbp"
        write_file(instance, str(opb))
        assert main([str(opb), "--proof", str(proof)]) == 0
        capsys.readouterr()
        text = proof.read_text().splitlines()
        text[-1] = "e optimal 0"
        tampered = tmp_path / "tampered.pbp"
        tampered.write_text("\n".join(text) + "\n")
        assert certify_main([str(opb), str(tampered)]) == 2
        out = capsys.readouterr().out
        assert "s NOT VERIFIED" in out
        assert "proof step" in out

    def test_proof_flag_guards(self, tmp_path):
        from repro.cli import main
        from repro.pb.opb import write_file

        opb = tmp_path / "instance.opb"
        write_file(covering_instance(), str(opb))
        with pytest.raises(SystemExit):
            main([str(opb), "--proof", "x.pbp", "--portfolio", "2"])
        with pytest.raises(SystemExit):
            main([str(opb), "--proof", "x.pbp", "--solver", "pbs"])


class TestStats:
    def test_uncertified_prunes_counter_present(self):
        result, _ = solve_with_proof(covering_instance())
        stats = result.stats.as_dict()
        assert "uncertified_prunes" in stats

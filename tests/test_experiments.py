"""Tests for the experiment harness (runner, table1, reporting)."""

import json

import pytest

from repro import make_solver
from repro.core import OPTIMAL, UNKNOWN, SolverOptions, SolveResult
from repro.experiments import (
    BSOLO_NAMES,
    FAMILIES,
    SOLVER_NAMES,
    RunRecord,
    Table1Result,
    family_instances,
    format_matrix,
    format_table1,
    generate_table1,
    run_matrix,
    run_one,
    solved_counts,
    write_records_jsonl,
)
from repro.pb import Constraint, Objective, PBInstance


def tiny_instance():
    return PBInstance(
        [Constraint.clause([1, 2]), Constraint.clause([-1, 2])],
        Objective({1: 2, 2: 1}),
    )


class TestRegistry:
    @pytest.mark.parametrize("name", SOLVER_NAMES)
    def test_all_solvers_constructible(self, name):
        solver = make_solver(tiny_instance(), name, SolverOptions(time_limit=5.0))
        assert hasattr(solver, "solve")

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError):
            make_solver(tiny_instance(), "minisat")

    @pytest.mark.parametrize("name", SOLVER_NAMES)
    def test_all_solvers_agree_on_tiny(self, name):
        record = run_one(name, tiny_instance(), "tiny", SolverOptions(time_limit=5.0))
        assert record.solved
        assert record.result.best_cost == 1  # x2 alone


class TestRunRecords:
    def test_cell_formats(self):
        record = run_one(
            "bsolo-lpr", tiny_instance(), "tiny", SolverOptions(time_limit=5.0)
        )
        cell = record.cell()
        assert cell.replace(".", "").isdigit()

    def test_matrix_and_counts(self):
        instances = [tiny_instance(), tiny_instance()]
        records = run_matrix(
            instances, ["a", "b"], solver_names=["pbs", "bsolo-lpr"], time_limit=5.0
        )
        assert set(records) == {"pbs", "bsolo-lpr"}
        assert len(records["pbs"]) == 2
        counts = solved_counts(records)
        assert counts == {"pbs": 2, "bsolo-lpr": 2}


class TestFamilies:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_family_instances(self, family):
        instances, labels = family_instances(family, count=2, scale=0.4)
        assert len(instances) == 2 and len(labels) == 2
        assert all(label.startswith(family.split("-")[0][:3]) for label in labels)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            family_instances("espresso")

    def test_acc_family_is_satisfaction(self):
        instances, _ = family_instances("acc", count=1, scale=0.4)
        assert instances[0].is_satisfaction

    def test_scale_changes_size(self):
        small, _ = family_instances("ptl", count=1, scale=0.3)
        large, _ = family_instances("ptl", count=1, scale=0.8)
        assert large[0].num_variables > small[0].num_variables


def table1_with_totals(totals):
    """A one-family :class:`Table1Result` whose bsolo columns solve
    ``totals`` (plain, MIS, LGR, LPR) of 20 instances."""
    records = {
        name: [
            RunRecord(name, "ptl-%d" % (i + 1),
                      SolveResult(OPTIMAL if i < count else UNKNOWN), 0.0)
            for i in range(20)
        ]
        for name, count in zip(BSOLO_NAMES, totals)
    }
    return Table1Result({"ptl": records}, BSOLO_NAMES)


class TestBsoloOrdering:
    @pytest.mark.parametrize(
        "totals,holds",
        [
            ((15, 16, 16, 20), True),
            ((15, 18, 16, 20), False),  # MIS above LGR
            ((16, 15, 17, 20), False),  # plain above MIS
            ((15, 16, 18, 17), False),  # LGR above LPR
        ],
        ids=["ties", "mis-above-lgr", "plain-above-mis", "lgr-above-lpr"],
    )
    def test_whole_chain_checked(self, totals, holds):
        assert table1_with_totals(totals).bsolo_ordering_holds() is holds


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        # miniature matrix: tiny instances, 2 solvers would break the
        # summary helpers, so use all bsolo + pbs at scale 0.3
        return generate_table1(
            time_limit=3.0,
            count=1,
            scale=0.3,
            families=("grout", "acc"),
        )

    def test_structure(self, result):
        assert set(result.per_family) == {"grout", "acc"}
        totals = result.solved_by_solver()
        assert set(totals) == set(SOLVER_NAMES)

    def test_formatting(self, result):
        text = format_table1(result)
        assert "#Solved" in text
        assert "grout-1" in text and "acc-1" in text
        assert "SAT" in text  # acc rows are pure satisfaction

    def test_solved_by_family(self, result):
        by_family = result.solved_by_family("bsolo-lpr")
        assert set(by_family) == {"grout", "acc"}

    def test_acc_identical(self, result):
        assert result.acc_rows_identical_for_bsolo()
        # without a cost function no bsolo variant calls its bounder
        for name in BSOLO_NAMES:
            for record in result.per_family["acc"][name]:
                assert record.result.stats.lower_bound_calls == 0

    def test_matrix_formatting_direct(self, result):
        text = format_matrix(result.per_family["grout"], SOLVER_NAMES)
        assert "Benchmark" in text

    def test_matrix_empty_inputs_return_empty_string(self, result):
        # regression: used to raise IndexError on empty solver_names
        assert format_matrix(result.per_family["grout"], []) == ""
        assert format_matrix([], SOLVER_NAMES) == ""
        assert format_matrix([], []) == ""

    def test_write_records_jsonl_round_trip(self, result, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        written = write_records_jsonl(
            result.per_family["grout"], path, extra={"family": "grout"}
        )
        with open(path) as handle:
            rows = [json.loads(line) for line in handle]
        assert len(rows) == written > 0
        assert all(row["family"] == "grout" for row in rows)
        assert {"solver", "instance", "status", "seconds", "stats"} <= set(
            rows[0]
        )
        appended = write_records_jsonl(
            result.per_family["acc"], path, extra={"family": "acc"}, append=True
        )
        with open(path) as handle:
            rows = [json.loads(line) for line in handle]
        assert len(rows) == written + appended

    def test_dump_stats_jsonl(self, result, tmp_path):
        path = str(tmp_path / "table1.jsonl")
        written = result.dump_stats_jsonl(path)
        with open(path) as handle:
            rows = [json.loads(line) for line in handle]
        assert len(rows) == written > 0
        assert {row["family"] for row in rows} == {"grout", "acc"}

"""Tests for the bsolo command-line interface."""

import json

import pytest

from repro import cli
from repro.obs import read_trace
from repro.pb import opb, parse


OPT_INSTANCE = """\
min: +3 x1 +2 x2 +2 x3 ;
+1 x1 +1 x2 >= 1 ;
+1 x2 +1 x3 >= 1 ;
+1 x1 +1 x3 >= 1 ;
"""

SAT_INSTANCE = "+1 x1 +1 x2 >= 1 ;\n"

UNSAT_INSTANCE = """\
+1 x1 >= 1 ;
+1 ~x1 >= 1 ;
"""


@pytest.fixture
def opt_file(tmp_path):
    path = tmp_path / "opt.opb"
    path.write_text(OPT_INSTANCE)
    return str(path)


class TestMain:
    def test_optimization(self, opt_file, capsys):
        exit_code = cli.main([opt_file])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "s OPTIMAL" in out
        assert "o 4" in out

    def test_solver_selection(self, opt_file, capsys):
        exit_code = cli.main([opt_file, "--solver", "galena"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "o 4" in out

    def test_stats_flag(self, opt_file, capsys):
        cli.main([opt_file, "--stats"])
        out = capsys.readouterr().out
        assert "c decisions" in out

    def test_model_flag(self, opt_file, capsys):
        cli.main([opt_file, "--model"])
        out = capsys.readouterr().out
        assert "v " in out
        model_line = [l for l in out.splitlines() if l.startswith("v ")][0]
        # model mentions all three variables with polarity
        assert "x1" in model_line and "x3" in model_line

    def test_satisfaction(self, tmp_path, capsys):
        path = tmp_path / "sat.opb"
        path.write_text(SAT_INSTANCE)
        exit_code = cli.main([str(path)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "s SATISFIABLE" in out

    def test_unsat(self, tmp_path, capsys):
        path = tmp_path / "unsat.opb"
        path.write_text(UNSAT_INSTANCE)
        exit_code = cli.main([str(path)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "s UNSATISFIABLE" in out

    def test_bad_solver_rejected(self, opt_file):
        with pytest.raises(SystemExit):
            cli.main([opt_file, "--solver", "z3"])

    def test_time_limit_accepted(self, opt_file, capsys):
        exit_code = cli.main([opt_file, "--time-limit", "30"])
        assert exit_code == 0

    def test_negative_time_limit_rejected(self, opt_file):
        with pytest.raises(SystemExit):
            cli.main([opt_file, "--time-limit", "-1"])

    def test_help_lists_registered_solvers(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        out = capsys.readouterr().out
        for name in ("bsolo-lpr", "linear-search", "milp", "portfolio"):
            assert name in out


class TestPortfolioFlag:
    def test_portfolio_run(self, opt_file, tmp_path, capsys):
        json_path = str(tmp_path / "stats.json")
        exit_code = cli.main(
            [opt_file, "--portfolio", "2", "--time-limit", "60",
             "--stats-json", json_path]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "s OPTIMAL" in out
        assert "o 4" in out
        assert "c portfolio workers=2" in out
        with open(json_path) as handle:
            payload = json.load(handle)
        assert payload["solver"] == "portfolio-2"
        assert payload["stats"]["portfolio"]["failures"] == 0

    def test_portfolio_rejects_bad_count(self, opt_file):
        with pytest.raises(SystemExit):
            cli.main([opt_file, "--portfolio", "0"])

    def test_portfolio_accepts_trace_and_merges(self, opt_file, tmp_path):
        trace_path = str(tmp_path / "t.jsonl")
        code = cli.main(
            [opt_file, "--portfolio", "2", "--trace", trace_path]
        )
        assert code == 0
        records = read_trace(trace_path)
        assert sorted({r["worker_id"] for r in records}) == [0, 1]


class TestObservabilityFlags:
    def test_stats_floats_have_six_decimals(self, opt_file, capsys):
        cli.main([opt_file, "--stats"])
        out = capsys.readouterr().out
        elapsed_lines = [
            l for l in out.splitlines() if l.startswith("c elapsed ")
        ]
        assert len(elapsed_lines) == 1
        value = elapsed_lines[0].split()[-1]
        assert "." in value and len(value.split(".")[1]) == 6

    def test_trace_flag_writes_valid_jsonl(self, opt_file, tmp_path, capsys):
        trace_path = str(tmp_path / "run.jsonl")
        exit_code = cli.main([opt_file, "--trace", trace_path])
        assert exit_code == 0
        records = read_trace(trace_path)  # every line parses as JSON
        assert records[0]["kind"] == "run_header"
        assert records[0]["instance"] == opt_file
        assert records[-1]["kind"] == "result"
        assert records[-1]["status"] == "optimal"
        times = [r["t"] for r in records]
        assert times == sorted(times)

    def test_profile_flag_prints_table(self, opt_file, capsys):
        cli.main([opt_file, "--profile"])
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert any(l.startswith("c phase") for l in lines)
        assert any(l.startswith("c total") for l in lines)
        total_line = [l for l in lines if l.startswith("c total")][0]
        assert "100.0%" in total_line

    def test_stats_json_flag(self, opt_file, tmp_path, capsys):
        json_path = str(tmp_path / "stats.json")
        exit_code = cli.main([opt_file, "--stats-json", json_path])
        assert exit_code == 0
        with open(json_path) as handle:
            payload = json.load(handle)
        assert payload["status"] == "optimal"
        assert payload["cost"] == 4
        assert payload["solver"] == "bsolo-lpr"
        assert payload["instance"] == opt_file
        assert payload["stats"]["decisions"] >= 0
        assert payload["stats"]["lower_bound_calls"] >= 1

    def test_progress_flag_accepted(self, opt_file, capsys):
        exit_code = cli.main(
            [opt_file, "--progress", "--progress-interval", "1"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        progress_lines = [
            l for l in out.splitlines() if l.startswith("c progress ")
        ]
        assert progress_lines, "interval=1 should print at least one heartbeat"
        assert "conflicts=" in progress_lines[0]

    def test_all_flags_together(self, opt_file, tmp_path, capsys):
        trace_path = str(tmp_path / "run.jsonl")
        json_path = str(tmp_path / "stats.json")
        exit_code = cli.main(
            [
                opt_file,
                "--profile",
                "--trace",
                trace_path,
                "--stats-json",
                json_path,
                "--stats",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "s OPTIMAL" in out
        records = read_trace(trace_path)
        assert records[0]["kind"] == "run_header"
        assert records[-1]["kind"] == "result"
        with open(json_path) as handle:
            payload = json.load(handle)
        # profiling was on, so phase times land in the JSON stats too
        assert payload["stats"]["phase_times"]
        assert any("c phase_times." in l for l in out.splitlines())

    def test_trace_works_for_pbs_baseline(self, opt_file, tmp_path, capsys):
        trace_path = str(tmp_path / "pbs.jsonl")
        exit_code = cli.main(
            [opt_file, "--solver", "pbs", "--trace", trace_path]
        )
        assert exit_code == 0
        records = read_trace(trace_path)
        assert records[0]["kind"] == "run_header"
        assert records[0]["solver"] == "pbs-like"
        assert records[-1]["kind"] == "result"


class TestMetricsAndHotspotFlags:
    def test_metrics_flag_writes_exposition_file(self, opt_file, tmp_path):
        metrics_path = str(tmp_path / "metrics.txt")
        exit_code = cli.main([opt_file, "--metrics", metrics_path])
        assert exit_code == 0
        text = open(metrics_path).read()
        assert "# TYPE solver_decisions counter" in text
        assert "engine_propagations" in text

    def test_metrics_dash_prints_c_prefixed(self, opt_file, capsys):
        exit_code = cli.main([opt_file, "--metrics", "-"])
        assert exit_code == 0
        out = capsys.readouterr().out
        metric_lines = [
            l for l in out.splitlines() if l.startswith("c solver_decisions")
        ]
        assert metric_lines


class TestObsSubcommand:
    def _write_worker_traces(self, tmp_path, count=2):
        from repro.obs.merge import write_records

        paths = []
        for worker_id in range(count):
            records = [
                {
                    "kind": "run_header", "t": 0.0,
                    "epoch": 100.0 + worker_id, "solver": "bsolo",
                    "instance": "w%d" % worker_id, "options": {},
                },
                {
                    "kind": "result", "t": 0.5,
                    "status": "optimal", "cost": 4,
                },
            ]
            path = str(tmp_path / ("t.jsonl.w%d" % worker_id))
            write_records(path, records)
            paths.append(path)
        return paths

    def test_obs_merge_combines_worker_traces(self, tmp_path, capsys):
        paths = self._write_worker_traces(tmp_path)
        out_path = str(tmp_path / "merged.jsonl")
        exit_code = cli.obs_main(["merge", out_path] + paths)
        assert exit_code == 0
        assert "merged" in capsys.readouterr().out
        records = read_trace(out_path)
        assert sorted({r["worker_id"] for r in records}) == [0, 1]

    def test_obs_report_renders_worker_table(self, tmp_path, capsys):
        paths = self._write_worker_traces(tmp_path)
        out_path = str(tmp_path / "merged.jsonl")
        cli.obs_main(["merge", out_path] + paths)
        capsys.readouterr()
        exit_code = cli.obs_main(["report", out_path])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("worker")
        assert "straggler" in out

    def test_obs_report_single_trace_summary(self, opt_file, tmp_path, capsys):
        trace_path = str(tmp_path / "run.jsonl")
        cli.main([opt_file, "--trace", trace_path])
        capsys.readouterr()
        exit_code = cli.obs_main(["report", trace_path])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "status: optimal" in out
        assert "gap" in out

"""Tests for the benchmark regression tracker (tools/benchdiff.py).

Covers the comparison rules (lockstep always; relative/rate/cost checks
same-config only), the findings renderer, and the
CLI exit-code contract (0 clean, 1 regression, 2 IO error).
"""

from __future__ import annotations

import copy
import importlib.util
import json
import os
import sys

import pytest

_TOOLS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools")
_SPEC = importlib.util.spec_from_file_location(
    "benchdiff", os.path.join(_TOOLS, "benchdiff.py")
)
benchdiff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchdiff)


def _report(config=None):
    """A small propbench-shaped report fixture."""
    return {
        "config": config if config is not None else {"rounds": 10, "scale": 1.0},
        "families": {
            "mcnc": {
                "drive": {
                    "lockstep_props_equal": True,
                    "speedup_watched": 1.8,
                    "props_per_sec": 100000.0,
                },
                "solve": {
                    "costs": [4, 7],
                    "statuses": ["optimal", "optimal"],
                },
            }
        },
    }


class TestCompareReports:
    """Comparison rule semantics."""

    def test_self_diff_is_clean(self):
        report = _report()
        findings = benchdiff.compare_reports(report, copy.deepcopy(report))
        assert findings
        assert not any(f["regression"] for f in findings)

    def test_lockstep_flip_is_always_a_regression(self):
        base = _report()
        cand = _report(config={"rounds": 1})  # different config
        cand["families"]["mcnc"]["drive"]["lockstep_props_equal"] = False
        findings = benchdiff.compare_reports(base, cand)
        bad = [f for f in findings if f["regression"]]
        assert len(bad) == 1
        assert bad[0]["kind"] == "lockstep"

    def test_speedup_drop_beyond_tolerance_flagged(self):
        base, cand = _report(), _report()
        cand["families"]["mcnc"]["drive"]["speedup_watched"] = 1.0
        findings = benchdiff.compare_reports(base, cand, tolerance=25.0)
        bad = [f for f in findings if f["regression"]]
        assert [f["kind"] for f in bad] == ["relative"]

    def test_speedup_drop_within_tolerance_passes(self):
        base, cand = _report(), _report()
        cand["families"]["mcnc"]["drive"]["speedup_watched"] = 1.5
        findings = benchdiff.compare_reports(base, cand, tolerance=25.0)
        assert not any(f["regression"] for f in findings)

    def test_rate_drop_uses_rate_tolerance(self):
        base, cand = _report(), _report()
        cand["families"]["mcnc"]["drive"]["props_per_sec"] = 45000.0
        findings = benchdiff.compare_reports(base, cand, rate_tolerance=50.0)
        bad = [f for f in findings if f["regression"]]
        assert [f["kind"] for f in bad] == ["rate"]
        # generous tolerance forgives the same drop
        findings = benchdiff.compare_reports(base, cand, rate_tolerance=60.0)
        assert not any(f["regression"] for f in findings)

    def test_different_config_skips_scale_dependent_checks(self):
        base = _report()
        cand = _report(config={"rounds": 1})
        cand["families"]["mcnc"]["drive"]["speedup_watched"] = 0.1
        cand["families"]["mcnc"]["drive"]["props_per_sec"] = 1.0
        cand["families"]["mcnc"]["solve"]["costs"] = [999, 999]
        findings = benchdiff.compare_reports(base, cand)
        assert not any(f["regression"] for f in findings)
        kinds = {f["kind"] for f in findings}
        assert kinds == {"lockstep"}

    def test_worse_cost_is_a_regression(self):
        base, cand = _report(), _report()
        cand["families"]["mcnc"]["solve"]["costs"] = [4, 8]
        findings = benchdiff.compare_reports(base, cand)
        bad = [f for f in findings if f["regression"]]
        assert [f["kind"] for f in bad] == ["costs"]

    def test_fewer_solved_statuses_is_a_regression(self):
        base, cand = _report(), _report()
        cand["families"]["mcnc"]["solve"]["statuses"] = ["optimal", "unknown"]
        findings = benchdiff.compare_reports(base, cand)
        bad = [f for f in findings if f["regression"]]
        assert [f["kind"] for f in bad] == ["statuses"]

    def test_metric_missing_from_candidate_is_skipped(self):
        base, cand = _report(), _report()
        del cand["families"]["mcnc"]["drive"]["speedup_watched"]
        findings = benchdiff.compare_reports(base, cand)
        assert not any(f["regression"] for f in findings)
        assert not any(
            f["metric"].endswith("speedup_watched") for f in findings
        )


class TestFormatFindings:
    """Human-readable rendering."""

    def test_flags_and_summary_line(self):
        base, cand = _report(), _report()
        cand["families"]["mcnc"]["drive"]["lockstep_props_equal"] = False
        text = benchdiff.format_findings(
            benchdiff.compare_reports(base, cand)
        )
        assert "REGRESSION" in text
        lines = text.splitlines()
        assert lines[-1].endswith("1 regression(s)")

    def test_empty_findings(self):
        assert "no comparable metrics" in benchdiff.format_findings([])


class TestMain:
    """CLI exit-code contract."""

    def _write(self, tmp_path, name, report):
        path = tmp_path / name
        path.write_text(json.dumps(report))
        return str(path)

    def test_clean_diff_exits_zero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _report())
        cand = self._write(tmp_path, "cand.json", _report())
        assert benchdiff.main([base, cand]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

    def test_regression_exits_one_and_writes_report(self, tmp_path):
        doctored = _report()
        doctored["families"]["mcnc"]["drive"]["lockstep_props_equal"] = False
        base = self._write(tmp_path, "base.json", _report())
        cand = self._write(tmp_path, "cand.json", doctored)
        out = str(tmp_path / "findings.json")
        assert benchdiff.main([base, cand, "--report", out]) == 1
        payload = json.loads(open(out).read())
        assert payload["regressions"] == 1
        assert any(f["regression"] for f in payload["findings"])

    def test_missing_file_exits_two(self, tmp_path):
        base = self._write(tmp_path, "base.json", _report())
        with pytest.raises(SystemExit) as exc:
            benchdiff.main([base, str(tmp_path / "absent.json")])
        assert exc.value.code == 2

    def test_missing_candidate_is_usage_error(self, tmp_path):
        base = self._write(tmp_path, "base.json", _report())
        with pytest.raises(SystemExit) as exc:
            benchdiff.main([base])
        assert exc.value.code == 2

    def test_tolerance_flags_change_verdict(self, tmp_path):
        cand_report = _report()
        cand_report["families"]["mcnc"]["drive"]["speedup_watched"] = 1.0
        base = self._write(tmp_path, "base.json", _report())
        cand = self._write(tmp_path, "cand.json", cand_report)
        assert benchdiff.main([base, cand]) == 1
        assert benchdiff.main([base, cand, "--tolerance", "60"]) == 0

"""Self-test of the benchmark on a tiny configuration.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from bench.__main__ import ROOT, SPEC, SRC, WORKLOADS, main

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from bench import workloads  # noqa: E402
from bench.solves import run_solves  # noqa: E402

#: Seconds per run: one or two rounds of each solve workload, ~20 jobs.
TINY = 0.3

#: Per-layer counts that must repeat exactly on the same inputs.
COUNTS = (
    "engine.propagations", "engine.conflicts", "solver.decisions", "solver.lb_calls",
    "mis.calls", "lp.calls", "lp.simplex_iterations", "certify.steps", "certify.bytes",
)


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("trace", ("0", "1"))
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_listed_metric_is_emitted_with_its_unit(name, trace, capsys):
    assert main(["--workload", name, "--seconds", str(TINY), "--trace", trace]) == 0
    result = _result(capsys)
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"] == {
        metric["name"]: {"value": result["metrics"][metric["name"]]["value"], "unit": metric["unit"]}
        for metric in listed
    }
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_a_wrong_reference_cost_fails_the_run(monkeypatch, capsys):
    real = workloads.reference

    def off_by_one(*args):
        status, cost = real(*args)
        return status, None if cost is None else cost + 1

    monkeypatch.setattr(workloads, "reference", off_by_one)
    assert main(["--workload", "table1-lpr", "--seconds", str(TINY)]) == 1
    result = _result(capsys)
    assert not result["correct"] and result["failed"] > 0


def test_phases_plus_other_equal_each_solve_span():
    spec = workloads.SOLVE_WORKLOADS["certified"]
    tasks, warmup = workloads.solve_tasks(spec, 0, TINY)
    ledger = run_solves(spec, tasks, warmup, SRC, True)["ledger"]
    for trace in range(len(tasks)):
        (span,) = [s for s in ledger.spans if s["trace"] == trace and s["name"] == "solve"]
        phases = {p["name"]: p["seconds"] for p in ledger.phases
                  if p["trace"] == trace and p["parent"] == "solve"}
        assert {"preprocess", "proof", "other"} <= set(phases)
        assert phases["other"] > -1e-6
        assert sum(phases.values()) == pytest.approx(span["end"] - span["start"], abs=1e-9)


@pytest.mark.parametrize("name", WORKLOADS)
def test_the_seed_fixes_the_inputs(name):
    def inputs(seed):
        if name in workloads.SOLVE_WORKLOADS:
            tasks, warmup = workloads.solve_tasks(workloads.SOLVE_WORKLOADS[name], seed, TINY)
        else:
            tasks, warmup = workloads.service_jobs(seed, 20)
        return workloads.digest(warmup + tasks)

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


@pytest.mark.parametrize("name", ("search-mis", "certified"))
def test_per_layer_counts_repeat_across_traced_runs(name):
    spec = workloads.SOLVE_WORKLOADS[name]
    tasks, warmup = workloads.solve_tasks(spec, 0, TINY)
    first, second = (run_solves(spec, tasks, warmup, SRC, True)["per_layer"] for _ in range(2))
    assert {key: first[key] for key in COUNTS} == {key: second[key] for key in COUNTS}
    assert first["engine.conflicts"] > 0


def test_renamed_resubmissions_keep_their_answer():
    from repro import parse

    jobs, _ = workloads.service_jobs(0, 60)
    renamed = [job for job in jobs if "~" in job.label]
    assert renamed
    for job in renamed:
        assert workloads.reference(parse(job.text), job.text, ("brute-force",)) == job.expected


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run([sys.executable, "-m", "bench", "--workload", "table1-lpr"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert run.returncode != 0
    assert '"metrics"' not in run.stdout

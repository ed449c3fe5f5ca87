"""Tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro import JsonlTracer, SolverOptions, parse, solve
from repro.baselines.linear_search import LinearSearchSolver
from repro.obs import (
    EVENT_KINDS,
    DecisionEvent,
    IncumbentEvent,
    LowerBoundEvent,
    ProgressEvent,
    ResultEvent,
    RunHeaderEvent,
    event_from_record,
    format_profile,
    format_progress,
    gap_history,
    read_trace,
    trace_summary,
)
from repro.obs.timers import NULL_TIMER, NullPhaseTimer, PhaseTimer
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer


OPT_INSTANCE = """\
min: +3 x1 +2 x2 +2 x3 ;
+1 x1 +1 x2 >= 1 ;
+1 x2 +1 x3 >= 1 ;
+1 x1 +1 x3 >= 1 ;
"""


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, dt):
        self.now += dt

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# PhaseTimer
# ----------------------------------------------------------------------
class TestPhaseTimer:
    def test_flat_phases(self):
        clock = FakeClock()
        timer = PhaseTimer(clock=clock)
        timer.push("a")
        clock.advance(1.0)
        timer.pop()
        timer.push("b")
        clock.advance(2.0)
        timer.pop()
        assert timer.totals == {"a": 1.0, "b": 2.0}

    def test_nesting_is_exclusive(self):
        clock = FakeClock()
        timer = PhaseTimer(clock=clock)
        timer.push("outer")
        clock.advance(1.0)
        timer.push("inner")
        clock.advance(2.0)
        timer.pop()
        clock.advance(3.0)
        timer.pop()
        # outer gets its own 1s + 3s; inner's 2s is attributed only once
        assert timer.totals == {"outer": 4.0, "inner": 2.0}
        assert sum(timer.totals.values()) == pytest.approx(6.0)

    def test_reentrant_phase_accumulates(self):
        clock = FakeClock()
        timer = PhaseTimer(clock=clock)
        for dt in (1.0, 2.0):
            timer.push("p")
            clock.advance(dt)
            timer.pop()
        assert timer.totals == {"p": 3.0}

    def test_context_manager(self):
        clock = FakeClock()
        timer = PhaseTimer(clock=clock)
        with timer.phase("a"):
            clock.advance(1.5)
        assert timer.totals == {"a": 1.5}

    def test_snapshot_includes_running_segment(self):
        clock = FakeClock()
        timer = PhaseTimer(clock=clock)
        timer.push("a")
        clock.advance(1.0)
        assert timer.snapshot() == {"a": 1.0}
        assert timer.totals == {}  # not banked yet
        timer.pop()
        assert timer.totals == {"a": 1.0}

    def test_pop_without_push_raises(self):
        with pytest.raises(RuntimeError):
            PhaseTimer().pop()

    def test_null_timer_is_inert(self):
        assert not NULL_TIMER.enabled
        NULL_TIMER.push("x")
        assert NULL_TIMER.pop() == ""
        with NULL_TIMER.phase("y"):
            pass
        assert NULL_TIMER.totals == {}
        assert NULL_TIMER.snapshot() == {}
        assert isinstance(NULL_TIMER, NullPhaseTimer)


# ----------------------------------------------------------------------
# Tracer / JSONL round trip
# ----------------------------------------------------------------------
class TestJsonlTracer:
    def test_round_trip_kinds_and_order(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        clock = FakeClock()
        tracer = JsonlTracer(path, clock=clock)
        tracer.emit(RunHeaderEvent(solver="s", instance="i", options={"a": 1}))
        clock.advance(0.5)
        tracer.emit(DecisionEvent(literal=-3, level=1))
        clock.advance(0.25)
        tracer.emit(ResultEvent(status="optimal", cost=4, decisions=1, conflicts=0))
        tracer.close()

        records = read_trace(path)
        assert [r["kind"] for r in records] == ["run_header", "decision", "result"]
        assert records[0]["options"] == {"a": 1}
        assert records[1]["literal"] == -3
        assert records[2]["cost"] == 4
        # monotonic relative timestamps starting at 0
        times = [r["t"] for r in records]
        assert times[0] == 0.0
        assert times == sorted(times)
        # every record re-hydrates into a typed event
        events = [event_from_record(r) for r in records]
        assert isinstance(events[0], RunHeaderEvent)
        assert all(e.kind in EVENT_KINDS for e in events)

    def test_buffering_batches_writes(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = JsonlTracer(path, buffer_size=10)
        for _ in range(25):
            tracer.emit(DecisionEvent(literal=1, level=1))
        assert tracer.writes == 2  # two full buffers so far
        tracer.close()
        assert tracer.writes == 3
        assert len(read_trace(path)) == 25

    def test_context_manager_closes(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonlTracer(path) as tracer:
            tracer.emit(DecisionEvent(literal=2, level=1))
        assert len(read_trace(path)) == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            event_from_record({"kind": "nope"})


class TestNullTracerOverheadPath:
    def test_null_tracer_is_disabled_and_inert(self):
        assert not NULL_TRACER.enabled
        NULL_TRACER.emit(DecisionEvent(literal=1, level=1))  # no-op
        NULL_TRACER.flush()
        NULL_TRACER.close()
        assert isinstance(NULL_TRACER, NullTracer)

    def test_default_solve_uses_null_tracer_and_no_phase_times(self):
        instance = parse(OPT_INSTANCE)
        result = solve(instance, SolverOptions())
        assert result.status == "optimal"
        assert result.stats.phase_times == {}

    def test_disabled_tracer_receives_no_events(self):
        class Recording(Tracer):
            enabled = False

            def __init__(self):
                self.events = []

            def emit(self, event):
                self.events.append(event)

        recorder = Recording()
        instance = parse(OPT_INSTANCE)
        result = solve(instance, SolverOptions(tracer=recorder))
        assert result.status == "optimal"
        # all call sites honour the enabled guard: zero emissions
        assert recorder.events == []


# ----------------------------------------------------------------------
# Solver integration
# ----------------------------------------------------------------------
class TestSolverTraceIntegration:
    def test_trace_structure(self, tmp_path):
        path = str(tmp_path / "solve.jsonl")
        instance = parse(OPT_INSTANCE)
        with JsonlTracer(path) as tracer:
            tracer.instance_label = "opt3"
            result = solve(instance, SolverOptions(tracer=tracer))
        assert result.status == "optimal"
        records = read_trace(path)
        assert records[0]["kind"] == "run_header"
        assert records[0]["instance"] == "opt3"
        assert records[0]["options"]["lower_bound"] == "lpr"
        assert records[-1]["kind"] == "result"
        assert records[-1]["status"] == "optimal"
        assert records[-1]["cost"] == 4
        kinds = {r["kind"] for r in records}
        assert "lower_bound" in kinds
        assert "incumbent" in kinds
        summary = trace_summary(records)
        assert summary["status"] == "optimal"
        assert summary["kinds"]["run_header"] == 1

    def test_profile_phases_sum_to_at_most_elapsed(self):
        instance = parse(OPT_INSTANCE)
        result = solve(instance, SolverOptions(profile=True))
        phases = result.stats.phase_times
        assert phases, "profiling should record phases"
        assert set(phases) <= {
            "preprocess",
            "propagate",
            "analyze",
            "branching",
            "cuts",
            "lower_bound.mis",
            "lower_bound.lgr",
            "lower_bound.lpr",
        }
        assert sum(phases.values()) <= result.stats.elapsed + 1e-3
        assert result.stats.as_dict()["phase_times"] == phases

    def test_lb_stats_collected(self):
        instance = parse(OPT_INSTANCE)
        result = solve(instance, SolverOptions(lower_bound="lpr"))
        assert "lpr" in result.stats.lb_stats
        detail = result.stats.lb_stats["lpr"]
        assert detail["calls"] >= 1

    def test_on_progress_callback(self):
        instance = parse(OPT_INSTANCE)
        calls = []

        def on_progress(stats, best, lower):
            calls.append((stats.conflicts, best, lower))

        result = solve(
            instance,
            SolverOptions(on_progress=on_progress, progress_interval=1),
        )
        assert result.status == "optimal"
        assert calls, "progress should fire with interval=1"
        assert result.stats.progress_reports == len(calls)
        # conflicts figure is non-decreasing across reports
        conflict_counts = [c for c, _, _ in calls]
        assert conflict_counts == sorted(conflict_counts)

    def test_linear_search_trace(self, tmp_path):
        path = str(tmp_path / "pbs.jsonl")
        instance = parse(OPT_INSTANCE)
        with JsonlTracer(path) as tracer:
            solver = LinearSearchSolver(
                instance, SolverOptions(tracer=tracer, profile=True)
            )
            result = solver.solve()
        assert result.status == "optimal"
        records = read_trace(path)
        assert records[0]["kind"] == "run_header"
        assert records[0]["solver"] == "pbs-like"
        assert records[-1]["kind"] == "result"
        assert {r["kind"] for r in records} >= {"decision", "incumbent"}
        assert solver.stats.phase_times
        assert sum(solver.stats.phase_times.values()) <= solver.stats.elapsed + 1e-3


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
class TestReports:
    def test_format_profile_table(self):
        text = format_profile({"propagate": 0.5, "analyze": 0.25}, elapsed=1.0)
        lines = text.splitlines()
        assert lines[0].split() == ["phase", "seconds", "share"]
        assert "propagate" in lines[1]  # sorted by time, descending
        assert "50.0%" in lines[1]
        assert "(other)" in text  # 0.25s unattributed
        assert lines[-1].startswith("total")
        assert "100.0%" in lines[-1]

    def test_format_profile_without_elapsed(self):
        text = format_profile({"a": 1.0})
        assert "(other)" not in text
        assert "100.0%" in text

    def test_gap_history_and_progress(self):
        events = [
            {"kind": "run_header", "t": 0.0},
            {"kind": "lower_bound", "t": 0.1, "level": 0, "path": 0, "value": 2},
            {"kind": "incumbent", "t": 0.2, "cost": 9},
            {"kind": "incumbent", "t": 0.3, "cost": 4},
            {"kind": "progress", "t": 0.4, "best": 4, "lower": 3},
            {"kind": "result", "t": 0.5, "status": "optimal", "cost": 4},
        ]
        points = gap_history(events)
        assert points[0] == {"t": 0.1, "best": None, "lower": 2}
        assert points[-1] == {"t": 0.4, "best": 4, "lower": 3}
        text = format_progress(events)
        assert "gap" in text.splitlines()[0]
        assert "1" in text.splitlines()[-1]  # final gap 4 - 3

    def test_run_record_as_dict_is_json_serializable(self):
        from repro.experiments.runner import run_one

        instance = parse(OPT_INSTANCE)
        record = run_one("bsolo-mis", instance, "opt3")
        row = record.as_dict()
        encoded = json.loads(json.dumps(row))
        assert encoded["solver"] == "bsolo-mis"
        assert encoded["status"] == "optimal"
        assert encoded["stats"]["decisions"] >= 0


# ----------------------------------------------------------------------
# Crash safety (portfolio workers die without close())
# ----------------------------------------------------------------------
class TestCrashSafety:
    def test_killed_writer_leaves_buffered_events_on_disk(self, tmp_path):
        """A worker that hard-exits mid-run must still leave a valid trace."""
        import subprocess
        import sys

        path = tmp_path / "crash.jsonl"
        script = (
            "import sys\n"
            "from repro.obs.trace import JsonlTracer\n"
            "from repro.obs.events import DecisionEvent, RunHeaderEvent\n"
            "tracer = JsonlTracer(sys.argv[1], buffer_size=1000)\n"
            "tracer.emit(RunHeaderEvent(solver='bsolo', instance='crash'))\n"
            "for i in range(25):\n"
            "    tracer.emit(DecisionEvent(literal=i + 1, level=i))\n"
            # die from an uncaught exception: close() never runs, the
            # weakref finalizer must drain the buffer at interpreter exit
            "raise RuntimeError('worker died')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=".",
        )
        assert proc.returncode == 1
        records = read_trace(str(path))
        # the finalizer drained the buffer on interpreter exit
        assert len(records) == 26
        assert records[0]["kind"] == "run_header"
        assert records[-1]["kind"] == "decision"

    def test_truncated_final_line_dropped_by_default(self, tmp_path):
        path = tmp_path / "trunc.jsonl"
        path.write_text(
            '{"kind":"run_header","t":0.0}\n'
            '{"kind":"decision","t":0.1,"literal":1}\n'
            '{"kind":"result","t":0.2,"sta'  # killed mid-write
        )
        records = read_trace(str(path))
        assert [r["kind"] for r in records] == ["run_header", "decision"]

    def test_truncated_final_line_raises_under_strict(self, tmp_path):
        path = tmp_path / "trunc.jsonl"
        path.write_text('{"kind":"run_header","t":0.0}\n{"kind":"dec')
        with pytest.raises(ValueError):
            read_trace(str(path), strict=True)

    def test_corrupt_middle_line_always_raises(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text(
            '{"kind":"run_header","t":0.0}\n'
            "not json at all\n"
            '{"kind":"result","t":0.2,"status":"optimal"}\n'
        )
        with pytest.raises(ValueError):
            read_trace(str(path))


# ----------------------------------------------------------------------
# Report edge cases
# ----------------------------------------------------------------------
class TestReportEdgeCases:
    def test_empty_trace_summary(self):
        summary = trace_summary([])
        assert summary["kinds"] == {}
        assert summary["status"] is None
        assert "workers" not in summary

    def test_empty_trace_progress_renders_header_only(self):
        text = format_progress([])
        assert text.splitlines()[0].split() == ["t", "best", "lower", "gap"]
        assert len(text.splitlines()) == 1

    def test_gap_history_without_incumbent(self):
        events = [
            {"kind": "run_header", "t": 0.0},
            {"kind": "lower_bound", "t": 0.1, "level": 0, "path": 0, "value": 2},
            {"kind": "result", "t": 0.2, "status": "unsatisfiable"},
        ]
        points = gap_history(events)
        assert points == [{"t": 0.1, "best": None, "lower": 2}]
        text = format_progress(events)
        assert text.splitlines()[-1].endswith("-")  # gap undefined

    def test_gap_history_ignores_deep_and_infeasible_bounds(self):
        events = [
            {"kind": "lower_bound", "t": 0.1, "level": 3, "path": 1, "value": 9},
            {
                "kind": "lower_bound", "t": 0.2, "level": 0,
                "path": 0, "value": 5, "infeasible": True,
            },
        ]
        assert gap_history(events) == []

    def test_trace_summary_merged_timeline_reports_best_status(self):
        records = [
            {"kind": "result", "t": 1.0, "status": "satisfiable", "worker_id": 0},
            {"kind": "result", "t": 1.5, "status": "optimal", "worker_id": 1},
            {"kind": "decision", "t": 0.5, "worker_id": 2, "literal": 1},
        ]
        summary = trace_summary(records)
        assert summary["workers"] == [0, 1, 2]
        assert summary["status"] == "optimal"  # best across the fleet

    def test_format_profile_counters_table(self):
        text = format_profile(
            {"propagate": 0.5, "proof": 0.1},
            elapsed=1.0,
            counters={"uncertified_prunes": 3, "zero_counter": 0},
        )
        assert "proof" in text
        assert "counter" in text
        assert "uncertified_prunes" in text
        assert "3" in text.splitlines()[-1]
        assert "zero_counter" not in text  # zero values suppressed

    def test_format_profile_no_counter_table_when_all_zero(self):
        text = format_profile({"a": 1.0}, counters={"n": 0})
        assert "counter" not in text


# ----------------------------------------------------------------------
# Registry-wide smoke: every solver honours tracer/profile uniformly
# ----------------------------------------------------------------------
class TestRegistryWideObservability:
    def test_every_registered_solver_traces_and_profiles(self, tmp_path):
        """Each solver must emit run_header/result and honour profile=True.

        The portfolio coordinator is excluded: in-process trace sinks
        cannot cross the worker process boundary (use ``trace_path``,
        covered by tests/test_obs_merge.py).
        """
        from repro.api import available_solvers

        instance = parse(OPT_INSTANCE)
        for name in available_solvers():
            if name == "portfolio":
                continue
            path = tmp_path / ("%s.jsonl" % name)
            with JsonlTracer(str(path), buffer_size=1) as tracer:
                result = solve(
                    instance, solver=name, tracer=tracer, profile=True
                )
            assert result.status == "optimal", name
            assert result.best_cost == 4, name
            records = read_trace(str(path))
            kinds = [record["kind"] for record in records]
            assert kinds[0] == "run_header", name
            assert "result" in kinds, name
            final = [r for r in records if r["kind"] == "result"][-1]
            assert final["status"] == "optimal", name
            assert isinstance(result.stats.phase_times, dict), name
            assert all(
                seconds >= 0.0
                for seconds in result.stats.phase_times.values()
            ), name

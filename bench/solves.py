"""Solve workloads: closed-loop solves in this process, every answer checked.

One client solves the tasks one after another.  A task's latency is its
wall time to a checked answer: building the solver, solving and, on the
certified workload, checking the proof with ``repro.certify``.  The bench's
own model check runs outside that time.

A run makes ``PASSES`` passes over its tasks and keeps each task's fastest
latency.  The machines this runs on share cores with other tenants, which
slows everything by up to half for seconds at a time; a pass takes a third
of the run, so a task's three solves rarely all land in a slow spell.
"""

from __future__ import annotations

import io
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from repro import OPTIMAL, SolverOptions, make_solver
from repro.certify import ProofChecker, ProofError, ProofLogger

from .ledger import Ledger, fresh_start_seconds, peak_rss_mb, percentile, subprocess_env
from .workloads import PASSES, TIME_LIMIT, Checker, SolveSpec, Task

#: What ``setup_s`` times in a fresh interpreter: import and solver set-up.
SETUP_PROGRAM = (
    "import sys; from repro import make_solver, parse; "
    "make_solver(parse(sys.stdin.read()), sys.argv[1])"
)
SETUP_STARTS = 5


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def solve_once(spec: SolveSpec, task: Task, profile: bool) -> Dict[str, Any]:
    """Solve and check one task; returns its timestamps, latency, verdict
    and the solver's statistics (with phase times when ``profile``)."""
    buffer = io.StringIO()
    logger = ProofLogger(buffer) if spec.proof else None
    options = SolverOptions(time_limit=TIME_LIMIT, profile=profile, proof=logger)
    start = time.perf_counter()
    solver = make_solver(task.instance, spec.solver, options)
    built = time.perf_counter()
    result = solver.solve()
    solved = time.perf_counter()
    problem = Checker(task.text).problem(
        task.expected, result.status, result.best_cost, result.best_assignment
    )
    checked = end = time.perf_counter()
    record: Dict[str, Any] = {"stats": result.stats}
    if logger is not None:
        logger.close()
        text = buffer.getvalue()
        try:
            outcome = ProofChecker(task.instance).check_text(text)
        except ProofError as exc:
            problem = problem or "proof rejected: %s" % exc
            record.update(verified=False, steps=0)
        else:
            claim = (result.status, result.best_cost if result.status == OPTIMAL else None)
            proved = (outcome.status, outcome.cost if outcome.status == OPTIMAL else None)
            verified = proved == claim and not outcome.conditional
            if not verified:
                problem = problem or "proof certifies %s, solver claimed %s" % (proved, claim)
            record.update(verified=verified, steps=outcome.steps)
        end = time.perf_counter()
        record.update(check_s=end - checked, bytes=len(text))
    record.update(
        times=(start, built, solved, checked, end),
        latency=(solved - start) + (end - checked),
        other_s=(solved - built) - sum(result.stats.phase_times.values()),
        problem=None if problem is None else "%s: %s" % (task.label, problem),
    )
    return record


def record_spans(ledger: Ledger, trace: int, record: Dict[str, Any]) -> None:
    """The task's spans, and the solver's phases (plus ``other``) below
    its ``solve`` span."""
    start, built, solved, checked, end = record["times"]
    ledger.span(trace, "task", start, end)
    ledger.span(trace, "build", start, built, "task")
    ledger.span(trace, "solve", built, solved, "task")
    ledger.span(trace, "check", solved, checked, "task")
    if "check_s" in record:
        ledger.span(trace, "proof_check", checked, end, "task")
    stats = record["stats"]
    for name, seconds in stats.phase_times.items():
        # lower_bound.<method> phases carry their bounder's counts
        method = name.split(".", 1)[1] if name.startswith("lower_bound.") else None
        detail = stats.lb_stats.get(method, {})
        ledger.phase(trace, "solve", name, seconds, {
            key: value for key, value in detail.items() if isinstance(value, (int, float))
        })
    ledger.phase(trace, "solve", "other", record["other_s"])


def layer_metrics(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer sums and ratios over one profiled solve per task."""

    def phase(name: str) -> float:
        return sum(r["stats"].phase_times.get(name, 0.0) for r in records)

    def bounder(method: str, key: str) -> float:
        return sum(r["stats"].lb_stats.get(method, {}).get(key, 0) for r in records)

    def count(attr: str) -> int:
        return sum(getattr(r["stats"], attr) for r in records)

    proofs = [r for r in records if "check_s" in r]
    lp_calls = bounder("lpr", "calls")
    mis_lookups = bounder("mis", "cache_hits") + bounder("mis", "cache_misses")
    lb_calls = count("lower_bound_calls")
    return {
        "engine.propagate_s": phase("propagate"),
        "engine.analyze_s": phase("analyze"),
        "engine.props_per_s": _ratio(count("propagations"), phase("propagate")),
        "engine.propagations": count("propagations"),
        "engine.conflicts": count("conflicts"),
        "mis.bound_s": phase("lower_bound.mis"),
        "mis.calls": bounder("mis", "calls"),
        "mis.cache_hit_ratio": _ratio(bounder("mis", "cache_hits"), mis_lookups),
        "lp.bound_s": phase("lower_bound.lpr"),
        "lp.calls": lp_calls,
        "lp.simplex_iterations": bounder("lpr", "iterations"),
        "lp.ms_per_call": _ratio(1000.0 * phase("lower_bound.lpr"), lp_calls),
        "lp.warm_ratio": _ratio(bounder("lpr", "warm_calls"), lp_calls),
        "solver.branching_s": phase("branching"),
        "solver.cuts_s": phase("cuts"),
        "solver.other_s": sum(r["other_s"] for r in records),
        "solver.decisions": count("decisions"),
        "solver.lb_calls": lb_calls,
        "solver.prune_ratio": _ratio(count("prunings"), lb_calls),
        "preprocess.self_s": phase("preprocess"),
        "preprocess.necessary_assignments": count("necessary_assignments"),
        "certify.log_s": phase("proof"),
        "certify.check_s": sum(r["check_s"] for r in proofs),
        "certify.steps": sum(r["steps"] for r in proofs),
        "certify.bytes": sum(r["bytes"] for r in proofs),
        "certify.uncertified_prunes": count("uncertified_prunes"),
        "certify.verified_ratio": _ratio(sum(r["verified"] for r in proofs), len(proofs)),
    }


def _fastest(passes: List[List[Dict[str, Any]]]) -> List[Dict[str, Any]]:
    """Each task's fastest record over the passes."""
    return [min(runs, key=lambda r: r["latency"]) for runs in zip(*passes)]


def run_solves(spec: SolveSpec, tasks: List[Task], warmup: List[Task], src: Path,
               traced: bool) -> Dict[str, Any]:
    """One run of a solve workload: set-up, warm-up, then ``PASSES`` passes
    (traced: each followed by a profiled pass, for the per-layer metrics)."""
    report: Dict[str, Any] = {}
    if not traced:
        report["setup_s"] = fresh_start_seconds(
            [sys.executable, "-c", SETUP_PROGRAM, spec.solver],
            subprocess_env(src), tasks[0].text, SETUP_STARTS,
        )
    for task in warmup:
        solve_once(spec, task, False)
    plain: List[List[Dict[str, Any]]] = []
    profiled: List[List[Dict[str, Any]]] = []
    for _ in range(PASSES):
        plain.append([solve_once(spec, task, False) for task in tasks])
        if traced:
            profiled.append([solve_once(spec, task, True) for task in tasks])
    every = [record for one_pass in plain + profiled for record in one_pass]
    latencies = [record["latency"] for record in _fastest(plain)]
    report.update(
        attempted=len(every),
        problems=[record["problem"] for record in every if record["problem"]],
    )
    if not traced:
        report["end_to_end"] = {
            "suite_s": sum(latencies),
            "latency_ms_p50": 1000.0 * statistics.median(latencies),
            "latency_ms_p90": 1000.0 * percentile(latencies, 90),
            "setup_s": report["setup_s"],
            "peak_rss_mb": peak_rss_mb(),
        }
        return report
    ledger = Ledger()
    fastest = _fastest(profiled)
    for trace, record in enumerate(fastest):
        record_spans(ledger, trace, record)
    layers = layer_metrics(fastest)
    layers["bench.latency_ms_p99"] = 1000.0 * percentile(latencies, 99)
    layers["bench.trace_overhead_pct"] = 100.0 * (
        sum(record["latency"] for record in fastest) / sum(latencies) - 1.0
    )
    report.update(per_layer=layers, ledger=ledger)
    return report

"""Observability: tracing, metrics, phase timers, reports.

The measurement layer every performance claim is judged against:

* :mod:`repro.obs.events` — typed search-event records (decision,
  logic/bound conflict, backjump, lower bound call, incumbent update,
  cut, progress, result, worker summary);
* :mod:`repro.obs.trace` — the no-op :data:`NULL_TRACER` (zero overhead
  when disabled) and the crash-safe buffered :class:`JsonlTracer` sink;
* :mod:`repro.obs.metrics` — Counter/Gauge/Histogram families in a
  :class:`MetricsRegistry` with deterministic exposition and
  cross-process snapshot merging;
* :mod:`repro.obs.timers` — :class:`PhaseTimer` with exclusive-time
  accounting per search phase, the one clock inside a solve;
* :mod:`repro.obs.merge` — portfolio worker-trace merging onto one
  aligned timeline, plus the per-worker/straggler reports;
* :mod:`repro.obs.report` — profile tables and gap-vs-time summaries.

Typical use::

    from repro import JsonlTracer, SolverOptions, solve

    with JsonlTracer("run.jsonl") as tracer:
        result = solve(instance, SolverOptions(tracer=tracer, profile=True))
    print(result.stats.phase_times)
"""

from .events import (
    BACKJUMP,
    CONFLICT,
    CUT,
    DECISION,
    EVENT_KINDS,
    EVENT_TYPES,
    INCUMBENT,
    LOWER_BOUND,
    PROGRESS,
    RESULT,
    RUN_HEADER,
    WORKER_SUMMARY,
    BackjumpEvent,
    ConflictEvent,
    CutEvent,
    DecisionEvent,
    Event,
    IncumbentEvent,
    LowerBoundEvent,
    ProgressEvent,
    ResultEvent,
    RunHeaderEvent,
    WorkerSummaryEvent,
    event_from_record,
)
from .merge import (
    format_worker_report,
    merge_trace_files,
    merge_traces,
    straggler_summary,
    worker_spans,
    write_records,
)
from .metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .report import format_profile, format_progress, gap_history, trace_summary
from .timers import NULL_TIMER, NullPhaseTimer, PhaseTimer
from .trace import NULL_TRACER, JsonlTracer, NullTracer, Tracer, read_trace

__all__ = [
    "BACKJUMP",
    "CONFLICT",
    "CUT",
    "DECISION",
    "DEFAULT_BUCKETS",
    "EVENT_KINDS",
    "EVENT_TYPES",
    "INCUMBENT",
    "LATENCY_BUCKETS",
    "LOWER_BOUND",
    "NULL_TIMER",
    "NULL_TRACER",
    "PROGRESS",
    "RESULT",
    "RUN_HEADER",
    "WORKER_SUMMARY",
    "BackjumpEvent",
    "ConflictEvent",
    "Counter",
    "CutEvent",
    "DecisionEvent",
    "Event",
    "Gauge",
    "Histogram",
    "IncumbentEvent",
    "JsonlTracer",
    "LowerBoundEvent",
    "MetricsRegistry",
    "NullPhaseTimer",
    "NullTracer",
    "PhaseTimer",
    "ProgressEvent",
    "ResultEvent",
    "RunHeaderEvent",
    "Tracer",
    "WorkerSummaryEvent",
    "event_from_record",
    "format_profile",
    "format_progress",
    "format_worker_report",
    "gap_history",
    "merge_trace_files",
    "merge_traces",
    "read_trace",
    "straggler_summary",
    "trace_summary",
    "worker_spans",
    "write_records",
]

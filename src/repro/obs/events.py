"""Typed search-event records for trace files.

Each event is a small dataclass with a ``kind`` tag; a trace is the
sequence of events one solve emitted, serialized as JSONL (one event per
line, see :mod:`repro.obs.trace`).  The schema mirrors what the paper's
experiments attribute solver behaviour to: decisions, logic vs. bound
conflicts (Section 4), backjumps, lower-bound calls per method
(Section 3), incumbent updates and cuts (Section 5).  The propagation
engine emits nothing: its implication count is ``stats.propagations``.

Events carry *payload* fields only; the tracer stamps the relative
monotonic timestamp ``t`` at emission time, so re-running a search
produces structurally identical traces up to timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Dict, Optional

#: Event kind tags (the ``kind`` field of every JSONL record).
RUN_HEADER = "run_header"
DECISION = "decision"
CONFLICT = "conflict"
BACKJUMP = "backjump"
LOWER_BOUND = "lower_bound"
INCUMBENT = "incumbent"
CUT = "cut"
PROGRESS = "progress"
RESULT = "result"
WORKER_SUMMARY = "worker_summary"

EVENT_KINDS = (
    RUN_HEADER,
    DECISION,
    CONFLICT,
    BACKJUMP,
    LOWER_BOUND,
    INCUMBENT,
    CUT,
    PROGRESS,
    RESULT,
    WORKER_SUMMARY,
)


@dataclass
class Event:
    """Base class: every event has a class-level ``kind`` tag."""

    kind: ClassVar[str] = ""

    def payload(self) -> Dict[str, Any]:
        """The event's fields as a plain dict (no kind, no timestamp)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class RunHeaderEvent(Event):
    """First record of every trace: which solver ran on what."""

    kind: ClassVar[str] = RUN_HEADER
    solver: str = ""
    instance: str = ""
    options: Dict[str, Any] = field(default_factory=dict)


@dataclass
class DecisionEvent(Event):
    """A branching decision opening a new level."""

    kind: ClassVar[str] = DECISION
    literal: int = 0
    level: int = 0


@dataclass
class ConflictEvent(Event):
    """A logic conflict (violated constraint) or a bound conflict
    (``path + lower >= upper``, paper Section 4)."""

    kind: ClassVar[str] = CONFLICT
    type: str = "logic"  # "logic" | "bound"
    level: int = 0


@dataclass
class BackjumpEvent(Event):
    """Non-chronological backtrack performed by conflict analysis."""

    kind: ClassVar[str] = BACKJUMP
    from_level: int = 0
    to_level: int = 0
    learned_size: int = 0


@dataclass
class LowerBoundEvent(Event):
    """One lower-bound estimation (Section 3) and its outcome."""

    kind: ClassVar[str] = LOWER_BOUND
    method: str = ""  # "mis" | "lgr" | "lpr"
    value: int = 0  # bound on the remaining cost
    path: int = 0  # cost of the assignments so far
    level: int = 0
    infeasible: bool = False
    pruned: bool = False


@dataclass
class IncumbentEvent(Event):
    """A new best solution (upper bound improvement)."""

    kind: ClassVar[str] = INCUMBENT
    cost: int = 0
    decisions: int = 0
    conflicts: int = 0


@dataclass
class CutEvent(Event):
    """A cutting constraint learned from an improved solution
    (Section 5, eq. 10-13)."""

    kind: ClassVar[str] = CUT
    size: int = 0


@dataclass
class ProgressEvent(Event):
    """Periodic heartbeat (every N conflicts)."""

    kind: ClassVar[str] = PROGRESS
    conflicts: int = 0
    decisions: int = 0
    best: Optional[int] = None
    lower: Optional[int] = None


@dataclass
class ResultEvent(Event):
    """Last record of every trace: the solve outcome."""

    kind: ClassVar[str] = RESULT
    status: str = ""
    cost: Optional[int] = None
    decisions: int = 0
    conflicts: int = 0


@dataclass
class WorkerSummaryEvent(Event):
    """Synthesized by the portfolio trace merger: one worker's outcome.

    Merged timelines append one of these per worker so ``obs report``
    can render per-worker phase totals and the straggler summary without
    re-deriving them from the raw event stream.
    """

    kind: ClassVar[str] = WORKER_SUMMARY
    worker_id: int = 0
    label: str = ""
    solver: str = ""
    status: str = ""
    cost: Optional[int] = None
    elapsed: float = 0.0
    events: int = 0
    phase_times: Dict[str, float] = field(default_factory=dict)


#: kind tag -> event class, for re-hydrating parsed trace records.
EVENT_TYPES: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        RunHeaderEvent,
        DecisionEvent,
        ConflictEvent,
        BackjumpEvent,
        LowerBoundEvent,
        IncumbentEvent,
        CutEvent,
        ProgressEvent,
        ResultEvent,
        WorkerSummaryEvent,
    )
}


def event_from_record(record: Dict[str, Any]) -> Event:
    """Rebuild a typed event from a parsed JSONL record.

    Unknown payload keys (and the ``t`` timestamp) are ignored so traces
    stay readable across schema additions.
    """
    kind = record.get("kind")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError("unknown event kind %r" % (kind,))
    known = {f.name for f in fields(cls)}
    return cls(**{key: value for key, value in record.items() if key in known})

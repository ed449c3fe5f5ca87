"""SAT-engine substrate: trail, PB propagation, CDCL analysis, VSIDS.

These are the "SAT-related techniques" of the paper's introduction:
boolean constraint propagation over pseudo-boolean constraints,
conflict-based learning and non-chronological backtracking, plus the
Chaff VSIDS branching heuristic (Section 5).
"""

from .activity import VSIDSActivity
from .assignment import Reason, Trail, UNASSIGNED
from .conflict import (
    AnalysisResult,
    ConflictAnalyzer,
    RootConflictError,
    analyze,
    highest_level,
)
from .constraint_db import (
    KIND_CARDINALITY,
    KIND_CLAUSE,
    KIND_GENERAL,
    ConstraintDatabase,
    StoredConstraint,
    WatchedConstraintDatabase,
    classify,
)
from .interface import (
    Conflict,
    PropagationEngine,
    UnknownEngineError,
    available_engines,
    engine_descriptions,
    make_engine,
    register_engine,
)
from .propagation import Propagator
from .restarts import RestartScheduler, luby
from .watched import WatchedPropagator

__all__ = [
    "AnalysisResult",
    "Conflict",
    "ConflictAnalyzer",
    "ConstraintDatabase",
    "KIND_CARDINALITY",
    "KIND_CLAUSE",
    "KIND_GENERAL",
    "PropagationEngine",
    "Propagator",
    "Reason",
    "RestartScheduler",
    "RootConflictError",
    "StoredConstraint",
    "Trail",
    "UNASSIGNED",
    "UnknownEngineError",
    "VSIDSActivity",
    "WatchedConstraintDatabase",
    "WatchedPropagator",
    "analyze",
    "available_engines",
    "classify",
    "engine_descriptions",
    "highest_level",
    "luby",
    "make_engine",
    "register_engine",
]

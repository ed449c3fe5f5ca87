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
from .constraint_db import ConstraintDatabase, StoredConstraint
from .propagation import Conflict, Propagator

__all__ = [
    "AnalysisResult",
    "Conflict",
    "ConflictAnalyzer",
    "ConstraintDatabase",
    "Propagator",
    "Reason",
    "RootConflictError",
    "StoredConstraint",
    "Trail",
    "UNASSIGNED",
    "VSIDSActivity",
    "analyze",
    "highest_level",
]

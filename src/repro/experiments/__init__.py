"""Experiment harness: timed runs and Table 1 regeneration (Section 6)."""

from .ablations import ABLATIONS, AblationRecord, format_ablations, run_ablations
from .bounds import BoundRecord, bound_quality, format_bound_quality
from .reporting import format_matrix, format_table1
from .scaling import ScalingPoint, crossover_size, format_sweep, scaling_sweep
from .runner import (
    BSOLO_NAMES,
    SOLVER_NAMES,
    RunRecord,
    run_matrix,
    run_one,
    solved_counts,
    write_records_jsonl,
)
from .table1 import FAMILIES, Table1Result, family_instances, generate_table1

__all__ = [
    "ABLATIONS",
    "AblationRecord",
    "BSOLO_NAMES",
    "BoundRecord",
    "FAMILIES",
    "RunRecord",
    "SOLVER_NAMES",
    "ScalingPoint",
    "Table1Result",
    "bound_quality",
    "crossover_size",
    "family_instances",
    "format_ablations",
    "format_bound_quality",
    "format_matrix",
    "format_sweep",
    "format_table1",
    "generate_table1",
    "run_ablations",
    "run_matrix",
    "run_one",
    "scaling_sweep",
    "solved_counts",
    "write_records_jsonl",
]

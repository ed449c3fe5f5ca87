"""LP substrate: the node-LP dual simplex, the general two-phase simplex
and the LPR lower bound (Section 3.1)."""

from .relaxation import (
    LowerBound,
    LPRelaxationBound,
    integer_ceil_bound,
    root_lpr_bound,
)
from .tolerances import FEAS_TOL, ROUND_EPS, TIGHT_TOL, ceil_guarded
from .simplex import (
    EQ,
    GE,
    INFEASIBLE,
    ITERATION_LIMIT,
    LE,
    LPResult,
    OPTIMAL,
    SimplexSolver,
    STOPPED,
    UNBOUNDED,
    solve_lp,
    solve_node_lp,
)
from .standard_form import LPData, build_lp_data

__all__ = [
    "EQ",
    "FEAS_TOL",
    "GE",
    "INFEASIBLE",
    "ITERATION_LIMIT",
    "LE",
    "LPData",
    "LPRelaxationBound",
    "LPResult",
    "LowerBound",
    "OPTIMAL",
    "ROUND_EPS",
    "STOPPED",
    "SimplexSolver",
    "TIGHT_TOL",
    "UNBOUNDED",
    "build_lp_data",
    "ceil_guarded",
    "integer_ceil_bound",
    "root_lpr_bound",
    "solve_lp",
    "solve_node_lp",
]

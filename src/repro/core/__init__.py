"""The paper's primary contribution: the bsolo hybrid PBO solver."""

from .bound_conflicts import (
    bound_conflict_clause,
    lower_bound_explanation,
    path_explanation,
)
from .branching import Brancher
from .cuts import CutGenerator
from .enumeration import count_optimal, enumerate_optimal
from .options import LGR, LPR, MIS, PLAIN, SolverOptions
from .preprocess import PreprocessResult, probe_necessary_assignments
from .result import OPTIMAL, SATISFIABLE, SolveResult, UNKNOWN, UNSATISFIABLE
from .solver import BsoloSolver, solve
from .stats import SolverStats
from .verify import VerificationError, VerifyOutcome, verify_result

__all__ = [
    "Brancher",
    "BsoloSolver",
    "CutGenerator",
    "LGR",
    "LPR",
    "MIS",
    "OPTIMAL",
    "PLAIN",
    "PreprocessResult",
    "SATISFIABLE",
    "SolveResult",
    "SolverOptions",
    "SolverStats",
    "UNKNOWN",
    "UNSATISFIABLE",
    "VerificationError",
    "VerifyOutcome",
    "bound_conflict_clause",
    "count_optimal",
    "enumerate_optimal",
    "lower_bound_explanation",
    "path_explanation",
    "probe_necessary_assignments",
    "solve",
    "verify_result",
]

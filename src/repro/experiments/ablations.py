"""Feature-ablation experiments on the bsolo solver.

Turns individual techniques off (bound-conflict learning, cuts,
LP-guided branching, preprocessing) and runs the resulting
configurations on one instance family, reporting
status / time / decisions per configuration.  ``TestAblations`` in
``tests/test_scaling_ablations.py`` runs every configuration and checks
that they agree on each optimum.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.options import SolverOptions
from ..core.result import SolveResult
from ..core.solver import BsoloSolver
from ..pb.instance import PBInstance

#: Named configurations: option overrides on top of bsolo-LPR defaults.
ABLATIONS: Dict[str, Dict] = {
    "full": {},
    "no-bound-learning": {"bound_conflict_learning": False},
    "no-cuts": {"upper_bound_cuts": False, "cardinality_cuts": False},
    "no-cardinality-cuts": {"cardinality_cuts": False},
    "no-lp-branching": {"lp_guided_branching": False},
    "no-preprocess": {"preprocess": False},
}


class AblationRecord:
    """One configuration's aggregate over a set of instances."""

    __slots__ = ("name", "results", "seconds")

    def __init__(self, name: str, results: List[SolveResult], seconds: float):
        self.name = name
        self.results = results
        self.seconds = seconds

    @property
    def solved(self) -> int:
        """Instances this configuration solved within budget."""
        return sum(1 for result in self.results if result.solved)

    @property
    def total_decisions(self) -> int:
        """Decisions summed over the configuration's runs."""
        return sum(result.stats.decisions for result in self.results)

    def __repr__(self) -> str:
        return "AblationRecord(%s: %d solved, %d decisions, %.2fs)" % (
            self.name,
            self.solved,
            self.total_decisions,
            self.seconds,
        )


def run_ablations(
    instances: Sequence[PBInstance],
    names: Optional[Sequence[str]] = None,
    lower_bound: str = "lpr",
    time_limit: float = 5.0,
) -> List[AblationRecord]:
    """Run each named configuration over all instances; a record's time
    sums its solves' ``stats.elapsed``."""
    records: List[AblationRecord] = []
    for name in names or ABLATIONS:
        overrides = ABLATIONS[name]
        results = []
        for instance in instances:
            options = SolverOptions(
                lower_bound=lower_bound, time_limit=time_limit, **overrides
            )
            results.append(BsoloSolver(instance, options).solve())
        seconds = sum(result.stats.elapsed for result in results)
        records.append(AblationRecord(name, results, seconds))
    return records


def format_ablations(records: Sequence[AblationRecord]) -> str:
    """Fixed-width table of the ablation grid results."""
    rows = [["configuration", "solved", "decisions", "seconds"]]
    for record in records:
        rows.append(
            [
                record.name,
                str(record.solved),
                str(record.total_decisions),
                "%.2f" % record.seconds,
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    return "\n".join(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in rows
    )

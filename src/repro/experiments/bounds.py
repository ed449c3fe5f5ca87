"""Root lower-bound quality experiment (paper Section 3 claims).

For each instance, measures the MIS, Lagrangian and LP-relaxation bounds
at the root together with their cost, against the true optimum — making
the two tightness claims quantitative:

* "It is also often the case that the linear programming relaxation
  bound is higher than the one obtained with the MIS approach" (3.1);
* "for some instances, the bound provided by the Lagrangian relaxation
  method is tighter than the one obtained by the linear programming
  relaxation" / in practice it converges slowly (3.2, 6).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from ..core.options import SolverOptions
from ..core.solver import BsoloSolver
from ..lagrangian.subgradient import LagrangianBound
from ..lp.relaxation import root_lpr_bound
from ..mis.independent_set import MISBound
from ..pb.instance import PBInstance


class BoundRecord:
    """Root bounds of one instance."""

    __slots__ = ("label", "optimum", "mis", "lgr", "lpr", "mis_time", "lgr_time", "lpr_time")

    def __init__(self, label, optimum, mis, lgr, lpr, mis_time, lgr_time, lpr_time):
        self.label = label
        #: True optimum (internal scale, no offset); None if unknown.
        self.optimum = optimum
        self.mis = mis
        self.lgr = lgr
        self.lpr = lpr
        self.mis_time = mis_time
        self.lgr_time = lgr_time
        self.lpr_time = lpr_time

    def gap(self, method: str) -> Optional[float]:
        """Relative gap to the optimum in percent (None when unknown)."""
        if not self.optimum:
            return None
        value = getattr(self, method)
        return 100.0 * (self.optimum - value) / self.optimum


def bound_quality(
    instances: Sequence[PBInstance],
    labels: Sequence[str],
    lgr_max_iterations: int = 200,
    solve_time_limit: float = 30.0,
) -> List[BoundRecord]:
    """Measure all three root bounds (and the optimum) per instance."""
    records: List[BoundRecord] = []
    for instance, label in zip(instances, labels):
        solver = BsoloSolver(
            instance,
            SolverOptions(lower_bound="lpr", time_limit=solve_time_limit),
        )
        outcome = solver.solve()
        optimum = (
            outcome.best_cost - instance.objective.offset
            if outcome.is_optimal
            else None
        )

        start = time.monotonic()
        mis = MISBound(instance).compute({}).value
        mis_time = time.monotonic() - start

        start = time.monotonic()
        lgr = LagrangianBound(
            instance, max_iterations=lgr_max_iterations, reuse_multipliers=False
        ).compute({}).value
        lgr_time = time.monotonic() - start

        start = time.monotonic()
        lpr = root_lpr_bound(instance)
        lpr_time = time.monotonic() - start

        records.append(
            BoundRecord(label, optimum, mis, lgr, lpr, mis_time, lgr_time, lpr_time)
        )
    return records


def format_bound_quality(records: Sequence[BoundRecord]) -> str:
    """Fixed-width table of root bound values and times per instance."""
    rows = [["instance", "optimum", "MIS", "LGR", "LPR", "t_MIS", "t_LGR", "t_LPR"]]
    for record in records:
        rows.append(
            [
                record.label,
                str(record.optimum) if record.optimum is not None else "?",
                str(record.mis),
                str(record.lgr),
                str(record.lpr),
                "%.3f" % record.mis_time,
                "%.3f" % record.lgr_time,
                "%.3f" % record.lpr_time,
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        for row in rows
    ]
    wins = sum(1 for r in records if r.lpr >= r.mis)
    lines.append(
        "LPR >= MIS on %d/%d instances (Section 3.1's 'often')"
        % (wins, len(records))
    )
    return "\n".join(lines)

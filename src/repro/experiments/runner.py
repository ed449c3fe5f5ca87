"""Timed solver runs and the solver registry (paper Section 6 harness).

The registry names mirror Table 1's columns: ``pbs``, ``galena``,
``cplex`` (our reimplementations of the comparators) and the four bsolo
configurations ``bsolo-plain`` / ``bsolo-mis`` / ``bsolo-lgr`` /
``bsolo-lpr``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from ..api import make_solver
from ..core.options import SolverOptions
from ..core.result import SolveResult
from ..pb.instance import PBInstance

#: Table 1 column order.
SOLVER_NAMES = (
    "pbs",
    "galena",
    "cplex",
    "bsolo-plain",
    "bsolo-mis",
    "bsolo-lgr",
    "bsolo-lpr",
)

#: The bsolo variants (the paper's four right-most columns).
BSOLO_NAMES = ("bsolo-plain", "bsolo-mis", "bsolo-lgr", "bsolo-lpr")


class RunRecord:
    """One (solver, instance) cell of an experiment table."""

    __slots__ = ("solver", "instance_label", "result", "seconds")

    def __init__(self, solver: str, instance_label: str, result: SolveResult, seconds: float):
        self.solver = solver
        self.instance_label = instance_label
        self.result = result
        self.seconds = seconds

    @property
    def solved(self) -> bool:
        """True when the run ended with a proven answer."""
        return self.result.solved

    def cell(self) -> str:
        """Table 1 style cell: time when solved, "ub N" / "time" otherwise."""
        if self.result.solved:
            return "%.2f" % self.seconds
        if self.result.best_cost is not None:
            return "ub %d" % self.result.best_cost
        return "time"

    def as_dict(self) -> Dict[str, Any]:
        """Machine-readable record: outcome plus the full structured
        stats, for persisted per-run trajectories."""
        return {
            "solver": self.solver,
            "instance": self.instance_label,
            "status": self.result.status,
            "cost": self.result.best_cost,
            "seconds": round(self.seconds, 6),
            "stats": self.result.stats.as_dict(),
        }

    def __repr__(self) -> str:
        return "RunRecord(%s on %s: %s)" % (
            self.solver, self.instance_label, self.cell()
        )


def run_one(
    solver_name: str,
    instance: PBInstance,
    instance_label: str,
    options: Optional[SolverOptions] = None,
) -> RunRecord:
    """Run one registered solver on one instance; the record's time is
    the solve's own ``stats.elapsed``.

    ``solver_name`` is any :mod:`repro.api` registry name; the Table 1
    column names ``pbs``/``galena``/``cplex`` are registry aliases.
    ``options`` carries the budget and the instruments (``tracer``,
    ``profile``, ``metrics``, ``proof``, ...); each solver honours the
    fields it supports and ignores the rest.
    """
    result = make_solver(instance, solver_name, options).solve()
    return RunRecord(solver_name, instance_label, result, result.stats.elapsed)


def run_matrix(
    instances: Sequence,
    labels: Sequence[str],
    solver_names: Sequence[str] = SOLVER_NAMES,
    time_limit: Optional[float] = None,
) -> Dict[str, List[RunRecord]]:
    """Run every named solver over every instance.

    Returns ``{solver_name: [RunRecord per instance]}``.
    """
    options = SolverOptions(time_limit=time_limit)
    records: Dict[str, List[RunRecord]] = {name: [] for name in solver_names}
    for instance, label in zip(instances, labels):
        for name in solver_names:
            records[name].append(run_one(name, instance, label, options))
    return records


def solved_counts(records: Dict[str, List[RunRecord]]) -> Dict[str, int]:
    """The paper's "#Solved" summary row."""
    return {
        name: sum(1 for record in runs if record.solved)
        for name, runs in records.items()
    }


def write_records_jsonl(
    records: Dict[str, List[RunRecord]],
    path: str,
    extra: Optional[Dict[str, Any]] = None,
    append: bool = False,
) -> int:
    """Persist a run matrix as JSONL, one record per (solver, instance).

    ``extra`` key/values (e.g. a family label) are merged into every
    record.  Returns the number of lines written.
    """
    written = 0
    with open(path, "a" if append else "w") as handle:
        for name in records:
            for record in records[name]:
                row = record.as_dict()
                if extra:
                    row.update(extra)
                handle.write(json.dumps(row) + "\n")
                written += 1
    return written

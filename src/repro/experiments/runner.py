"""Timed solver runs and the solver registry (paper Section 6 harness).

The registry names mirror Table 1's columns: ``pbs``, ``galena``,
``cplex`` (our reimplementations of the comparators) and the four bsolo
configurations ``bsolo-plain`` / ``bsolo-mis`` / ``bsolo-lgr`` /
``bsolo-lpr``.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Sequence

from ..api import make_solver as _registry_make_solver
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


def make_solver(
    name: str,
    instance: PBInstance,
    time_limit: Optional[float],
    tracer=None,
    profile: bool = False,
    on_progress=None,
    progress_interval: int = 1000,
    propagation: str = "counter",
    lb_schedule: str = "static",
    proof=None,
    metrics=None,
    hotspot=None,
):
    """Instantiate a registered solver for one instance.

    Thin wrapper over the :mod:`repro.api` registry, keeping the paper's
    Table 1 column names (``pbs``/``galena``/``cplex``/``scherzo`` are
    registry aliases).  Beyond the Table 1 columns, every registered
    solver — ``bsolo-hybrid``, ``covering-bnb``, ``portfolio``, … — is
    available.  The observability hooks (``tracer``, ``profile``,
    ``on_progress``, ``metrics``, ``hotspot``) and the ``propagation``
    backend name are honoured by the solvers that support them and
    ignored by the rest.
    """
    options = SolverOptions(
        time_limit=time_limit,
        tracer=tracer,
        profile=profile,
        on_progress=on_progress,
        progress_interval=progress_interval,
        propagation=propagation,
        lb_schedule=lb_schedule,
        proof=proof,
        metrics=metrics,
        hotspot=hotspot,
    )
    return _registry_make_solver(instance, name, options)


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
    time_limit: Optional[float] = None,
    tracer=None,
    profile: bool = False,
    on_progress=None,
    progress_interval: int = 1000,
    propagation: str = "counter",
    lb_schedule: str = "static",
    proof=None,
    metrics=None,
    hotspot=None,
) -> RunRecord:
    """Run one solver on one instance with a wall-clock budget.

    ``proof`` is an optional :class:`repro.certify.ProofLogger`; only
    the bsolo solvers honour it (they record a checkable derivation of
    the answer — see ``docs/PROOFS.md``).  ``metrics`` is an optional
    :class:`repro.obs.metrics.MetricsRegistry`, ``hotspot`` an optional
    :class:`repro.obs.prof.HotspotProfiler`; both are live-updated by
    the solvers that support them.
    """
    solver = make_solver(
        solver_name,
        instance,
        time_limit,
        tracer=tracer,
        profile=profile,
        on_progress=on_progress,
        progress_interval=progress_interval,
        propagation=propagation,
        lb_schedule=lb_schedule,
        proof=proof,
        metrics=metrics,
        hotspot=hotspot,
    )
    start = time.monotonic()
    result = solver.solve()
    seconds = time.monotonic() - start
    return RunRecord(solver_name, instance_label, result, seconds)


def run_matrix(
    instances: Sequence,
    labels: Sequence[str],
    solver_names: Sequence[str] = SOLVER_NAMES,
    time_limit: Optional[float] = None,
) -> Dict[str, List[RunRecord]]:
    """Run every named solver over every instance.

    Returns ``{solver_name: [RunRecord per instance]}``.
    """
    records: Dict[str, List[RunRecord]] = {name: [] for name in solver_names}
    for instance, label in zip(instances, labels):
        for name in solver_names:
            records[name].append(run_one(name, instance, label, time_limit))
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

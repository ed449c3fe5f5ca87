"""Scaling experiments: solve time / solved status vs instance size.

The paper's Table 1 fixes instance sizes and varies solvers; these sweeps
vary the size knob of one family to locate the *crossover* where lower
bounding starts paying for itself — the regime argument of the paper's
introduction ("branch-and-bound algorithms have proved to be very
effective when the instances to be solved are not highly constrained").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..benchgen.grout import generate_routing
from ..benchgen.ptl import generate_ptl_mapping
from ..benchgen.synthesis import generate_covering
from ..core.options import SolverOptions
from .runner import RunRecord, run_one


class ScalingPoint:
    """All solver runs at one size setting."""

    __slots__ = ("size", "records")

    def __init__(self, size: int, records: Dict[str, RunRecord]):
        self.size = size
        self.records = records

    def __repr__(self) -> str:
        cells = ", ".join(
            "%s=%s" % (name, record.cell()) for name, record in self.records.items()
        )
        return "ScalingPoint(size=%d: %s)" % (self.size, cells)


def _instance_for(family: str, size: int, seed: int):
    if family == "ptl":
        return generate_ptl_mapping(nodes=size, extra_edges=size // 2, seed=seed)
    if family == "grout":
        return generate_routing(
            rows=5, cols=5, nets=size, capacity=2, detours=4, seed=seed
        )
    if family == "mcnc":
        return generate_covering(
            minterms=2 * size, implicants=size, density=0.11, max_cost=120, seed=seed
        )
    raise ValueError("unknown scaling family %r" % family)


def scaling_sweep(
    family: str,
    sizes: Sequence[int],
    solver_names: Sequence[str] = ("bsolo-plain", "bsolo-lpr"),
    time_limit: float = 5.0,
    seed: int = 12,
) -> List[ScalingPoint]:
    """Run each solver at each size of one family (seeded instances)."""
    options = SolverOptions(time_limit=time_limit)
    points: List[ScalingPoint] = []
    for size in sizes:
        instance = _instance_for(family, size, seed)
        records = {
            name: run_one(name, instance, "%s-%d" % (family, size), options)
            for name in solver_names
        }
        points.append(ScalingPoint(size, records))
    return points


def crossover_size(
    points: Sequence[ScalingPoint], challenger: str, incumbent: str
) -> Optional[int]:
    """Smallest size at which ``challenger`` beats ``incumbent``.

    "Beats" = solves when the incumbent does not, or solves strictly
    faster.  Returns None when it never happens in the sweep.
    """
    for point in points:
        ours = point.records[challenger]
        theirs = point.records[incumbent]
        if ours.solved and not theirs.solved:
            return point.size
        if ours.solved and theirs.solved and ours.seconds < theirs.seconds:
            return point.size
    return None


def format_sweep(points: Sequence[ScalingPoint]) -> str:
    """A small text table: sizes as rows, solvers as columns."""
    if not points:
        return ""
    names = list(points[0].records)
    rows = [["size"] + names]
    for point in points:
        rows.append(
            [str(point.size)] + [point.records[name].cell() for name in names]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        for row in rows
    )

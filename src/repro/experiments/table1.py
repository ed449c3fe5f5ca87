"""Regeneration of the paper's Table 1 (its only exhibit).

Four instance families (grout routing, PTL/CMOS synthesis, MCNC
covering, acc-tight scheduling) x seven solver configurations (pbs,
galena, cplex, bsolo plain/MIS/LGR/LPR), with per-instance timings, "ub"
entries on budget expiry, and the "#Solved" summary row.

Instance sizes are scaled down from the originals (pure-Python solvers
are orders of magnitude slower than the paper's compiled ones on a 2005
Athlon; see DESIGN.md).  The claims being reproduced are *shape* claims:

1. within bsolo: plain <= MIS <= LGR <= LPR in instances solved;
2. bsolo-LPR solves at least as many as the PBS/Galena-likes overall;
3. the MILP baseline is strong on optimization rows, weak on the pure
   satisfaction (acc) rows;
4. on acc rows all bsolo variants behave identically (footnote a).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..benchgen.acc import scheduling_suite
from ..benchgen.grout import routing_suite
from ..benchgen.ptl import ptl_suite
from ..benchgen.synthesis import covering_suite
from ..pb.instance import PBInstance
from .runner import (
    BSOLO_NAMES,
    SOLVER_NAMES,
    RunRecord,
    run_matrix,
    solved_counts,
    write_records_jsonl,
)

#: Family keys in the paper's row order.
FAMILIES = ("grout", "ptl", "mcnc", "acc")


def family_instances(
    family: str, count: int = 5, scale: float = 1.0
) -> Tuple[List[PBInstance], List[str]]:
    """The scaled-down stand-in suite for one Table 1 row group.

    ``scale`` > 1 grows the instances (for calibration experiments);
    the defaults are tuned so the full matrix runs in minutes.
    """
    if family == "grout":
        instances = routing_suite(
            count=count,
            rows=max(2, round(6 * scale)),
            cols=max(2, round(6 * scale)),
            nets=max(2, round(14 * scale)),
            capacity=2,
            detours=5,
        )
        labels = ["grout-%d" % (i + 1) for i in range(count)]
    elif family == "ptl":
        instances = ptl_suite(
            count=count,
            nodes=max(3, round(22 * scale)),
            extra_edges=max(1, round(11 * scale)),
        )
        labels = ["ptl-%d" % (i + 1) for i in range(count)]
    elif family == "mcnc":
        instances = covering_suite(
            count=count,
            minterms=max(4, round(70 * scale)),
            implicants=max(3, round(36 * scale)),
            density=0.11,
            max_cost=120,
        )
        labels = ["mcnc-%d" % (i + 1) for i in range(count)]
    elif family == "acc":
        instances = scheduling_suite(
            count=count, teams=max(4, 2 * round(5 * scale))
        )
        labels = ["acc-%d" % (i + 1) for i in range(count)]
    else:
        raise ValueError("unknown family %r (choose from %s)" % (family, FAMILIES))
    return instances, labels


class Table1Result:
    """All runs of a Table 1 regeneration."""

    def __init__(self, per_family: Dict[str, Dict[str, List[RunRecord]]],
                 solver_names: Sequence[str]):
        #: family -> solver -> [RunRecord]
        self.per_family = per_family
        self.solver_names = list(solver_names)

    def solved_by_solver(self) -> Dict[str, int]:
        """The "#Solved" row, summed over all families."""
        totals = {name: 0 for name in self.solver_names}
        for records in self.per_family.values():
            for name, count in solved_counts(records).items():
                totals[name] += count
        return totals

    def solved_by_family(self, solver: str) -> Dict[str, int]:
        """#Solved per family for one solver column."""
        return {
            family: solved_counts(records)[solver]
            for family, records in self.per_family.items()
        }

    def dump_stats_jsonl(self, path: str) -> int:
        """Persist every run's structured stats as JSONL (one record per
        solver x instance, tagged with its family) so reproduction runs
        leave machine-readable trajectories behind.  Returns the number
        of records written."""
        written = 0
        for index, (family, records) in enumerate(self.per_family.items()):
            written += write_records_jsonl(
                records, path, extra={"family": family}, append=index > 0
            )
        return written

    def bsolo_ordering_holds(self) -> bool:
        """Claim 1: plain <= MIS <= LGR <= LPR in #solved."""
        totals = self.solved_by_solver()
        solved = [totals[name] for name in BSOLO_NAMES]
        return solved == sorted(solved)

    def acc_rows_identical_for_bsolo(self) -> bool:
        """Claim 4: without a cost function every bsolo variant does the
        same search (identical status and decision counts)."""
        records = self.per_family.get("acc")
        if not records:
            return True
        reference = records[BSOLO_NAMES[0]]
        for name in BSOLO_NAMES[1:]:
            for ours, theirs in zip(records[name], reference):
                if ours.result.status != theirs.result.status:
                    return False
                if ours.result.stats.decisions != theirs.result.stats.decisions:
                    return False
        return True


def generate_table1(
    time_limit: float = 5.0,
    count: int = 5,
    scale: float = 1.0,
    solver_names: Sequence[str] = SOLVER_NAMES,
    families: Sequence[str] = FAMILIES,
) -> Table1Result:
    """Run the full (scaled) Table 1 matrix."""
    per_family: Dict[str, Dict[str, List[RunRecord]]] = {}
    for family in families:
        instances, labels = family_instances(family, count=count, scale=scale)
        per_family[family] = run_matrix(
            instances, labels, solver_names=solver_names, time_limit=time_limit
        )
    return Table1Result(per_family, solver_names)

"""Linear-programming relaxation lower bounding (paper Sections 3.1, 4.2).

``z*_lpr <= z*_cp``: the LP optimum over ``0 <= x <= 1`` bounds the PB
optimum from below, and since the PB optimum is integral the bound can be
rounded up.  Besides the bound value, this module extracts

* the *fractional* LP values, which drive the paper's branching rule
  (Section 5: branch on the variable closest to 0.5), and
* the set ``S`` of tight constraints (zero LP slack), whose currently
  false literals form the explanation ``w_pl`` of a bound conflict
  (Section 4.2, eq. 9).

An infeasible node LP has no tight rows; its Farkas ray takes their
place.  The rows with a positive ray entry explain the prune, and the
ray's entries, checked in floating point before the verdict is given,
are the multipliers of its proof certificate.

Every node LP is solved cold by :func:`~repro.lp.simplex.solve_node_lp`,
a dual simplex from the all-surplus basis at ``x = 0``: the LP data is
rebuilt for the node and no simplex state outlives the call.

The LP holds the instance's rows only, not the Section 5 cuts.  With
the eq. 10 row ``c.x <= U - 1 - path`` the LP is infeasible exactly
when the cut-free optimum meets the prune test ``path + ceil(z) >= U``
(an eq. 13 row likewise, since every LP point pays at least ``V`` on
``K``), so the cut rows would decide no prune: they would only turn
value prunes into infeasible ones.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence

import numpy as np

from ..pb.constraints import Constraint
from ..pb.instance import PBInstance
from .simplex import INFEASIBLE, OPTIMAL, solve_node_lp
from .standard_form import build_lp_data
from .tolerances import FEAS_TOL, TIGHT_TOL, ceil_guarded


class LowerBound:
    """A lower bound on the cost of completing the current assignment."""

    __slots__ = ("value", "infeasible", "explanation", "fractional", "duals_by_row", "iterations")

    def __init__(
        self,
        value: int,
        infeasible: bool = False,
        explanation: Sequence[Constraint] = (),
        fractional: Optional[Mapping[int, float]] = None,
        duals_by_row: Optional[Mapping[Constraint, float]] = None,
        iterations: int = 0,
    ):
        #: ``P.lower``: integer lower bound on the *remaining* cost.
        self.value = value
        #: True when the relaxation itself is infeasible.
        self.infeasible = infeasible
        #: Constraints responsible for the bound (the paper's set ``S``);
        #: for an infeasible verdict, the rows that no completion can
        #: satisfy together.
        self.explanation = list(explanation)
        #: LP value per free variable (only meaningful for LPR).
        self.fractional: Dict[int, float] = dict(fractional or {})
        #: Dual value (LPR) or multiplier (LGR) per binding constraint,
        #: summed over equal rows (:func:`sum_by_row`); for an infeasible
        #: verdict, the multipliers of its Farkas certificate.  Read by
        #: proof certificates (``ProofLogger.log_bound_linear``) and the
        #: LGR alpha refinement (``alpha_of_assigned``).
        self.duals_by_row: Dict[Constraint, float] = dict(duals_by_row or {})
        #: Work spent (simplex or subgradient iterations).
        self.iterations = iterations

    @classmethod
    def violated(
        cls, rows: Iterable[Constraint], fixed: Mapping[int, int]
    ) -> "LowerBound":
        """The infeasible verdict of the first of ``rows`` that ``fixed``
        already violates: that row alone, with multiplier 1, is its
        certificate."""
        row = next(row for row in rows if row.slack(fixed) < 0)
        return cls(0, infeasible=True, explanation=[row], duals_by_row={row: 1.0})

    def __repr__(self) -> str:
        if self.infeasible:
            return "LowerBound(infeasible)"
        return "LowerBound(%d)" % self.value


def sum_by_row(
    rows: Sequence[Constraint], values: Iterable[float]
) -> Dict[Constraint, float]:
    """Map each row to its multiplier, summing over equal rows.

    An instance may hold a row twice; the relaxation weighs each copy,
    so the certificate ``sum mu_i C_i`` must weigh the row by the sum.
    """
    summed: Dict[Constraint, float] = {}
    for row, value in zip(rows, values):
        summed[row] = summed.get(row, 0.0) + float(value)
    return summed


def integer_ceil_bound(lp_objective: float) -> int:
    """Round an LP bound *up* to the next integer, guarding float noise."""
    return ceil_guarded(lp_objective)


class LPRelaxationBound:
    """Lower bound estimation via linear-programming relaxation."""

    name = "lpr"

    def __init__(self, instance: PBInstance, max_iterations: int = 20000):
        self._instance = instance
        self._max_iterations = max_iterations
        self.num_calls = 0
        self.total_iterations = 0

    def stats_dict(self) -> Dict[str, float]:
        """Structured per-bounder stats (merged into ``SolverStats``)."""
        return {"calls": self.num_calls, "iterations": self.total_iterations}

    def compute(self, fixed: Mapping[int, int]) -> LowerBound:
        """``P.lower`` for the sub-problem under the partial assignment."""
        self.num_calls += 1
        data = build_lp_data(self._instance, fixed)
        if data is None:
            return LowerBound.violated(self._instance.constraints, fixed)
        if data.num_rows == 0:
            # Nothing left to satisfy: remaining cost is simply 0.
            return LowerBound(0)
        result = solve_node_lp(data.c, data.A, data.b, self._max_iterations)
        self.total_iterations += result.iterations
        if result.status == INFEASIBLE:
            ray = np.where(result.ray > FEAS_TOL, result.ray, 0.0)
            if ray @ data.b - np.maximum(ray @ data.A, 0.0).sum() > FEAS_TOL:
                support = ray.nonzero()[0]
                rows = [data.rows[i] for i in support]
                return LowerBound(
                    0,
                    infeasible=True,
                    explanation=rows,
                    duals_by_row=sum_by_row(rows, ray[support]),
                    iterations=result.iterations,
                )
        if result.status != OPTIMAL:
            # Iteration limit, or a ray that fails its check: fall back
            # to the trivial bound 0 (sound: the node is not pruned).
            return LowerBound(0, iterations=result.iterations)
        value = integer_ceil_bound(result.objective)
        tight = result.tight_rows(TIGHT_TOL)
        explanation = [data.rows[i] for i in tight]
        duals_by_row = sum_by_row(data.rows, result.duals)
        fractional = {
            data.columns[j]: float(result.x[j]) for j in range(data.num_columns)
        }
        return LowerBound(
            value,
            explanation=explanation,
            fractional=fractional,
            duals_by_row=duals_by_row,
            iterations=result.iterations,
        )


def root_lpr_bound(instance: PBInstance) -> int:
    """LPR bound of the whole instance (no assignments): ``ceil(z*_lpr)``."""
    return LPRelaxationBound(instance).compute({}).value

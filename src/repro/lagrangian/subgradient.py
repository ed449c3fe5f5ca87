"""Lagrangian relaxation lower bounding (paper Sections 3.2, 4.3).

The constraints of the (reduced) sub-problem are dualized into the
objective with non-negative multipliers ``mu``.  For inequality
constraints ``A x >= b`` the correct penalization is ``mu . (b - A x)``
(Ahuja-Magnanti-Orlin, the paper's reference [12]; the paper's eq. 4/6
carry a sign typo — with ``mu . (A x - b)`` and non-negative data every
``alpha_j`` would be non-negative and the bound trivial).  Hence::

    L(mu) = min_{x in {0,1}^n}  sum_j alpha_j x_j  +  mu . b
    alpha_j = c_j - sum_i mu_i a_ij          (integer-form coefficients)
    x_j(mu) = 1  iff  alpha_j < 0

``L(mu)`` is a lower bound on the PB optimum for every ``mu >= 0``
(Lagrangian bounding principle); ``L* = max_mu L(mu)`` is approached with
the textbook subgradient method: ``mu <- max(0, mu + theta_k g_k)`` with
``g_k = b - A x(mu_k)`` and step ``theta_k = lambda_k (UB - L(mu_k)) /
||g_k||^2``, halving ``lambda`` after a stall.

For bound-conflict explanations (Section 4.3) the responsible set ``S``
holds the constraints with non-zero multipliers; the ``alpha_j`` sign
refinement drops assignments whose flip could only raise the bound.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..pb.constraints import Constraint
from ..pb.instance import PBInstance
from ..lp.relaxation import LowerBound, sum_by_row
from ..lp.standard_form import build_lp_data
from ..lp.tolerances import ceil_guarded


#: Step scale ``lambda_0`` of the first iteration.
_INITIAL_LAMBDA = 2.0
#: Iterations without a better ``L(mu)`` before ``lambda`` halves.
_STALL_LIMIT = 5
#: The ascent stops once ``lambda`` falls below this.
_MIN_LAMBDA = 1e-4
#: Multipliers at or below this are zero: their rows leave ``S``.
_MULTIPLIER_TOL = 1e-9


class LagrangianBound:
    """Lower bound estimation via Lagrangian relaxation + subgradient."""

    name = "lgr"

    def __init__(
        self,
        instance: PBInstance,
        max_iterations: int = 100,
        reuse_multipliers: bool = True,
    ):
        self._instance = instance
        self._max_iterations = max_iterations
        #: Warm-start each call from the previous call's best multipliers
        #: (consecutive search nodes have similar sub-problems, so the
        #: ascent resumes near the optimum — standard subgradient
        #: practice, Ahuja-Magnanti-Orlin).
        self._reuse_multipliers = reuse_multipliers
        self._mu_memory: Dict[Constraint, float] = {}
        self.num_calls = 0
        self.total_iterations = 0
        #: Trace of L(mu) per iteration of the last call (for convergence
        #: studies, paper Section 6 discusses LGR's slow convergence).
        self.last_trace: List[float] = []

    def stats_dict(self) -> Dict[str, float]:
        """Structured per-bounder stats (merged into ``SolverStats``)."""
        return {"calls": self.num_calls, "iterations": self.total_iterations}

    # ------------------------------------------------------------------
    def compute(
        self, fixed: Mapping[int, int], upper_target: Optional[float] = None
    ) -> LowerBound:
        """``P.lower`` via subgradient ascent of ``L(mu)``.

        ``upper_target`` feeds the Polyak step size (defaults to the sum
        of remaining costs).
        """
        self.num_calls += 1
        data = build_lp_data(self._instance, fixed)
        if data is None:
            return LowerBound.violated(self._instance.constraints, fixed)
        m, n = data.num_rows, data.num_columns
        if m == 0:
            return LowerBound(0)

        c = data.c
        A = data.A
        b = data.b
        if upper_target is None:
            upper_target = float(c.sum()) + 1.0

        mu = np.zeros(m)
        if self._mu_memory:
            for i, row in enumerate(data.rows):
                mu[i] = self._mu_memory.get(row, 0.0)

        lam = _INITIAL_LAMBDA
        best_value = -math.inf
        best_mu = mu.copy()
        stall = 0
        self.last_trace = []

        for iteration in range(self._max_iterations):
            alpha = c - mu @ A
            x = (alpha < 0.0).astype(float)
            value = float(alpha[alpha < 0.0].sum() + mu @ b)
            self.last_trace.append(value)
            self.total_iterations += 1
            if value > best_value + 1e-12:
                best_value = value
                best_mu = mu.copy()
                stall = 0
            else:
                stall += 1
                if stall >= _STALL_LIMIT:
                    lam /= 2.0
                    stall = 0
                    if lam < _MIN_LAMBDA:
                        break
            g = b - A @ x
            norm = float(g @ g)
            if norm < 1e-12:
                # x(mu) satisfies every dualized row exactly: L(mu) is L*.
                break
            theta = lam * max(upper_target - value, 1e-6) / norm
            mu = np.maximum(0.0, mu + theta * g)

        if best_value == -math.inf:  # pragma: no cover - defensive
            best_value = 0.0
        bound = max(ceil_guarded(best_value), 0)

        # The paper's set S: the constraints with non-zero multipliers.
        active = [i for i in range(m) if best_mu[i] > _MULTIPLIER_TOL]
        explanation = [data.rows[i] for i in active]
        if self._reuse_multipliers:
            # One value per row: every copy of a duplicated row restarts
            # from it.
            self._mu_memory = {
                row: float(best_mu[i]) for row, i in zip(explanation, active)
            }
        return LowerBound(
            bound,
            explanation=explanation,
            fractional={},
            duals_by_row=sum_by_row(explanation, best_mu[active]),
            iterations=len(self.last_trace),
        )

    # ------------------------------------------------------------------
    def alpha_of_assigned(
        self,
        fixed: Mapping[int, int],
        duals_by_row: Mapping[Constraint, float],
    ) -> Dict[int, float]:
        """``alpha_j`` for *assigned* variables over the S constraints.

        Used by the Section 4.3 refinement: a false literal over variable
        ``j`` can be dropped from ``w_pl`` when flipping ``x_j`` cannot
        lower the bound, i.e. when ``x_j = 0`` and ``alpha_j >= 0``, or
        ``x_j = 1`` and ``alpha_j <= 0`` (corrected signs).
        """
        alpha: Dict[int, float] = {}
        costs = self._instance.objective.costs
        for var in fixed:
            alpha[var] = float(costs.get(var, 0))
        for constraint, mu_i in duals_by_row.items():
            if mu_i <= _MULTIPLIER_TOL:
                continue
            weights, _ = constraint.integer_form()
            for var, weight in weights.items():
                if var in alpha:
                    alpha[var] -= mu_i * weight
        return alpha

"""Bound-conflict explanations (paper Section 4).

A *bound conflict* arises when ``P.path + P.lower >= P.upper`` (eq. 7).
The clause ``w_bc = w_pp  union  w_pl`` records a set of currently-false
literals at least one of which must become true in any better solution:

* ``w_pp`` (eq. 8) explains the path cost: ``{~x_j : Cost(x_j) > 0 and
  x_j = 1}`` — to pay less, some costed variable now at 1 must go to 0.
* ``w_pl`` (eq. 9) explains the lower bound: the literals assigned value
  0 in the *responsible* constraints ``S`` — LP-tight rows for LPR
  (Section 4.2), rows with non-zero multipliers for LGR (Section 4.3),
  the selected independent set for MIS.

An infeasible relaxation names its own rows: the support of an LP's
Farkas ray, or a row the assignment already violates.  Its clause is
``w_pl`` over those rows alone: no completion is feasible at any cost,
so ``w_pp`` is not needed.

For Lagrangian explanations the optional ``alpha_j`` refinement drops
assignments whose flip can only raise the bound (Section 4.3, with the
sign correction documented in DESIGN.md): keep a false literal over
variable ``j`` only when flipping ``x_j`` could lower the bound, i.e.
``x_j = 0`` with ``alpha_j < 0`` or ``x_j = 1`` with ``alpha_j > 0``.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Set, Tuple

from ..pb.constraints import Constraint
from ..pb.objective import Objective
from ..engine.assignment import Trail

_ALPHA_TOL = 1e-9


def path_explanation(objective: Objective, trail: Trail) -> List[int]:
    """``w_pp`` (eq. 8): ``~x_j`` for every costed variable at 1."""
    literals: List[int] = []
    for var, cost in objective.costs.items():
        if cost > 0 and trail.value(var) == 1:
            literals.append(-var)
    return literals


def lower_bound_explanation(
    responsible: Sequence[Constraint],
    trail: Trail,
    alpha_by_var: Optional[Mapping[int, float]] = None,
) -> List[int]:
    """``w_pl`` (eq. 9): false literals of the responsible constraints.

    ``alpha_by_var`` enables the Section 4.3 refinement (Lagrangian
    only): false literals whose flip cannot lower the bound are dropped.
    """
    seen: Set[int] = set()
    literals: List[int] = []
    for constraint in responsible:
        for _, lit in constraint.terms:
            if lit in seen or not trail.literal_is_false(lit):
                continue
            seen.add(lit)
            if alpha_by_var is not None:
                var = lit if lit > 0 else -lit
                alpha = alpha_by_var.get(var)
                if alpha is not None:
                    if lit > 0 and alpha >= -_ALPHA_TOL:
                        continue  # x_j = 0, flip can only raise the bound
                    if lit < 0 and alpha <= _ALPHA_TOL:
                        continue  # x_j = 1, flip can only raise the bound
            literals.append(lit)
    return literals


def bound_conflict_clause(
    objective: Objective,
    trail: Trail,
    responsible: Sequence[Constraint],
    alpha_by_var: Optional[Mapping[int, float]] = None,
) -> Tuple[int, ...]:
    """``w_bc = w_pp union w_pl`` (Section 4.1); all literals false.

    An empty result proves that no assignment can beat the incumbent:
    the search is complete.
    """
    literals = path_explanation(objective, trail)
    seen = set(literals)
    for lit in lower_bound_explanation(responsible, trail, alpha_by_var):
        if lit not in seen:
            seen.add(lit)
            literals.append(lit)
    return tuple(literals)

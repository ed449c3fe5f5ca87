"""Enumeration of optimal solutions.

Finds the optimum once, then repeatedly blocks the incumbent assignment
and re-solves under a ``cost <= optimum`` constraint until the optimal
cost is exhausted — yielding every distinct optimal assignment (or up to
``limit`` of them).  Useful in EDA flows where ties are broken by a
secondary criterion.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..pb.constraints import Constraint
from ..pb.instance import PBInstance
from .options import SolverOptions
from .result import OPTIMAL, SATISFIABLE
from .solver import BsoloSolver


def enumerate_optimal(
    instance: PBInstance,
    options: Optional[SolverOptions] = None,
    limit: Optional[int] = None,
) -> Iterator[Dict[int, int]]:
    """Yield every optimal assignment (deterministic order).

    For pure satisfaction instances every model is "optimal".  Stops
    early after ``limit`` solutions.  Budgets inside ``options`` apply to
    each solve individually; a budget expiry stops the enumeration.
    """
    options = options or SolverOptions()
    first = BsoloSolver(instance, options).solve()
    if first.status not in (OPTIMAL, SATISFIABLE):
        return
    optimum = first.best_cost
    internal_optimum = optimum - instance.objective.offset

    extra: List[Constraint] = []
    if not instance.objective.is_constant:
        cost_cap = Constraint.less_equal(
            [(cost, var) for var, cost in instance.objective.costs.items()],
            internal_optimum,
        )
        if not cost_cap.is_tautology:
            extra.append(cost_cap)

    # the proof logger holds the first solve's log only
    next_options = options.replace(proof=None)
    count = 0
    assignment = first.best_assignment
    while True:
        yield dict(assignment)
        count += 1
        if limit is not None and count >= limit:
            return
        # block this exact assignment
        blocking = Constraint.clause(
            [-var if value else var for var, value in sorted(assignment.items())]
        )
        extra.append(blocking)
        try:
            narrowed = PBInstance(
                list(instance.constraints) + extra,
                instance.objective,
                num_variables=instance.num_variables,
            )
        except ValueError:
            return  # blocking clause unsatisfiable: single total assignment
        result = BsoloSolver(narrowed, next_options).solve()
        if result.status not in (OPTIMAL, SATISFIABLE):
            return
        if result.best_cost != optimum:
            return
        assignment = result.best_assignment


def count_optimal(
    instance: PBInstance,
    options: Optional[SolverOptions] = None,
    limit: int = 1000,
) -> int:
    """The number of optimal assignments (capped at ``limit``)."""
    return sum(1 for _ in enumerate_optimal(instance, options, limit=limit))

"""Exhaustive reference solver (test oracle only).

Enumerates all ``2^n`` assignments.  Obviously exponential — used by the
test suite to validate every other solver on small instances.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..pb.instance import PBInstance
from ..core.options import SolverOptions
from ..core.result import SolveResult, SolveRun


class BruteForceSolver:
    """Enumerate every assignment; guaranteed-correct reference.

    An oracle imports no bound: ``external_bound`` is not read.
    """

    name = "brute-force"

    def __init__(self, instance: PBInstance,
                 options: Optional[SolverOptions] = None, *,
                 max_variables: int = 22):
        if instance.num_variables > max_variables:
            raise ValueError(
                "brute force capped at %d variables (got %d)"
                % (max_variables, instance.num_variables)
            )
        self._instance = instance
        self._run = SolveRun(
            self.name, instance.objective, options or SolverOptions(),
            strategy="enumeration",
        )
        self.stats = self._run.stats

    def solve(self) -> SolveResult:
        """Enumerate all assignments; exact but exponential."""
        run = self._run
        run.begin()
        instance = self._instance
        objective = instance.objective
        n = instance.num_variables
        exhausted = True
        with run.timer.phase("enumerate"):
            for index, bits in enumerate(itertools.product((0, 1), repeat=n)):
                if index % 4096 == 0 and run.stopped():
                    exhausted = False
                    break
                assignment = {var: bits[var - 1] for var in range(1, n + 1)}
                if not instance.check(assignment):
                    continue
                cost = objective.path_cost(assignment)
                if cost < run.upper:
                    run.improve(assignment, cost)
                    if objective.is_constant:
                        break
        return run.close(run.result(exhausted))


def brute_force_optimum(instance: PBInstance) -> Optional[int]:
    """The optimal cost, or None when unsatisfiable."""
    return BruteForceSolver(instance).solve().best_cost

"""Exhaustive reference solver (test oracle only).

Enumerates all ``2^n`` assignments.  Obviously exponential — used by the
test suite to validate every other solver on small instances.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Optional

from ..pb.instance import PBInstance
from ..core.options import SolverOptions
from ..core.result import (
    OPTIMAL,
    SATISFIABLE,
    SolveResult,
    UNKNOWN,
    UNSATISFIABLE,
)
from ..core.stats import SolverStats, record_metrics
from ..obs.events import IncumbentEvent, ResultEvent, RunHeaderEvent
from ..obs.timers import NULL_TIMER, PhaseTimer
from ..obs.trace import NULL_TRACER


class BruteForceSolver:
    """Enumerate every assignment; guaranteed-correct reference."""

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
        self._options = opts = options or SolverOptions()
        self._tracer = opts.tracer if opts.tracer is not None else NULL_TRACER
        self._timer = PhaseTimer() if opts.profile else NULL_TIMER
        self.stats = SolverStats()

    def solve(self) -> SolveResult:
        """Enumerate all assignments; exact but exponential."""
        start = time.monotonic()
        options = self._options
        deadline = (
            start + options.time_limit
            if options.time_limit is not None else None
        )
        instance = self._instance
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                RunHeaderEvent(
                    solver=self.name,
                    instance=getattr(tracer, "instance_label", ""),
                    options={"strategy": "enumeration"},
                )
            )
        n = instance.num_variables
        best_cost: Optional[int] = None
        best_assignment: Optional[Dict[int, int]] = None
        status: Optional[str] = None
        stats = self.stats
        with self._timer.phase("enumerate"):
            for index, bits in enumerate(itertools.product((0, 1), repeat=n)):
                if index % 4096 == 0 and index:
                    if deadline is not None and time.monotonic() > deadline:
                        status = UNKNOWN
                        break
                    if options.should_stop is not None and options.should_stop():
                        stats.interrupted = True
                        status = UNKNOWN
                        break
                assignment = {var: bits[var - 1] for var in range(1, n + 1)}
                if not instance.check(assignment):
                    continue
                cost = instance.cost(assignment)
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_assignment = assignment
                    stats.solutions_found += 1
                    if tracer.enabled:
                        tracer.emit(IncumbentEvent(cost=cost))
                    if options.on_incumbent is not None:
                        options.on_incumbent(cost, dict(assignment))
                    if instance.is_satisfaction:
                        break
        stats.elapsed = time.monotonic() - start
        stats.phase_times = self._timer.snapshot()
        record_metrics(options.metrics, {}, stats)
        if status is None:
            if best_assignment is None:
                status = UNSATISFIABLE
            else:
                status = SATISFIABLE if instance.is_satisfaction else OPTIMAL
        if tracer.enabled:
            tracer.emit(ResultEvent(status=status, cost=best_cost))
            tracer.flush()
        return SolveResult(
            status,
            best_cost=best_cost,
            best_assignment=best_assignment,
            stats=stats,
            solver_name=self.name,
        )


def brute_force_optimum(instance: PBInstance) -> Optional[int]:
    """The optimal cost, or None when unsatisfiable."""
    return BruteForceSolver(instance).solve().best_cost

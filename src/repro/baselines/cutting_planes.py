"""Galena-style PB solver (paper reference [4], Chai & Kuehlmann).

Galena improved on PBS by keeping the learning state across cost-bound
tightenings and by learning stronger-than-clausal facts.  This
reimplementation captures both distinguishing features:

* a *single incremental* CDCL search — learned constraints survive each
  new ``sum c_j x_j <= k - 1`` bound (no restart from scratch), and
* *cardinality strengthening* of the objective cut: besides the knapsack
  constraint, a cardinality bound ``at least r complement literals`` is
  derived from it (the cardinality-reduction idea of Galena's learning,
  applied to the strongest constraint we generate), which propagates much
  earlier than the raw knapsack form.

Still no lower bounding — in the paper's experiments Galena beats PBS but
loses clearly to bsolo with LPR.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ..core.cuts import CutGenerator
from ..core.options import SolverOptions
from ..core.result import (
    OPTIMAL,
    SATISFIABLE,
    SolveResult,
    UNKNOWN,
    UNSATISFIABLE,
)
from ..core.stats import SolverStats, record_metrics
from ..obs.events import CutEvent, IncumbentEvent, ResultEvent, RunHeaderEvent
from ..obs.timers import NULL_TIMER, PhaseTimer
from ..obs.trace import NULL_TRACER
from ..pb.instance import PBInstance
from .sat_search import STOPPED, UNSAT, DecisionSearch


# Galena's cardinality reduction lives with the cutting-plane machinery.
from ..engine.pb_resolution import cardinality_reduction


class CuttingPlanesSolver:
    """Incremental linear search with cardinality strengthening.

    Carries the same observability instruments as the other comparators
    (``tracer``, ``profile``), so cross-solver traces and profiles are
    recorded uniformly.
    """

    name = "galena-like"

    def __init__(self, instance: PBInstance,
                 options: Optional[SolverOptions] = None):
        self._instance = instance
        self._options = opts = options or SolverOptions()
        self._time_limit = opts.time_limit
        self._max_conflicts = opts.max_conflicts
        self._tracer = opts.tracer if opts.tracer is not None else NULL_TRACER
        self._timer = PhaseTimer() if opts.profile else NULL_TIMER
        self.stats = SolverStats()

    def _add_bound_cuts(self, search: DecisionSearch, cut) -> None:
        """Install a knapsack cut plus its cardinality strengthening."""
        search.add_constraint(cut)
        self.stats.cuts_added += 1
        if self._tracer.enabled:
            self._tracer.emit(CutEvent(size=len(cut)))
        reduction = cardinality_reduction(cut)
        if reduction is not None:
            search.add_constraint(reduction)
            self.stats.cuts_added += 1
            if self._tracer.enabled:
                self._tracer.emit(CutEvent(size=len(reduction)))

    def solve(self) -> SolveResult:
        """Incremental linear search with cardinality strengthening."""
        start = time.monotonic()
        deadline = start + self._time_limit if self._time_limit is not None else None
        instance = self._instance
        objective = instance.objective
        options = self._options
        cut_generator = CutGenerator(instance, cardinality_cuts=False)
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                RunHeaderEvent(
                    solver=self.name,
                    instance=getattr(tracer, "instance_label", ""),
                    options={"strategy": "incremental_linear_search"},
                )
            )

        search = DecisionSearch(
            instance.num_variables, decay=options.vsids_decay, pb_learning=True,
            tracer=tracer, timer=self._timer,
        )
        search.add_constraints(instance.constraints)

        best_cost: Optional[int] = None  # path scale, local or imported
        best_assignment: Optional[Dict[int, int]] = None
        external_cost: Optional[int] = None  # reported scale, model elsewhere
        status = None
        while True:
            if options.should_stop is not None and options.should_stop():
                self.stats.interrupted = True
                status = UNKNOWN
                break
            if options.external_bound is not None and not objective.is_constant:
                imported = options.external_bound()
                if imported is not None:
                    path = imported - objective.offset
                    if best_cost is None or path < best_cost:
                        best_cost = path
                        best_assignment = None
                        external_cost = imported
                        self.stats.external_bounds += 1
                        cut = cut_generator.knapsack_cut(path)
                        if cut is None:
                            status = OPTIMAL
                            break
                        self._add_bound_cuts(search, cut)
            outcome, model = search.solve(
                deadline=deadline, max_conflicts=self._max_conflicts,
                stop=options.should_stop,
            )
            if outcome == STOPPED:
                status = UNKNOWN
                if options.should_stop is not None and options.should_stop():
                    self.stats.interrupted = True
                break
            if outcome == UNSAT:
                status = UNSATISFIABLE if best_cost is None else OPTIMAL
                break
            cost = objective.path_cost(model)
            self.stats.solutions_found += 1
            best_cost = cost
            best_assignment = model
            external_cost = None
            if tracer.enabled:
                tracer.emit(
                    IncumbentEvent(
                        cost=cost + objective.offset,
                        decisions=search.decisions,
                        conflicts=search.conflicts,
                    )
                )
            if options.on_incumbent is not None:
                options.on_incumbent(cost + objective.offset, dict(model))
            if objective.is_constant:
                status = SATISFIABLE
                break
            cut = cut_generator.knapsack_cut(cost)
            if cut is None:
                status = OPTIMAL
                break
            self._add_bound_cuts(search, cut)

        self.stats.decisions = search.decisions
        self.stats.logic_conflicts = search.conflicts
        self.stats.propagations = search.propagations
        self.stats.pb_resolvents = search.pb_resolvents
        self.stats.elapsed = time.monotonic() - start
        self.stats.phase_times = self._timer.snapshot()
        record_metrics(options.metrics, {}, self.stats)
        if external_cost is not None:
            reported = external_cost
        elif best_cost is not None and (
            best_assignment is not None or status == OPTIMAL
        ):
            reported = best_cost + objective.offset
        else:
            reported = None
        if status == SATISFIABLE:
            reported = objective.offset
        if tracer.enabled:
            tracer.emit(
                ResultEvent(
                    status=status,
                    cost=reported,
                    decisions=self.stats.decisions,
                    conflicts=self.stats.conflicts,
                )
            )
            tracer.flush()
        return SolveResult(
            status,
            best_cost=reported,
            best_assignment=best_assignment,
            stats=self.stats,
            solver_name=self.name,
        )

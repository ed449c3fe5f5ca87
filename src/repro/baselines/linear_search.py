"""PBS-style SAT-based linear search on the cost function (paper [2, 3]).

Barth's classic scheme, as used by PBS: solve the constraints as a pure
PB-SAT problem; each time a model of cost ``k`` is found, add the
constraint ``sum c_j x_j <= k - 1`` and *restart* the decision search
from scratch; when the instance becomes unsatisfiable the last model is
optimal.  No lower bounding is performed — the weakness the paper's
experiments expose on optimization-heavy instances.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

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
from ..pb.constraints import Constraint
from ..pb.instance import PBInstance
from .sat_search import STOPPED, UNSAT, DecisionSearch


class LinearSearchSolver:
    """SAT-based linear search (PBS-like comparator).

    Supports the same observability and portfolio hooks as the bsolo
    solver (``tracer``, ``profile``, ``on_incumbent``, ``external_bound``,
    ``should_stop``), so cross-solver comparisons measure with one
    instrument and the solver can run as a portfolio worker.  An imported
    external incumbent is folded in as a knapsack cut at the next search
    restart.
    """

    name = "pbs-like"

    def __init__(self, instance: PBInstance,
                 options: Optional[SolverOptions] = None):
        self._instance = instance
        self._options = opts = options or SolverOptions()
        self._time_limit = opts.time_limit
        self._max_conflicts = opts.max_conflicts
        self._tracer = opts.tracer if opts.tracer is not None else NULL_TRACER
        self._timer = PhaseTimer() if opts.profile else NULL_TIMER
        self.stats = SolverStats()

    def solve(self) -> SolveResult:
        """SAT-based linear search: tighten the cost bound per solution."""
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
                    options={"strategy": "linear_search"},
                )
            )

        extra: List[Constraint] = []
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
                            # a cost-0 incumbent elsewhere: nothing beats it
                            status = OPTIMAL
                            break
                        extra.append(cut)
                        self.stats.cuts_added += 1
            # PBS restarts the SAT engine for every new cost bound.
            search = DecisionSearch(
                instance.num_variables, decay=options.vsids_decay,
                tracer=tracer, timer=self._timer,
            )
            search.add_constraints(instance.constraints)
            search.add_constraints(extra)
            outcome, model = search.solve(
                deadline=deadline, max_conflicts=self._max_conflicts,
                stop=options.should_stop,
            )
            self.stats.decisions += search.decisions
            self.stats.logic_conflicts += search.conflicts
            self.stats.propagations += search.propagations
            if outcome == STOPPED:
                status = UNKNOWN
                if options.should_stop is not None and options.should_stop():
                    self.stats.interrupted = True
                break
            if outcome == UNSAT:
                if best_cost is None:
                    status = UNSATISFIABLE
                else:
                    status = OPTIMAL
                break
            # a model: record, tighten, iterate
            cost = objective.path_cost(model)
            self.stats.solutions_found += 1
            best_cost = cost
            best_assignment = model
            external_cost = None
            reported = cost + objective.offset
            if tracer.enabled:
                tracer.emit(
                    IncumbentEvent(
                        cost=reported,
                        decisions=self.stats.decisions,
                        conflicts=self.stats.conflicts,
                    )
                )
            if options.on_incumbent is not None:
                options.on_incumbent(reported, dict(model))
            if objective.is_constant:
                status = SATISFIABLE
                break
            cut = cut_generator.knapsack_cut(cost)
            if cut is None:
                # cost 0 model: nothing can be cheaper
                status = OPTIMAL
                break
            extra.append(cut)
            self.stats.cuts_added += 1
            if tracer.enabled:
                tracer.emit(CutEvent(size=len(cut)))

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

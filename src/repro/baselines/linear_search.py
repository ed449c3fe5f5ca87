"""PBS-style SAT-based linear search on the cost function (paper [2, 3]).

Barth's classic scheme, as used by PBS: solve the constraints as a pure
PB-SAT problem; each time a model of cost ``k`` is found, add the
constraint ``sum c_j x_j <= k - 1`` and *restart* the decision search
from scratch; when the instance becomes unsatisfiable the last model is
optimal.  No lower bounding is performed — the weakness the paper's
experiments expose on optimization-heavy instances.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.cuts import CutGenerator
from ..core.options import SolverOptions
from ..core.result import SolveResult, SolveRun
from ..obs.events import CutEvent
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
        self._options = options or SolverOptions()
        self._run = SolveRun(
            self.name, instance.objective, self._options, strategy="linear_search"
        )
        self.stats = self._run.stats

    def _tighten(self, extra: List[Constraint], cut_generator: CutGenerator) -> bool:
        """Add the knapsack cut of ``P.upper`` to the rows of the next
        restart; False when no cheaper solution is left (a cost-0
        incumbent)."""
        cut = cut_generator.knapsack_cut(self._run.upper)
        if cut is None:
            return False
        extra.append(cut)
        self.stats.cuts_added += 1
        tracer = self._run.tracer
        if tracer.enabled:
            tracer.emit(CutEvent(size=len(cut)))
        return True

    def solve(self) -> SolveResult:
        """SAT-based linear search: tighten the cost bound per solution."""
        run = self._run
        run.begin()
        instance = self._instance
        objective = instance.objective
        stats = self.stats
        cut_generator = CutGenerator(instance, cardinality_cuts=False)
        extra: List[Constraint] = []
        exhausted = False
        while not run.stopped():
            if run.poll_bound() and not self._tighten(extra, cut_generator):
                exhausted = True
                break
            # PBS restarts the SAT engine for every new cost bound.
            search = DecisionSearch(
                instance.num_variables, decay=self._options.vsids_decay,
                tracer=run.tracer, timer=run.timer,
            )
            search.add_constraints(instance.constraints)
            search.add_constraints(extra)
            outcome, model = search.solve(run.stopped, *run.budgets())
            stats.decisions += search.decisions
            stats.logic_conflicts += search.conflicts
            stats.propagations += search.propagations
            if outcome == STOPPED:
                break
            if outcome == UNSAT:
                exhausted = True
                break
            run.improve(model, objective.path_cost(model))
            if objective.is_constant or not self._tighten(extra, cut_generator):
                exhausted = True
                break
        return run.close(run.result(exhausted))

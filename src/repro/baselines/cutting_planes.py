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

from typing import Optional

from ..core.cuts import CutGenerator
from ..core.options import SolverOptions
from ..core.result import SolveResult, SolveRun
from ..obs.events import CutEvent
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
        self._options = options or SolverOptions()
        self._run = SolveRun(
            self.name,
            instance.objective,
            self._options,
            strategy="incremental_linear_search",
        )
        self.stats = self._run.stats

    def _tighten(self, search: DecisionSearch, cut_generator: CutGenerator) -> bool:
        """Install the knapsack cut of ``P.upper`` plus its cardinality
        strengthening; False when no cheaper solution is left (a cost-0
        incumbent)."""
        cut = cut_generator.knapsack_cut(self._run.upper)
        if cut is None:
            return False
        tracer = self._run.tracer
        for row in (cut, cardinality_reduction(cut)):
            if row is None:
                continue
            search.add_constraint(row)
            self.stats.cuts_added += 1
            if tracer.enabled:
                tracer.emit(CutEvent(size=len(row)))
        return True

    def solve(self) -> SolveResult:
        """Incremental linear search with cardinality strengthening."""
        run = self._run
        run.begin()
        instance = self._instance
        objective = instance.objective
        stats = self.stats
        cut_generator = CutGenerator(instance, cardinality_cuts=False)
        search = DecisionSearch(
            instance.num_variables, decay=self._options.vsids_decay,
            pb_learning=True, tracer=run.tracer, timer=run.timer,
        )
        search.add_constraints(instance.constraints)

        exhausted = False
        while not run.stopped():
            if run.poll_bound() and not self._tighten(search, cut_generator):
                exhausted = True
                break
            outcome, model = search.solve(run.stopped, *run.budgets())
            stats.decisions = search.decisions
            stats.logic_conflicts = search.conflicts
            if outcome == STOPPED:
                break
            if outcome == UNSAT:
                exhausted = True
                break
            run.improve(model, objective.path_cost(model))
            if objective.is_constant or not self._tighten(search, cut_generator):
                exhausted = True
                break
        stats.propagations = search.propagations
        stats.pb_resolvents = search.pb_resolvents
        return run.close(run.result(exhausted))

"""Generic MILP branch-and-bound (the CPLEX stand-in, paper [1]).

Classic LP-based branch & bound with *no* SAT techniques: at every node
the LP relaxation is solved; the node is pruned when the relaxation is
infeasible or its (rounded-up) value cannot beat the incumbent; integral
LP solutions become incumbents; otherwise the most fractional variable is
branched on, rounding side first.  Depth-first traversal, no
propagation, no learning.

This reproduces the qualitative profile Table 1 shows for CPLEX:
excellent at pure optimization (the relaxation does all the work), poor
at tightly-constrained satisfaction instances where branching without
propagation thrashes.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..core.options import SolverOptions
from ..core.result import (
    OPTIMAL,
    SATISFIABLE,
    SolveResult,
    UNKNOWN,
    UNSATISFIABLE,
)
from ..core.stats import SolverStats, record_metrics
from ..lp.simplex import INFEASIBLE, OPTIMAL as LP_OPTIMAL, SimplexSolver
from ..lp.standard_form import build_lp_data
from ..lp.tolerances import ROUND_EPS, ceil_guarded
from ..obs.events import IncumbentEvent, ResultEvent, RunHeaderEvent
from ..obs.timers import NULL_TIMER, PhaseTimer
from ..obs.trace import NULL_TRACER
from ..pb.instance import PBInstance

_INT_TOL = ROUND_EPS


class MILPSolver:
    """LP-relaxation branch and bound over the 0/1 box."""

    name = "cplex-like"

    def __init__(
        self,
        instance: PBInstance,
        options: Optional[SolverOptions] = None,
    ):
        self._instance = instance
        self._options = opts = options or SolverOptions()
        self._time_limit = opts.time_limit
        self._max_nodes = opts.max_decisions
        self._tracer = opts.tracer if opts.tracer is not None else NULL_TRACER
        self._timer = PhaseTimer() if opts.profile else NULL_TIMER
        self.stats = SolverStats()
        self.nodes = 0

    # ------------------------------------------------------------------
    def solve(self) -> SolveResult:
        """LP-based branch and bound on fractional variables."""
        start = time.monotonic()
        deadline = start + self._time_limit if self._time_limit is not None else None
        instance = self._instance
        objective = instance.objective
        options = self._options
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                RunHeaderEvent(
                    solver=self.name,
                    instance=getattr(tracer, "instance_label", ""),
                    options={"strategy": "lp_branch_and_bound"},
                )
            )

        upper = objective.max_value + 1
        best_assignment: Optional[Dict[int, int]] = None
        external_cost: Optional[int] = None
        status: Optional[str] = None
        stack: List[Dict[int, int]] = [{}]

        while stack:
            if deadline is not None and time.monotonic() > deadline:
                status = UNKNOWN
                break
            if self._max_nodes is not None and self.nodes >= self._max_nodes:
                status = UNKNOWN
                break
            if options.should_stop is not None and options.should_stop():
                self.stats.interrupted = True
                status = UNKNOWN
                break
            if options.external_bound is not None and not objective.is_constant:
                imported = options.external_bound()
                if imported is not None and imported - objective.offset < upper:
                    upper = imported - objective.offset
                    best_assignment = None  # the model lives elsewhere
                    external_cost = imported
                    self.stats.external_bounds += 1
            fixed = stack.pop()
            self.nodes += 1

            data = build_lp_data(instance, fixed)
            if data is None:
                continue  # infeasible by the fixing alone
            path = objective.path_cost(fixed)
            if data.num_rows == 0:
                # all constraints satisfied: complete with zeros
                cost = path
                if cost < upper:
                    upper = cost
                    best_assignment = self._complete(fixed)
                    external_cost = None
                    self.stats.solutions_found += 1
                    if tracer.enabled:
                        tracer.emit(
                            IncumbentEvent(
                                cost=cost + objective.offset,
                                decisions=self.nodes,
                            )
                        )
                    if options.on_incumbent is not None:
                        options.on_incumbent(
                            cost + objective.offset, dict(best_assignment)
                        )
                    if objective.is_constant:
                        break  # feasibility problem: first model suffices
                continue
            with self._timer.phase("lp"):
                result = SimplexSolver(
                    data.c, data.A, data.b, data.senses,
                    upper=[1.0] * data.num_columns,
                ).solve()
            self.stats.lower_bound_calls += 1
            if result.status == INFEASIBLE:
                continue
            if result.status != LP_OPTIMAL:
                continue  # give up on this node conservatively
            bound = path + ceil_guarded(result.objective)
            if bound >= upper:
                self.stats.prunings += 1
                continue

            branch_var, branch_value = self._most_fractional(data, result.x)
            if branch_var is None:
                # integral LP optimum: a feasible incumbent
                assignment = dict(fixed)
                for j, var in enumerate(data.columns):
                    assignment[var] = 1 if result.x[j] > 0.5 else 0
                assignment = self._complete(assignment)
                if instance.check(assignment):
                    cost = objective.path_cost(assignment)
                    if cost < upper:
                        upper = cost
                        best_assignment = assignment
                        external_cost = None
                        self.stats.solutions_found += 1
                        if tracer.enabled:
                            tracer.emit(
                                IncumbentEvent(
                                    cost=cost + objective.offset,
                                    decisions=self.nodes,
                                )
                            )
                        if options.on_incumbent is not None:
                            options.on_incumbent(
                                cost + objective.offset, dict(assignment)
                            )
                        if objective.is_constant:
                            break  # feasibility problem: stop at a model
                    continue
                # build_lp_data drops a row that zero-filling its free
                # variables satisfies, but the LP point may set one of
                # them to 1 and violate it: branch instead of discarding.
                branch_var = self._free_var_of_violated(assignment, fixed)
                if branch_var is None:
                    continue
                branch_value = float(assignment[branch_var])
            # depth first, rounding side explored first (pushed last)
            away = dict(fixed)
            away[branch_var] = 0 if branch_value > 0.5 else 1
            toward = dict(fixed)
            toward[branch_var] = 1 if branch_value > 0.5 else 0
            stack.append(away)
            stack.append(toward)

        if status is None:
            if best_assignment is not None or external_cost is not None:
                status = OPTIMAL
            else:
                status = UNSATISFIABLE
            if best_assignment is not None and objective.is_constant:
                status = SATISFIABLE
        self.stats.decisions = self.nodes
        self.stats.elapsed = time.monotonic() - start
        self.stats.phase_times = self._timer.snapshot()
        record_metrics(options.metrics, {}, self.stats)
        if best_assignment is not None:
            best_cost = upper + objective.offset
        else:
            best_cost = external_cost
        if tracer.enabled:
            tracer.emit(
                ResultEvent(
                    status=status, cost=best_cost, decisions=self.nodes
                )
            )
            tracer.flush()
        return SolveResult(
            status,
            best_cost=best_cost,
            best_assignment=best_assignment,
            stats=self.stats,
            solver_name=self.name,
        )

    # ------------------------------------------------------------------
    def _complete(self, fixed: Dict[int, int]) -> Dict[int, int]:
        assignment = dict(fixed)
        for var in self._instance.variables():
            assignment.setdefault(var, 0)
        return assignment

    def _free_var_of_violated(
        self, assignment: Dict[int, int], fixed: Dict[int, int]
    ) -> Optional[int]:
        """A variable outside ``fixed`` from a constraint ``assignment``
        violates, or None when no such variable exists."""
        for constraint in self._instance.constraints:
            if not constraint.is_satisfied_by(assignment):
                for _, lit in constraint.terms:
                    var = abs(lit)
                    if var not in fixed:
                        return var
        return None

    @staticmethod
    def _most_fractional(data, x) -> Tuple[Optional[int], float]:
        best_var: Optional[int] = None
        best_value = 0.0
        best_distance = 0.5 - _INT_TOL
        for j, var in enumerate(data.columns):
            value = float(x[j])
            if value < _INT_TOL or value > 1.0 - _INT_TOL:
                continue
            distance = abs(value - 0.5)
            if distance < best_distance:
                best_var, best_value, best_distance = var, value, distance
        return best_var, best_value

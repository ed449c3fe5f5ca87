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

from typing import Dict, List, Optional, Tuple

from ..core.options import SolverOptions
from ..core.result import SolveResult, SolveRun
from ..lp.simplex import INFEASIBLE, OPTIMAL as LP_OPTIMAL, STOPPED, SimplexSolver
from ..lp.standard_form import build_lp_data
from ..lp.tolerances import ROUND_EPS, ceil_guarded
from ..pb.instance import PBInstance

_INT_TOL = ROUND_EPS


class MILPSolver:
    """LP-relaxation branch and bound over the 0/1 box; each node counts
    as a decision, so ``max_decisions`` caps the nodes.  The deadline and
    ``should_stop`` are polled before every node and, through
    ``SimplexSolver``, every few pivots inside a node's LP."""

    name = "cplex-like"

    def __init__(
        self,
        instance: PBInstance,
        options: Optional[SolverOptions] = None,
    ):
        self._instance = instance
        self._options = options or SolverOptions()
        self._run = SolveRun(
            self.name, instance.objective, self._options,
            strategy="lp_branch_and_bound",
        )
        self.stats = self._run.stats

    # ------------------------------------------------------------------
    def solve(self) -> SolveResult:
        """LP-based branch and bound on fractional variables."""
        run = self._run
        run.begin()
        instance = self._instance
        objective = instance.objective
        stats = self.stats
        max_nodes = self._options.max_decisions
        stack: List[Dict[int, int]] = [{}]

        exhausted = True
        while stack:
            if (
                max_nodes is not None and stats.decisions >= max_nodes
            ) or run.stopped():
                exhausted = False
                break
            run.poll_bound()
            fixed = stack.pop()
            stats.decisions += 1

            data = build_lp_data(instance, fixed)
            if data is None:
                continue  # infeasible by the fixing alone
            path = objective.path_cost(fixed)
            if data.num_rows == 0:
                # all constraints satisfied: complete with zeros
                if path < run.upper:
                    run.improve(self._complete(fixed), path)
                    if objective.is_constant:
                        break  # feasibility problem: first model suffices
                continue
            with run.timer.phase("lp"):
                result = SimplexSolver(
                    data.c, data.A, data.b, data.senses,
                    upper=[1.0] * data.num_columns,
                    should_stop=run.stopped,
                ).solve()
            stats.lower_bound_calls += 1
            if result.status == STOPPED:
                # The deadline or should_stop fired inside the node's LP:
                # the node stays open, so the search is not exhausted.
                exhausted = False
                break
            if result.status == INFEASIBLE:
                continue
            if result.status != LP_OPTIMAL:
                continue  # give up on this node conservatively
            bound = path + ceil_guarded(result.objective)
            if bound >= run.upper:
                stats.prunings += 1
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
                    if cost < run.upper:
                        run.improve(assignment, cost)
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
        return run.close(run.result(exhausted))

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

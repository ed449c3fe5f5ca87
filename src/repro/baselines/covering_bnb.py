"""Classical branch-and-bound covering solver (scherzo-like, paper [5, 15]).

Before SAT-based PBO, (binate) covering problems were solved by dedicated
branch-and-bound procedures — Coudert's scherzo and the explicit solvers
of Villa et al.: depth-first search with *per-node* covering reductions
(unit clauses, pure polarity), an MIS lower bound at every node, and
chronological backtracking (no learning).  The paper positions bsolo as
the hybrid of this lineage with SAT techniques; having the classical
solver in the repository makes that contrast measurable.

Only applicable to clause-only instances (``PBInstance.is_covering``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..core.options import SolverOptions
from ..core.result import SolveResult, SolveRun
from ..mis.independent_set import MISBound
from ..obs.events import LowerBoundEvent
from ..pb.instance import PBInstance


class _Frame:
    """One DFS node: the variable branched on and the trail watermark."""

    __slots__ = ("var", "next_value", "trail_mark")

    def __init__(self, var: int, next_value: Optional[int], trail_mark: int):
        self.var = var
        self.next_value = next_value
        self.trail_mark = trail_mark


class CoveringBnBSolver:
    """Depth-first branch & bound with per-node reductions and MIS bound;
    each branching node counts as a decision, so ``max_decisions`` caps
    the nodes."""

    name = "scherzo-like"

    def __init__(
        self,
        instance: PBInstance,
        options: Optional[SolverOptions] = None,
    ):
        if not instance.is_covering:
            raise ValueError("CoveringBnBSolver requires a clause-only instance")
        self._instance = instance
        self._options = options or SolverOptions()
        self._run = SolveRun(
            self.name, instance.objective, self._options, strategy="covering_bnb"
        )
        self.stats = self._run.stats
        self._costs = instance.objective.costs
        self._mis = MISBound(instance)

    # ------------------------------------------------------------------
    def solve(self) -> SolveResult:
        """Branch and bound over covering structure; exact on clause-only instances."""
        run = self._run
        run.begin()
        instance = self._instance
        tracer = run.tracer

        clauses: List[Set[int]] = [set(c.literals) for c in instance.constraints]
        occurrences: Dict[int, List[int]] = {}
        for index, clause in enumerate(clauses):
            for literal in clause:
                occurrences.setdefault(literal, []).append(index)

        assignment: Dict[int, int] = {}
        trail: List[int] = []  # variables in assignment order
        max_nodes = self._options.max_decisions
        stack: List[_Frame] = []

        def assign(var: int, value: int) -> bool:
            """Set var; returns False when some clause becomes empty."""
            assignment[var] = value
            trail.append(var)
            false_literal = var if value == 0 else -var
            for index in occurrences.get(false_literal, ()):
                clause = clauses[index]
                if _satisfied(clause, assignment):
                    continue
                if all(_is_false(lit, assignment) for lit in clause):
                    return False
            return True

        def propagate() -> bool:
            """Unit-clause fixpoint; False on contradiction."""
            changed = True
            while changed:
                changed = False
                for clause in clauses:
                    live = None
                    count = 0
                    satisfied = False
                    for literal in clause:
                        var = abs(literal)
                        value = assignment.get(var)
                        if value is None:
                            live = literal
                            count += 1
                        elif (value == 1) == (literal > 0):
                            satisfied = True
                            break
                    if satisfied:
                        continue
                    if count == 0:
                        return False
                    if count == 1:
                        if not assign(abs(live), 1 if live > 0 else 0):
                            return False
                        self.stats.propagations += 1
                        changed = True
            return True

        def path_cost() -> int:
            return sum(
                cost for var, cost in self._costs.items()
                if assignment.get(var) == 1
            )

        def all_satisfied() -> bool:
            return all(_satisfied(clause, assignment) for clause in clauses)

        def undo_to(mark: int) -> None:
            while len(trail) > mark:
                del assignment[trail.pop()]

        def pick_branch() -> Optional[int]:
            counts: Dict[int, int] = {}
            for clause in clauses:
                if _satisfied(clause, assignment):
                    continue
                for literal in clause:
                    var = abs(literal)
                    if var not in assignment:
                        counts[var] = counts.get(var, 0) + 1
            if not counts:
                return None
            # classical heuristic: the column covering the most rows
            return max(sorted(counts), key=lambda var: counts[var])

        # ---------------- main DFS ----------------
        descending = propagate()
        exhausted = True
        while True:
            if (
                max_nodes is not None and self.stats.decisions >= max_nodes
            ) or run.stopped():
                exhausted = False
                break
            run.poll_bound()

            prune = not descending
            if descending:
                cost = path_cost()
                if cost >= run.upper:
                    self.stats.prunings += 1
                    prune = True
                elif all_satisfied():
                    solution = dict(assignment)
                    for var in self._instance.variables():
                        solution.setdefault(var, 0)
                    run.improve(solution, cost)
                    prune = True
                else:
                    with run.timer.phase("lower_bound.mis"):
                        bound = self._mis.compute(assignment)
                    self.stats.lower_bound_calls += 1
                    pruned = bound.infeasible or cost + bound.value >= run.upper
                    if tracer.enabled:
                        tracer.emit(
                            LowerBoundEvent(
                                method="mis",
                                value=bound.value,
                                path=cost,
                                level=len(stack),
                                infeasible=bound.infeasible,
                                pruned=pruned,
                            )
                        )
                    if pruned:
                        self.stats.prunings += 1
                        prune = True

            if not prune:
                var = pick_branch()
                if var is None:  # pragma: no cover - propagate() guarantees
                    # an unassigned literal in every unsatisfied clause
                    raise AssertionError("no branch variable at an open node")
                self.stats.decisions += 1
                mark = len(trail)
                stack.append(_Frame(var, 0, mark))  # try 1 first, then 0
                descending = assign(var, 1) and propagate()
                continue

            # backtrack chronologically
            while stack:
                frame = stack[-1]
                undo_to(frame.trail_mark)
                if frame.next_value is None:
                    stack.pop()
                    continue
                value, frame.next_value = frame.next_value, None
                descending = assign(frame.var, value) and propagate()
                break
            else:
                break  # root exhausted

        counts = {
            "mis_hits": self._mis.cache_hits,
            "mis_misses": self._mis.cache_misses,
        }
        return run.close(run.result(exhausted), counts)


def _satisfied(clause: Set[int], assignment: Dict[int, int]) -> bool:
    for literal in clause:
        value = assignment.get(abs(literal))
        if value is not None and (value == 1) == (literal > 0):
            return True
    return False


def _is_false(literal: int, assignment: Dict[int, int]) -> bool:
    value = assignment.get(abs(literal))
    return value is not None and (value == 1) != (literal > 0)

"""Maximum-independent-set-of-constraints lower bounding.

The classical bound for branch-and-bound covering solvers (paper
references [5, 9, 15], reviewed in Section 3): pick a set of pairwise
variable-disjoint unsatisfied constraints; since they share no variables,
the minimum costs of satisfying each of them add up to a valid lower
bound on the remaining cost.

Per-constraint cost: the *fractional covering knapsack* optimum — sort
the constraint's free literals by cost per unit of coefficient and fill
greedily, allowing a fractional last literal.  This equals the LP bound
of the single-constraint sub-problem, hence never overestimates the
integer minimum (negative literals cost nothing to make true, so they are
taken first).

Selection is greedy by contribution density (bound contribution divided
by the number of free variables), the standard heuristic for approximate
maximum independent sets of constraints.

Incremental evaluation
----------------------
Consecutive search nodes differ by a handful of trail assignments, so
:class:`MISBound` keeps one :class:`_ConstraintState` per constraint:
the unit-cost term ordering is computed once (costs are static), and the
last ``(value, false_literals, free_vars)`` evaluation is cached and
re-used until a variable of the constraint is assigned or unassigned.
Invalidation is driven by a :class:`~repro.engine.assignment.TrailDelta`
feed (see :meth:`MISBound.attach_trail`) instead of rescanning the full
``fixed`` mapping; without an attached trail every call conservatively
re-evaluates everything, which is exactly the cold behaviour (the
greedy selection itself is always re-run — it is global and cheap
relative to the per-constraint knapsacks).

A *costless* row — every literal negative or of cost 0, as in many
at-most rows — has knapsack value 0 whenever it is open, so it can never
contribute to the bound: only whether it is satisfied, open or violated
matters.  Such a row is evaluated in one pass over its supply and
residual rhs, with no term ordering, free-set or false-literal
bookkeeping.

The bound reads the instance's rows only.  Every eq. 10/13 cut is
costless too, and it lives as an engine row, which a conflict-free
propagate leaves unviolated: reading the cuts here could change neither
the value nor the infeasible verdict.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..pb.constraints import Constraint
from ..pb.instance import PBInstance
from ..pb.literals import variable
from ..lp.relaxation import LowerBound
from ..lp.tolerances import ceil_guarded


def constraint_min_cost(
    constraint: Constraint,
    fixed: Mapping[int, int],
    costs: Mapping[int, int],
) -> Tuple[Optional[float], List[int], Set[int]]:
    """Fractional min cost of satisfying ``constraint`` under ``fixed``.

    Returns ``(cost, false_literals, free_variables)``; cost is ``None``
    when the constraint is already satisfied, ``math.inf`` when it cannot
    be satisfied any more.
    """
    rhs = constraint.rhs
    false_literals: List[int] = []
    free: List[Tuple[int, int]] = []  # (coef, literal)
    free_vars: Set[int] = set()
    for coef, lit in constraint.terms:
        var = variable(lit)
        value = fixed.get(var)
        if value is None:
            free.append((coef, lit))
            free_vars.add(var)
            continue
        lit_true = (value == 1) == (lit > 0)
        if lit_true:
            rhs -= coef
        else:
            false_literals.append(lit)
    if rhs <= 0:
        return None, false_literals, free_vars
    supply = sum(coef for coef, _ in free)
    if supply < rhs:
        return math.inf, false_literals, free_vars

    # Fractional knapsack cover: cheapest cost per unit of coefficient
    # first.  A negative literal becomes true by assigning 0, which never
    # costs anything in the paper's model.
    def unit_cost(term: Tuple[int, int]) -> float:
        coef, lit = term
        cost = costs.get(lit, 0) if lit > 0 else 0
        return cost / coef

    free.sort(key=unit_cost)
    remaining = rhs
    total = 0.0
    for coef, lit in free:
        if remaining <= 0:
            break
        take = min(coef, remaining)
        cost = costs.get(lit, 0) if lit > 0 else 0
        total += cost * (take / coef)
        remaining -= take
    return total, false_literals, free_vars


#: Results of a costless row: satisfied, open at cost 0, violated.  The
#: bound never reads their (empty, shared) literal sets.
_SATISFIED = (None, (), frozenset())
_OPEN_FREE = (0.0, (), frozenset())
_VIOLATED = (math.inf, (), frozenset())


class _ConstraintState:
    """Per-constraint incremental state.

    ``sorted_terms`` is the unit-cost (stable) ordering of *all* terms,
    computed once — restricting it to the currently free terms yields
    exactly the order :func:`constraint_min_cost` would sort its free
    list into, so the cached evaluation below is bit-for-bit identical
    to the cold computation.  Costless rows need no ordering
    (``sorted_terms`` is None).
    """

    __slots__ = ("constraint", "sorted_terms", "variables", "result", "valid")

    def __init__(self, constraint: Constraint, costs: Mapping[int, int]):
        self.constraint = constraint
        self.sorted_terms: Optional[Tuple[Tuple[int, int], ...]] = None
        if any(lit > 0 and costs.get(lit, 0) for _, lit in constraint.terms):

            def unit_cost(term: Tuple[int, int]) -> float:
                coef, lit = term
                cost = costs.get(lit, 0) if lit > 0 else 0
                return cost / coef

            self.sorted_terms = tuple(sorted(constraint.terms, key=unit_cost))
        self.variables = frozenset(variable(lit) for _, lit in constraint.terms)
        self.result: Optional[Tuple[Optional[float], List[int], Set[int]]] = None
        self.valid = False

    def evaluate(
        self, fixed: Mapping[int, int], costs: Mapping[int, int]
    ) -> Tuple[Optional[float], List[int], Set[int]]:
        """Identical outcome to :func:`constraint_min_cost`, minus the
        per-call sort (for a costless row: the same value, with empty
        literal sets)."""
        constraint = self.constraint
        rhs = constraint.rhs
        if self.sorted_terms is None:
            supply = 0
            for coef, lit in constraint.terms:
                value = fixed.get(lit if lit > 0 else -lit)
                if value is None:
                    supply += coef
                elif (value == 1) == (lit > 0):
                    rhs -= coef
            if rhs <= 0:
                return _SATISFIED
            return _VIOLATED if supply < rhs else _OPEN_FREE
        false_literals: List[int] = []
        free_vars: Set[int] = set()
        supply = 0
        for coef, lit in constraint.terms:
            var = lit if lit > 0 else -lit
            value = fixed.get(var)
            if value is None:
                free_vars.add(var)
                supply += coef
                continue
            if (value == 1) == (lit > 0):
                rhs -= coef
            else:
                false_literals.append(lit)
        if rhs <= 0:
            return None, false_literals, free_vars
        if supply < rhs:
            return math.inf, false_literals, free_vars
        remaining = rhs
        total = 0.0
        for coef, lit in self.sorted_terms:
            if remaining <= 0:
                break
            var = lit if lit > 0 else -lit
            if fixed.get(var) is not None:
                continue
            take = min(coef, remaining)
            cost = costs.get(lit, 0) if lit > 0 else 0
            total += cost * (take / coef)
            remaining -= take
        return total, false_literals, free_vars


class MISBound:
    """Greedy maximum independent set of constraints lower bound."""

    name = "mis"

    def __init__(self, instance: PBInstance):
        self._instance = instance
        self._costs = instance.objective.costs
        self._states = [
            _ConstraintState(constraint, self._costs)
            for constraint in instance.constraints
        ]
        #: var -> the instance-constraint states it appears in.
        self._touching: Dict[int, List[_ConstraintState]] = {}
        for state in self._states:
            for var in state.variables:
                self._touching.setdefault(var, []).append(state)
        self._delta = None  # TrailDelta once attach_trail() is called
        self.num_calls = 0
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    def attach_trail(self, trail) -> None:
        """Enable delta-driven invalidation: future calls re-evaluate
        only the constraints touching variables assigned/unassigned on
        ``trail`` since the previous call."""
        self._delta = trail.register_delta()
        for state in self._states:
            state.valid = False

    def detach_trail(self, trail) -> None:
        """Reverse of :meth:`attach_trail`: stop consuming the trail's
        change feed.  Sessions call this before discarding a bounder
        (``pop``/``set_objective`` rebuilds) so the trail does not keep
        feeding a dead delta forever."""
        if self._delta is not None:
            trail.unregister_delta(self._delta)
            self._delta = None

    def stats_dict(self) -> Dict[str, float]:
        """Structured per-bounder stats (merged into ``SolverStats``)."""
        return {
            "calls": self.num_calls,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    def compute(self, fixed: Mapping[int, int]) -> LowerBound:
        """``P.lower`` from a variable-disjoint set of constraints."""
        self.num_calls += 1
        costs = self._costs

        if self._delta is None:
            changed: Optional[Set[int]] = None  # no feed: re-evaluate all
        else:
            changed = self._delta.drain()
        if changed is None:
            for state in self._states:
                state.valid = False
        elif changed:
            touching = self._touching
            for var in changed:
                for state in touching.get(var, ()):
                    state.valid = False

        candidates: List[Tuple[float, Constraint, List[int], Set[int]]] = []
        for state in self._states:
            if state.valid:
                self.cache_hits += 1
            else:
                state.result = state.evaluate(fixed, costs)
                state.valid = True
                self.cache_misses += 1
            value, false_literals, free_vars = state.result
            if value is None:
                continue
            if value == math.inf:
                return LowerBound.violated([state.constraint], fixed)
            if value <= 0 or not free_vars:
                continue
            candidates.append((value, state.constraint, false_literals, free_vars))

        # Greedy by contribution density; ties by raw contribution.
        candidates.sort(key=lambda item: (-item[0] / len(item[3]), -item[0]))
        used_vars: Set[int] = set()
        total = 0.0
        explanation: List[Constraint] = []
        for value, constraint, false_literals, free_vars in candidates:
            if free_vars & used_vars:
                continue
            used_vars |= free_vars
            total += value
            explanation.append(constraint)

        bound = ceil_guarded(total)
        return LowerBound(max(bound, 0), explanation=explanation)

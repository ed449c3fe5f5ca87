"""Plain CDCL decision search over PB constraints.

This is the common engine behind the SAT-based comparator solvers
(PBS-like and Galena-like, paper reference [2] and [4]): boolean
constraint propagation, first-UIP clause learning, VSIDS — but **no
lower bounding**, which is exactly the gap the paper's bsolo fills.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..engine.activity import VSIDSActivity
from ..engine.conflict import ConflictAnalyzer, RootConflictError, highest_level
from ..engine.pb_resolution import ResolutionScratch
from ..engine.propagation import Propagator
from ..obs.events import ConflictEvent, DecisionEvent
from ..obs.timers import NULL_TIMER
from ..pb.constraints import Constraint

SAT = "sat"
UNSAT = "unsat"
STOPPED = "stopped"


class DecisionSearch:
    """Incremental CDCL search for PB satisfiability.

    With ``pb_learning`` the search additionally learns cutting-plane
    resolvents (Galena's scheme) next to first-UIP clauses.

    ``tracer``/``timer`` hook the search into :mod:`repro.obs` so the
    comparator solvers produce traces and phase times comparable with
    bsolo's (same event kinds, same phase names).
    """

    def __init__(self, num_variables: int, decay: float = 0.95,
                 pb_learning: bool = False, tracer=None, timer=None):
        self._tracer = tracer if (tracer is not None and tracer.enabled) else None
        self._timer = timer if timer is not None else NULL_TIMER
        self._propagator = Propagator(num_variables)
        self._activity = VSIDSActivity(num_variables, decay=decay)
        self._analyzer = ConflictAnalyzer(num_variables)
        self._resolution = ResolutionScratch(num_variables)
        self._root_conflict = False
        self._pb_learning = pb_learning
        self.conflicts = 0
        self.decisions = 0
        self.pb_resolvents = 0

    @property
    def propagations(self) -> int:
        """Implications discovered so far (engine counter)."""
        return self._propagator.num_propagations

    # ------------------------------------------------------------------
    def add_constraint(self, constraint: Constraint) -> None:
        """Add a constraint; the search state adapts incrementally."""
        if constraint.is_tautology:
            return
        conflict = self._propagator.add_constraint(constraint)
        if conflict is not None and not self._resolve(conflict.literals, constraint):
            self._root_conflict = True

    def add_constraints(self, constraints: Iterable[Constraint]) -> None:
        """Add several constraints to the active database."""
        for constraint in constraints:
            self.add_constraint(constraint)

    # ------------------------------------------------------------------
    def solve(
        self,
        stop=None,
        max_conflicts: Optional[int] = None,
        max_decisions: Optional[int] = None,
    ) -> Tuple[str, Optional[Dict[int, int]]]:
        """Search for a model; resumable after more constraints arrive.

        ``stop`` is a zero-argument callable polled every 64 loops (the
        solvers pass their run's deadline-and-interrupt check); when it
        returns True the search stops with outcome ``STOPPED``, as it
        does once this call has spent more than ``max_conflicts``
        conflicts or ``max_decisions`` decisions.
        """
        if self._root_conflict:
            return UNSAT, None
        propagator = self._propagator
        timer = self._timer
        tracer = self._tracer
        start_conflicts = self.conflicts
        start_decisions = self.decisions
        loop = 0
        while True:
            loop += 1
            if loop % 64 == 0 and stop is not None and stop():
                return STOPPED, None
            if (
                max_conflicts is not None
                and self.conflicts - start_conflicts > max_conflicts
            ):
                return STOPPED, None

            timer.push("propagate")
            conflict = propagator.propagate()
            timer.pop()
            if conflict is not None:
                self.conflicts += 1
                if tracer is not None:
                    tracer.emit(
                        ConflictEvent(
                            type="logic", level=propagator.trail.decision_level
                        )
                    )
                source = conflict.stored.constraint if conflict.stored else None
                timer.push("analyze")
                resolved = self._resolve(conflict.literals, source)
                timer.pop()
                if not resolved:
                    self._root_conflict = True
                    return UNSAT, None
                continue
            if propagator.trail.all_assigned():
                return SAT, propagator.model()
            timer.push("branching")
            var = self._activity.best(propagator.trail.unassigned_variables())
            timer.pop()
            self.decisions += 1
            if (
                max_decisions is not None
                and self.decisions - start_decisions > max_decisions
            ):
                return STOPPED, None
            if tracer is not None:
                tracer.emit(
                    DecisionEvent(
                        literal=-var, level=propagator.trail.decision_level + 1
                    )
                )
            propagator.decide(-var)  # phase 0 default

    # ------------------------------------------------------------------
    def _resolve(self, literals, conflict_constraint: Optional[Constraint] = None) -> bool:
        trail = self._propagator.trail
        if not literals:
            return False
        level = highest_level(literals, trail)
        if level == 0:
            return False
        if level < trail.decision_level:
            self._propagator.backtrack(level)
        try:
            analysis = self._analyzer.analyze(literals, trail)
        except RootConflictError:
            return False
        resolvent = None
        if self._pb_learning and conflict_constraint is not None:
            resolvent = self._resolution.derive(
                conflict_constraint,
                analysis.resolved_variables,
                self._propagator.trail.antecedent,
            )
        self._activity.bump_all(analysis.seen_variables)
        self._activity.decay()
        self._propagator.backtrack(analysis.backtrack_level)
        learned = Constraint.clause(analysis.learned_literals)
        conflict = self._propagator.add_constraint(learned, learned=True)
        if conflict is not None:  # pragma: no cover - asserting clause
            return self._resolve(conflict.literals)
        if analysis.asserting_literal is not None:
            self._propagator.imply(
                analysis.asserting_literal, analysis.learned_literals
            )
        if resolvent is not None:
            conflict = self._propagator.add_constraint(resolvent, learned=True)
            self.pb_resolvents += 1
            if conflict is not None:
                return self._resolve(
                    conflict.literals,
                    conflict.stored.constraint if conflict.stored else None,
                )
        return True

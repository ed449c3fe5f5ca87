"""Counter-based boolean constraint propagation for PB constraints.

This is the **reference backend** of the :class:`PropagationEngine`
protocol (registry name ``"counter"``).  For a normalized constraint
``sum a_j l_j >= b`` define::

    slack = sum_{l_j not false} a_j  -  b

*Violation*: ``slack < 0`` — too many literals are already false.
*Implication*: an unassigned ``l_j`` with ``a_j > slack`` must be true.
For clauses this degenerates to classical unit propagation.

Slack updates are applied *eagerly* at assignment time (and undone at
backtrack time), which keeps the database consistent even when a conflict
interrupts the propagation queue.  Reasons for implications are clausal
explanations: a greedy (largest coefficients first) subset of the
constraint's false literals strong enough to force the implication —
this keeps conflict analysis purely clausal, the strategy of the bsolo
family of solvers.  An implication records only the implying constraint
and coefficient (a :class:`~repro.engine.assignment.DeferredReason`);
the trail builds the clausal tuple if conflict analysis reads it, which
most implications never need.

The eager per-assignment work — O(occurrences) slack updates on every
assignment and undo — is what the ``"watched"`` backend
(:mod:`repro.engine.watched`) eliminates.

**Proof-logging contract** (``SolverOptions(proof=...)``): the
slack-based implication rule above is exactly the propagation strength
the independent checker's RUP replay assumes
(:class:`repro.certify.checker.ProofChecker`).  Every implication this
engine derives must be reproducible from "coefficient > slack" over the
proof database — true by construction here; any *stronger* future rule
must come with its own proof step kind, or first-UIP clauses would stop
being RUP-checkable.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..pb.constraints import Constraint
from .assignment import DeferredReason
from .constraint_db import ConstraintDatabase, StoredConstraint
from .interface import Conflict, PropagationEngine, register_engine

__all__ = ["Conflict", "Propagator"]


class Propagator(PropagationEngine):
    """Counter-based engine: eager slacks, occurrence-list updates.

    ``tracer`` (a :class:`repro.obs.trace.Tracer`) is optional; when
    given and enabled, every :meth:`propagate` call that produced
    implications or a conflict emits one batch event.  The hot loops are
    untouched — the accounting rides on the existing counter.
    """

    name = "counter"

    def __init__(self, num_variables: int, tracer=None):
        super().__init__(num_variables, tracer=tracer)
        self.database = ConstraintDatabase(self.trail)
        self._pending: Deque[StoredConstraint] = deque()

    # ------------------------------------------------------------------
    # Constraint management
    # ------------------------------------------------------------------
    def add_constraint(
        self, constraint: Constraint, learned: bool = False
    ) -> Optional[Conflict]:
        """Attach a constraint mid-search.

        Returns a conflict immediately when the constraint is violated
        under the current trail; otherwise schedules it for implication
        scanning by the next :meth:`propagate`.
        """
        stored = self.database.add(constraint, learned=learned)
        if stored.slack < 0:
            return Conflict(stored, self.explain_violation(stored))
        stored.queued = True
        self._pending.append(stored)
        return None

    def replace_constraint(
        self,
        old: Optional[StoredConstraint],
        constraint: Constraint,
        learned: bool = False,
    ) -> StoredConstraint:
        """Swap the row ``old`` for ``constraint`` and queue the result;
        ``database.replace`` decides between in place and re-attach."""
        stored = self.database.replace(old, constraint, learned)
        if stored is not old and old is not None and old.queued:
            old.queued = False
            self._pending.remove(old)
        if not stored.queued:
            stored.queued = True
            self._pending.append(stored)
        return stored

    # ------------------------------------------------------------------
    # Eager slack maintenance on every assignment
    # ------------------------------------------------------------------
    def _on_assign(self, literal: int) -> None:
        pending = self._pending
        for stored in self.database.on_literal_true(literal):
            # enqueue only when the constraint might act: it is violated,
            # or some coefficient now exceeds the slack
            if not stored.queued and stored.slack < stored.max_coef:
                stored.queued = True
                pending.append(stored)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _propagate_loop(self) -> Optional[Conflict]:
        self.num_propagate_calls += 1
        while self._pending:
            stored = self._pending.popleft()
            stored.queued = False
            if stored.slack < 0:
                self._clear_pending()
                return Conflict(stored, self.explain_violation(stored))
            if stored.slack >= stored.max_coef:
                continue  # nothing can be implied
            conflict = self._scan_implications(stored)
            if conflict is not None:  # pragma: no cover - scan never conflicts
                self._clear_pending()
                return conflict
        return None

    def _clear_pending(self) -> None:
        for stored in self._pending:
            stored.queued = False
        self._pending.clear()

    def _scan_implications(self, stored: StoredConstraint) -> Optional[Conflict]:
        slack = stored.slack
        constraint = stored.constraint
        # hot loop: read the trail's value array directly (UNASSIGNED = -1);
        # implying a literal never changes this constraint's own slack, so
        # the local `slack` stays valid for the whole scan
        values = self.trail._value
        for coef, lit in constraint.terms:
            if coef <= slack:
                continue
            var = lit if lit > 0 else -lit
            if values[var] >= 0:
                continue
            self.num_propagations += 1
            self.imply(
                lit, DeferredReason(constraint, lit, coef), antecedent=constraint
            )
        return None

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------
    def backtrack(self, target_level: int) -> None:
        """Undo assignments above ``target_level`` and restore slacks."""
        for lit in self.trail.backtrack(target_level):
            self.database.on_literal_unassigned(lit)
            self._antecedent.pop(lit if lit > 0 else -lit, None)
        self._clear_pending()
        # Constraints that became unit again are rediscovered lazily: any
        # implication missed here can only matter after the caller asserts
        # a learned clause and re-propagates, which re-queues via
        # add_constraint / assignments.  To stay complete we rescan all
        # constraints whose slack could imply at this level on demand via
        # reschedule_all() from the solver after a backjump.

    def reschedule_all(self) -> None:
        """Queue every constraint for an implication scan."""
        for stored in self.database.constraints:
            if not stored.queued:
                stored.queued = True
                self._pending.append(stored)

    # ------------------------------------------------------------------
    def reduce_learned(self, keep) -> int:
        """Forget learned constraints failing ``keep`` (clause deletion).

        An implied literal's reason holds the immutable constraint, not
        the deleted stored record, so soundness is unaffected; only
        future propagation strength changes.
        """
        removed = self.database.remove_learned(keep)
        if removed:
            survivors = set(map(id, self.database.constraints))
            fresh = deque()
            for stored in self._pending:
                if id(stored) in survivors:
                    fresh.append(stored)
                else:
                    stored.queued = False
            self._pending = fresh
        return removed


register_engine(
    "counter",
    Propagator,
    "eager slack counters over occurrence lists (reference backend)",
)

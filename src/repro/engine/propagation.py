"""Counter-based boolean constraint propagation for PB constraints.

:class:`Propagator` is the one propagation engine: the search loops
(:class:`~repro.core.solver.BsoloSolver`, the sessions, the SAT-based
baselines, the probing preprocessor) all drive it.  For a normalized
constraint ``sum a_j l_j >= b`` define::

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

Protocol invariants
-------------------
For any interleaving of the calls below:

* ``add_constraint`` either returns a :class:`Conflict` (the constraint
  is violated under the current trail) or schedules the constraint so
  that the next ``propagate`` discovers every implication it forces.
* ``decide``/``assume``/``imply`` make a literal true on the shared
  :class:`~repro.engine.assignment.Trail`; ``decide`` opens a decision
  level, ``assume`` is only legal at level 0, and ``imply`` records a
  clausal reason (all literals false except the implied one).
* ``propagate`` runs implication discovery to a fixed point and returns
  the first conflict found, or ``None``.  The set of literals implied at
  a fixed point is the closure of the rule "an unassigned literal whose
  coefficient exceeds the constraint's slack is true".
* Every implication carries a clausal reason on the trail, so conflict
  analysis never needs the engine's internal state.  A PB implication's
  reason is a :class:`~repro.engine.assignment.DeferredReason` (the
  implying constraint, literal and coefficient): ``Trail.reason`` builds
  the clausal tuple from it on first read and ``Trail.antecedent``
  returns its constraint, before and after that read.  The tuple
  depends only on the constraint and the trail prefix before the
  implied literal.
* ``backtrack(level)`` undoes every assignment above ``level`` and
  restores all internal bookkeeping; a subsequent ``propagate`` is a
  no-op unless constraints were added in between.  Propagation is
  demand-driven: a row scanned above ``level`` is not rescanned until an
  assignment touches it, and ``reschedule_all`` queues every row.
* ``replace_constraint(old, constraint)`` swaps one row for another
  (the Section 5 cuts keep one row per cut source).  The result is
  queued, never reported: the next ``propagate`` finds a violation as
  an ordinary conflict and every implication the new row forces.  When
  the record is not kept (the terms differ), the *replaced* record
  leaves every occurrence list and the pending queue at once: it is
  never woken again or returned inside a later :class:`Conflict`.
  Implications already on the trail keep their reasons, which hold the
  old immutable :class:`Constraint`.
* ``reduce_learned`` purges every internal reference (occurrence lists,
  the pending queue) to deleted constraints: no deleted
  :class:`~repro.engine.constraint_db.StoredConstraint` is ever
  returned inside a later :class:`Conflict` or re-propagated.

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
from typing import Deque, Optional, Tuple, Union

from ..pb.constraints import Constraint
from .assignment import DeferredReason, Reason, Trail
from .constraint_db import ConstraintDatabase, StoredConstraint

__all__ = ["Conflict", "Propagator"]


class Conflict:
    """A violated constraint plus a clausal explanation.

    ``literals`` are all false under the current trail; together they are
    sufficient for the violation.  For bound conflicts (paper Section 4)
    ``stored`` is ``None`` and the literals come from ``w_bc``.
    """

    __slots__ = ("stored", "literals")

    def __init__(self, stored: Optional[StoredConstraint], literals: Tuple[int, ...]):
        self.stored = stored
        self.literals = literals

    def __repr__(self) -> str:
        return "Conflict(%r)" % (self.literals,)


class Propagator:
    """Counter-based engine: eager slacks, occurrence-list updates."""

    def __init__(self, num_variables: int):
        self.trail = Trail(num_variables)
        #: Implications discovered so far.
        self.num_propagations = 0
        #: Calls to the propagation loop so far.
        self.num_propagate_calls = 0
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
        """Swap the row ``old`` for ``constraint``; returns the new row.

        Over the same terms, ``old`` is tightened in place and returned
        itself; otherwise the new row takes ``old``'s slot.  ``old``
        None, or deleted since, attaches a new row.  Either way the row
        is queued for the next :meth:`propagate`, which reports it if it
        is violated; no conflict is returned here.
        """
        stored = self.database.replace(old, constraint, learned)
        if stored is not old and old is not None and old.queued:
            old.queued = False
            self._pending.remove(old)
        if not stored.queued:
            stored.queued = True
            self._pending.append(stored)
        return stored

    # ------------------------------------------------------------------
    # Assignment entry points
    # ------------------------------------------------------------------
    def decide(self, literal: int) -> None:
        """Open a new decision level with ``literal`` true."""
        self.trail.decide(literal)
        self._on_assign(literal)

    def imply(self, literal: int, reason: Union[Reason, DeferredReason]) -> None:
        """Assert an implication at the current level."""
        self.trail.imply(literal, reason)
        self._on_assign(literal)

    def assume(self, literal: int) -> None:
        """Root-level assignment (preprocessing, necessary assignments)."""
        self.trail.assume(literal)
        self._on_assign(literal)

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
    def propagate(self) -> Optional[Conflict]:
        """Run boolean constraint propagation to a fixed point.

        Returns the first conflict discovered, or ``None``.
        """
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
            self.imply(lit, DeferredReason(constraint, lit, coef))
        return None

    def explain_violation(self, stored: StoredConstraint) -> Tuple[int, ...]:
        """False literals sufficient for ``slack < 0``.

        Their combined coefficient must exceed ``total - rhs``.  Built
        eagerly: a conflict is analyzed as soon as it is reported.
        """
        constraint = stored.constraint
        total = sum(c for c, _ in constraint.terms)
        trail = self.trail
        return trail.false_cover(constraint, total - constraint.rhs, len(trail))

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------
    def backtrack(self, target_level: int) -> None:
        """Undo assignments above ``target_level`` and restore slacks."""
        for lit in self.trail.backtrack(target_level):
            self.database.on_literal_unassigned(lit)
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

    # ------------------------------------------------------------------
    def model(self) -> dict:
        """The current (complete) assignment as a var -> 0/1 mapping."""
        if not self.trail.all_assigned():
            raise ValueError("model requested from partial assignment")
        return self.trail.assignment()

"""The constraint database: every row with its slack counter.

For each stored constraint the database maintains

    slack = sum_{literal not currently false} coefficient  -  rhs

eagerly via occurrence lists: a constraint is *violated* when its slack
is negative and it *implies* an unassigned literal whenever that
literal's coefficient exceeds the slack.

Constraints may be added mid-search (learned clauses, bound-conflict
clauses, knapsack cuts — paper Sections 4 and 5): the initial slack is
computed against the current trail.  A row may also be *replaced*
(:meth:`ConstraintDatabase.replace`): the Section 5 cuts keep one row
per cut source, and each improved solution tightens it in place.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..pb.constraints import Constraint
from .assignment import Trail


class StoredConstraint:
    """A constraint plus its mutable propagation state."""

    __slots__ = ("constraint", "slack", "index", "learned", "max_coef", "queued")

    def __init__(self, constraint: Constraint, index: int, learned: bool):
        self.constraint = constraint
        self.slack = 0  # set by ConstraintDatabase._attach
        self.index = index
        self.learned = learned
        #: Largest coefficient: when ``slack >= max_coef`` the constraint
        #: can neither be violated further nor imply anything — an O(1)
        #: filter that skips most implication scans.
        self.max_coef = max((coef for coef, _ in constraint.terms), default=0)
        #: Already sitting in the propagation queue (dedup flag).
        self.queued = False

    def __repr__(self) -> str:
        return "Stored(#%d slack=%d %r)" % (self.index, self.slack, self.constraint)


class ConstraintDatabase:
    """All constraints (original + learned) with slack bookkeeping."""

    def __init__(self, trail: Trail):
        self._trail = trail
        self.constraints: List[StoredConstraint] = []
        # literal -> list of (stored, coefficient) for constraints containing it
        self._occurrences: Dict[int, List[Tuple[StoredConstraint, int]]] = {}

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def num_learned(self) -> int:
        """Number of learned (non-input) constraints in the database."""
        return sum(1 for stored in self.constraints if stored.learned)

    def holds(self, stored: StoredConstraint) -> bool:
        """True while ``stored`` is a row here (not deleted or replaced)."""
        index = stored.index
        return index < len(self.constraints) and self.constraints[index] is stored

    # ------------------------------------------------------------------
    def add(self, constraint: Constraint, learned: bool = False) -> StoredConstraint:
        """Attach a constraint; its slack reflects the current trail."""
        stored = StoredConstraint(constraint, len(self.constraints), learned)
        self.constraints.append(stored)
        self._attach(stored)
        return stored

    def replace(
        self,
        old: Optional[StoredConstraint],
        constraint: Constraint,
        learned: bool = False,
    ) -> StoredConstraint:
        """Put ``constraint`` in the place of the row ``old``.

        Over the same terms, ``old`` itself takes the new rhs in O(1):
        its slack moves by the rhs difference.  Otherwise ``old`` leaves
        every occurrence list and a new record, attached against the
        current trail, takes its slot and index.  With ``old`` None or
        no longer held, this is :meth:`add`.
        """
        if old is None or not self.holds(old):
            return self.add(constraint, learned)
        terms = old.constraint.terms
        if constraint.terms is terms or constraint.terms == terms:
            old.slack += old.constraint.rhs - constraint.rhs
            old.constraint = constraint
            old.learned = learned
            return old
        self._detach(old)
        stored = StoredConstraint(constraint, old.index, learned)
        self.constraints[old.index] = stored
        self._attach(stored)
        return stored

    # ------------------------------------------------------------------
    def _attach(self, stored: StoredConstraint) -> None:
        constraint = stored.constraint
        slack = -constraint.rhs
        for coef, lit in constraint.terms:
            self._occurrences.setdefault(lit, []).append((stored, coef))
            if not self._trail.literal_is_false(lit):
                slack += coef
        stored.slack = slack

    def _detach(self, stored: StoredConstraint) -> None:
        occurrences = self._occurrences
        for _, lit in stored.constraint.terms:
            entries = occurrences[lit]
            for position, entry in enumerate(entries):
                if entry[0] is stored:
                    del entries[position]
                    break

    def occurrences(self, literal: int) -> List[Tuple[StoredConstraint, int]]:
        """Constraints containing ``literal`` (with its coefficient)."""
        return self._occurrences.get(literal, [])

    # ------------------------------------------------------------------
    # Slack maintenance, driven by the propagator
    # ------------------------------------------------------------------
    def on_literal_true(self, literal: int) -> List[StoredConstraint]:
        """Update slacks after ``literal`` became true.

        The complement became false; every constraint containing the
        complement loses that coefficient from its slack.  Returns the
        touched constraints (candidates for conflict/implication).
        """
        touched: List[StoredConstraint] = []
        for stored, coef in self._occurrences.get(-literal, ()):
            stored.slack -= coef
            touched.append(stored)
        return touched

    def on_literal_unassigned(self, literal: int) -> None:
        """Restore slacks after backtracking undid ``literal`` (was true)."""
        for stored, coef in self._occurrences.get(-literal, ()):
            stored.slack += coef

    # ------------------------------------------------------------------
    def remove_learned(self, keep) -> int:
        """Drop learned constraints for which ``keep(stored)`` is false.

        Safe at any point of the search: an implication *reason* on the
        trail holds the immutable :class:`Constraint` (or a tuple built
        from it), never this record, so deleting the constraint it came
        from cannot corrupt conflict analysis.  Returns the number
        removed.
        """
        kept: List[StoredConstraint] = []
        removed = 0
        for stored in self.constraints:
            if stored.learned and not keep(stored):
                removed += 1
                continue
            kept.append(stored)
        if not removed:
            return 0
        self.constraints = kept
        self._occurrences = {}
        for index, stored in enumerate(kept):
            stored.index = index
            for coef, lit in stored.constraint.terms:
                self._occurrences.setdefault(lit, []).append((stored, coef))
        return removed

    # ------------------------------------------------------------------
    def check_slacks(self) -> None:
        """Debug invariant: recompute every slack from scratch."""
        assignment = self._trail.assignment()
        for stored in self.constraints:
            expected = stored.constraint.slack(assignment)
            if expected != stored.slack:
                raise AssertionError(
                    "slack drift on %r: stored %d, recomputed %d"
                    % (stored.constraint, stored.slack, expected)
                )

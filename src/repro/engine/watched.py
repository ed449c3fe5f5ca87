"""Watched-literal propagation backends for PB constraints.

Registry name ``"watched"``.  Where the counter engine
(:mod:`repro.engine.propagation`) pays O(occurrences) on **every**
assignment and undo, this engine pays only for *watched* occurrences,
with a constraint-kind-specialized scheme (cf. Le Berre & Wallon's
dedicated PB watching strategies):

clauses (two watched literals)
    Classical unit propagation: a clause is woken only when one of its
    two watched literals becomes false, and first looks for a non-false
    replacement.

cardinality constraints (``b + 1`` watchers)
    A constraint requiring ``b`` true literals watches ``b + 1`` of
    them.  While all watched literals are non-false nothing can be
    implied; when one falls and no replacement exists, the remaining
    ``b`` watched literals are exactly the non-false ones — imply the
    unassigned, or conflict when fewer than ``b`` survive.

general PB constraints (watched sum with slack)
    Watch a subset of literals whose non-false coefficient sum
    (``wsum``) is at least ``rhs + max_coef``; under that invariant no
    implication is possible, so unwatched falsifications are free.
    When a watched literal falls below the threshold the watch set is
    extended with non-false literals; if the sum cannot be restored the
    constraint *degrades permanently to the counter regime*: its terms
    enter the ``pb_occ`` occurrence map (false literals contribute
    zero), ``wsum - rhs`` is the exact slack, and implication scans are
    queued straight from the eager assignment hook.  Degradation is
    sticky by design — constraints that go tight once (objective cuts,
    learned PB resolvents) go tight on every level, and re-shrinking
    the watch set would pay an O(arity) extension scan each time.
    ``wsum`` is maintained eagerly on assignment and restored on
    backtrack for watched and degraded occurrences alike.

The implied-literal fixed point is identical to the counter engine's by
construction (both close the rule "coefficient exceeds slack"); the
differential test suite enforces this on randomized instances.  That
shared fixed point is also the **proof-logging contract**: the
independent checker (:class:`repro.certify.checker.ProofChecker`)
replays RUP steps with the same rule, so proofs logged under either
backend verify identically.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..pb.constraints import Constraint
from .assignment import DeferredReason
from .constraint_db import (
    KIND_CLAUSE,
    KIND_GENERAL,
    StoredConstraint,
    WatchedConstraintDatabase,
)
from .interface import Conflict, PropagationEngine, register_engine

__all__ = ["WatchedPropagator"]


class WatchedPropagator(PropagationEngine):
    """Lazy engine: per-kind watcher lists, trail-queue propagation."""

    name = "watched"

    def __init__(self, num_variables: int, tracer=None):
        super().__init__(num_variables, tracer=tracer)
        self.database = WatchedConstraintDatabase(self.trail)
        #: Newly added constraints awaiting one exact implication scan.
        self._pending: Deque[StoredConstraint] = deque()
        #: Trail index up to which falsifications have been processed.
        self._qhead = 0
        # hot-path aliases; the database mutates these maps in place, so
        # the references stay valid across learned-constraint deletion
        self._binary_watch = self.database.binary_watch
        self._clause_watch = self.database.clause_watch
        self._card_watch = self.database.card_watch
        self._pb_watch = self.database.pb_watch
        self._pb_occ = self.database.pb_occ

    # ------------------------------------------------------------------
    # Constraint management
    # ------------------------------------------------------------------
    def add_constraint(
        self, constraint: Constraint, learned: bool = False
    ) -> Optional[Conflict]:
        """Attach a constraint mid-search.

        Returns a conflict immediately when the constraint is violated
        under the current trail; otherwise schedules it for an exact
        implication scan by the next :meth:`propagate`.
        """
        stored = self.database.add(constraint, learned=learned)
        if stored.slack < 0:  # attach-time snapshot
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
    # Eager watched-sum maintenance (general PB only)
    # ------------------------------------------------------------------
    def _on_assign(self, literal: int) -> None:
        # ``literal`` became true, so its negation became false: every
        # general PB constraint watching the negation loses that
        # coefficient from its watched sum.  Watch repair for the
        # non-degraded constraints happens lazily at wake time (the
        # trail queue); degraded constraints live entirely here — the
        # counter rule on their exact slack decides whether to queue an
        # implication scan (deduped via ``queued``).
        pb_occ = self._pb_occ
        if pb_occ:
            entries = pb_occ.get(-literal)
            if entries:
                pending = self._pending
                for stored, coef in entries:
                    wsum = stored.wsum - coef
                    stored.wsum = wsum
                    if wsum < stored.required and not stored.queued:
                        stored.queued = True
                        pending.append(stored)
        pb_watch = self._pb_watch
        if pb_watch:
            entries = pb_watch.get(-literal)
            if entries:
                for stored, coef in entries:
                    if not stored.watch_all:  # skip stale degraded entries
                        stored.wsum -= coef

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _propagate_loop(self) -> Optional[Conflict]:
        self.num_propagate_calls += 1
        trail_list = self.trail._trail
        values = self.trail._value
        pending = self._pending
        binary_get = self._binary_watch.get
        clause_get = self._clause_watch.get
        # instances are often clause-only: skip the cardinality/PB maps
        # entirely while they are empty
        card_watch = self._card_watch
        pb_watch = self._pb_watch
        while True:
            # Drain the falsification queue first.  Binary clauses are
            # fully inline (the single other literal decides everything,
            # no watcher maintenance); clause/cardinality wakes imply
            # inline (extending the queue in place, hence
            # len(trail_list) is re-read every iteration); general PB
            # wakes only adjust watches and *defer* their exact scans to
            # the pending queue, whose ``queued`` flag dedups them — a
            # high-arity constraint touched by many literals of one
            # propagation round is scanned once, not once per literal.
            qhead = self._qhead
            while qhead < len(trail_list):
                lit = -trail_list[qhead]  # just became false
                qhead += 1
                self._qhead = qhead
                conflict = None
                entries = binary_get(lit)
                if entries:
                    for stored, other in entries:
                        v = values[other if other > 0 else -other]
                        if v == (1 if other > 0 else 0):
                            continue  # satisfied
                        if v < 0:
                            self.num_propagations += 1
                            self.imply(
                                other, (other, lit),
                                antecedent=stored.constraint,
                            )
                        else:  # both literals false
                            conflict = Conflict(
                                stored, self.explain_violation(stored)
                            )
                            break
                if conflict is None:
                    watchers = clause_get(lit)
                    if watchers:
                        conflict = self._visit_clauses(lit, watchers, values)
                if card_watch and conflict is None:
                    watchers = card_watch.get(lit)
                    if watchers:
                        conflict = self._visit_cards(lit, watchers, values)
                if pb_watch and conflict is None:
                    watchers = pb_watch.get(lit)
                    if watchers:
                        self._visit_pb(lit, watchers, values)
                if conflict is not None:
                    self._clear_pending()
                    return conflict
            if not pending:
                return None
            stored = pending.popleft()
            stored.queued = False
            conflict = self._exact_scan(stored)
            if conflict is not None:
                self._clear_pending()
                return conflict

    def _clear_pending(self) -> None:
        for stored in self._pending:
            stored.queued = False
        self._pending.clear()

    # ------------------------------------------------------------------
    def _visit_clauses(self, lit: int, watchers, values) -> Optional[Conflict]:
        clause_watch = self.database.clause_watch
        kept = []
        i = 0
        total = len(watchers)
        while i < total:
            stored = watchers[i]
            i += 1
            wl = stored.wlits
            if len(wl) < 2:
                # unit clause: its only literal just became false
                kept.append(stored)
                watchers[:] = kept + watchers[i:]
                return Conflict(stored, self.explain_violation(stored))
            if wl[0] == lit:
                wl[0] = wl[1]
                wl[1] = lit
            first = wl[0]
            fval = values[first if first > 0 else -first]
            # values are {-1, 0, 1}: "satisfied" needs no assigned check
            # and "non-false" is a single != against the falsifying value.
            if fval == (1 if first > 0 else 0):
                kept.append(stored)  # satisfied: keep watching lit
                continue
            moved = False
            for k in range(2, len(wl)):
                w = wl[k]
                if values[w if w > 0 else -w] != (0 if w > 0 else 1):
                    wl[1] = w
                    wl[k] = lit
                    clause_watch.setdefault(w, []).append(stored)
                    moved = True
                    break
            if moved:
                continue
            kept.append(stored)
            if fval >= 0:  # first is false too: every literal is false
                watchers[:] = kept + watchers[i:]
                return Conflict(stored, self.explain_violation(stored))
            # first is the single non-false literal: unit implication;
            # the clause itself (oriented) is the reason
            self.num_propagations += 1
            self.imply(first, (first,) + tuple(wl[1:]), antecedent=stored.constraint)
        watchers[:] = kept
        return None

    # ------------------------------------------------------------------
    def _visit_cards(self, lit: int, watchers, values) -> Optional[Conflict]:
        card_watch = self.database.card_watch
        kept = []
        i = 0
        total = len(watchers)
        while i < total:
            stored = watchers[i]
            i += 1
            wl = stored.wlits
            threshold = stored.threshold
            count = threshold + 1
            if count > len(wl):
                count = len(wl)
            pos = -1
            for j in range(count):
                if wl[j] == lit:
                    pos = j
                    break
            if pos < 0:  # pragma: no cover - defensive (stale entry)
                continue
            moved = False
            for k in range(count, len(wl)):
                w = wl[k]
                # non-false is one comparison: values are {-1, 0, 1}
                if values[w if w > 0 else -w] != (0 if w > 0 else 1):
                    wl[pos] = w
                    wl[k] = lit
                    card_watch.setdefault(w, []).append(stored)
                    moved = True
                    break
            if moved:
                continue
            kept.append(stored)
            # every unwatched literal is false: the watched block holds
            # all remaining non-false literals
            nonfalse = 0
            unassigned = []
            for j in range(count):
                w = wl[j]
                v = values[w if w > 0 else -w]
                if v < 0:
                    nonfalse += 1
                    unassigned.append(w)
                elif v == (1 if w > 0 else 0):
                    nonfalse += 1
            if nonfalse < threshold:
                watchers[:] = kept + watchers[i:]
                return Conflict(stored, self.explain_violation(stored))
            if nonfalse == threshold and unassigned:
                constraint = stored.constraint
                false_lits = tuple(
                    l
                    for _, l in constraint.terms
                    if values[l if l > 0 else -l] == (0 if l > 0 else 1)
                )
                for u in unassigned:
                    self.num_propagations += 1
                    self.imply(u, (u,) + false_lits, antecedent=constraint)
        watchers[:] = kept
        return None

    # ------------------------------------------------------------------
    def _visit_pb(self, lit: int, watchers, values) -> None:
        """Wake general PB constraints watching ``lit``.

        Only adjusts watch structures; violation/implication discovery is
        deferred to a deduped :meth:`_exact_scan` through the pending
        queue, so a constraint touched by many falsifications in one
        propagation round pays one scan (matching the counter engine's
        pending-queue batching).
        """
        database = self.database
        pb_watch = database.pb_watch
        pending = self._pending
        kept = []
        for stored, coef in watchers:
            if stored.watch_all:
                # Degraded since this entry was registered: the
                # constraint now lives in ``pb_occ`` (handled eagerly in
                # ``_on_assign``); drop the stale watch entry.
                continue
            # wsum already excludes ``lit`` (eager update on assignment)
            constraint = stored.constraint
            required = stored.required
            if stored.wsum >= required:
                # enough watched supply left: stop watching ``lit``
                stored.watch_set.discard(lit)
                continue
            watch_set = stored.watch_set
            wsum = stored.wsum
            for c2, l2 in constraint.terms:
                if l2 in watch_set:
                    continue
                if values[l2 if l2 > 0 else -l2] == (0 if l2 > 0 else 1):
                    continue  # false: cannot help the watched sum
                watch_set.add(l2)
                pb_watch.setdefault(l2, []).append((stored, c2))
                wsum += c2
                if wsum >= required:
                    break
            stored.wsum = wsum
            if wsum >= required:
                watch_set.discard(lit)
                continue
            # Cannot restore the invariant: every non-false literal is
            # already watched.  Degrade permanently to the counter
            # regime (pb_occ occurrence lists; false literals contribute
            # zero, so undo events keep wsum exact).  Degradation is
            # sticky — recovering a small watch set would pay the
            # O(arity) extension scan again at the next tight spot, and
            # near-bound constraints (e.g. objective knapsack cuts) hit
            # that spot on every level.
            database.watch_everything(stored)
            if not stored.queued:
                stored.queued = True
                pending.append(stored)
        watchers[:] = kept

    # ------------------------------------------------------------------
    def _exact_scan(self, stored: StoredConstraint) -> Optional[Conflict]:
        """Exact-slack scan (counter rule) for a pending constraint."""
        values = self.trail._value
        constraint = stored.constraint
        if stored.watch_all:
            # degraded PB constraint: wsum is the exact non-false supply
            # (maintained eagerly on assignment, restored on backtrack)
            slack = stored.wsum - constraint.rhs
        else:
            slack = -constraint.rhs
            for coef, l in constraint.terms:
                if values[l if l > 0 else -l] != (0 if l > 0 else 1):
                    slack += coef  # non-false: one comparison suffices
        if slack < 0:
            return Conflict(stored, self.explain_violation(stored))
        if slack >= stored.max_coef:
            return None
        for coef, l in constraint.terms:
            if coef <= slack:
                continue
            if values[l if l > 0 else -l] < 0:
                self.num_propagations += 1
                self.imply(
                    l, DeferredReason(constraint, l, coef), antecedent=constraint
                )
        return None

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------
    def backtrack(self, target_level: int) -> None:
        """Undo assignments above ``target_level``; watched sums are
        restored through the watcher lists (watched occurrences only)."""
        pb_watch = self._pb_watch
        pb_occ = self._pb_occ
        antecedents = self._antecedent
        if pb_watch or pb_occ:
            for lit in self.trail.backtrack(target_level):
                antecedents.pop(lit if lit > 0 else -lit, None)
                entries = pb_occ.get(-lit)
                if entries:
                    for stored, coef in entries:
                        stored.wsum += coef
                entries = pb_watch.get(-lit)
                if entries:
                    for stored, coef in entries:
                        if not stored.watch_all:  # skip stale entries
                            stored.wsum += coef
        elif antecedents:
            for lit in self.trail.backtrack(target_level):
                antecedents.pop(lit if lit > 0 else -lit, None)
        else:
            self.trail.backtrack(target_level)
        self._clear_pending()
        # Unprocessed queue entries were all above the target level.
        trail_len = len(self.trail._trail)
        if self._qhead > trail_len:
            self._qhead = trail_len

    def reschedule_all(self) -> None:
        """Queue every constraint for an exact implication scan."""
        for stored in self.database.constraints:
            if not stored.queued:
                stored.queued = True
                self._pending.append(stored)

    # ------------------------------------------------------------------
    def reduce_learned(self, keep) -> int:
        """Forget learned constraints failing ``keep`` (clause deletion).

        Watcher lists are rebuilt from the survivors and the pending
        queue is purged, so no deleted constraint is ever woken or
        re-scanned.
        """
        removed = self.database.remove_learned(keep)
        if removed:
            survivors = set(map(id, self.database.constraints))
            fresh: Deque[StoredConstraint] = deque()
            for stored in self._pending:
                if id(stored) in survivors:
                    fresh.append(stored)
                else:
                    stored.queued = False
            self._pending = fresh
        return removed


register_engine(
    "watched",
    WatchedPropagator,
    "watched literals: 2-watch clauses, (b+1)-watch cardinality, "
    "watched-sum PB",
)

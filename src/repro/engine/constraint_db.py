"""Constraint databases: classification, counters, and watcher lists.

Every constraint is *classified on add* into one of three propagation
kinds (paper Section 2 vocabulary):

* :data:`KIND_CLAUSE` — any single true literal satisfies it;
* :data:`KIND_CARDINALITY` — all coefficients equal, ``b`` of the
  literals must be true;
* :data:`KIND_GENERAL` — arbitrary normalized PB constraint.

Two databases share the :class:`StoredConstraint` record:

:class:`ConstraintDatabase` (counter backend)
    For each stored constraint maintains

        slack = sum_{literal not currently false} coefficient  -  rhs

    eagerly via occurrence lists: a constraint is *violated* when its
    slack is negative and it *implies* an unassigned literal whenever
    that literal's coefficient exceeds the slack.

:class:`WatchedConstraintDatabase` (watched backend)
    Keeps per-kind watcher lists (literal -> constraints to wake when
    that literal becomes false) so that assignments cost O(watchers)
    instead of O(occurrences); see :mod:`repro.engine.watched` for the
    wake dynamics.

Constraints may be added mid-search (learned clauses, bound-conflict
clauses, knapsack cuts — paper Sections 4 and 5): the initial state is
computed against the current trail.  A row may also be *replaced*
(:meth:`ConstraintDatabase.replace`): the Section 5 cuts keep one row
per cut source, and each improved solution tightens it in place.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..pb.constraints import Constraint
from .assignment import Trail

#: Propagation kinds, decided once per constraint at add time.
KIND_CLAUSE = "clause"
KIND_CARDINALITY = "cardinality"
KIND_GENERAL = "general"


def classify(constraint: Constraint) -> str:
    """Propagation kind of a normalized constraint.

    Clause takes precedence (a saturated clause also has all-equal
    coefficients); tautologies fall through to :data:`KIND_GENERAL`,
    where they are inert under every backend.
    """
    if constraint.is_clause:
        return KIND_CLAUSE
    if constraint.is_cardinality:
        return KIND_CARDINALITY
    return KIND_GENERAL


class StoredConstraint:
    """A constraint plus its mutable propagation state.

    The counter backend uses ``slack``; the watched backend uses the
    ``wlits``/``threshold``/``watch_set``/``wsum``/``watch_all`` group.
    Both use ``kind``, ``index``, ``learned``, ``max_coef``, ``queued``.
    """

    __slots__ = (
        "constraint",
        "slack",
        "index",
        "learned",
        "max_coef",
        "required",
        "queued",
        "kind",
        "wlits",
        "threshold",
        "watch_set",
        "wsum",
        "watch_all",
    )

    def __init__(self, constraint: Constraint, index: int, learned: bool):
        self.constraint = constraint
        self.slack = 0  # set by ConstraintDatabase.attach
        self.index = index
        self.learned = learned
        #: Largest coefficient: when ``slack >= max_coef`` the constraint
        #: can neither be violated further nor imply anything — an O(1)
        #: filter that skips most implication scans.
        self.max_coef = max((coef for coef, _ in constraint.terms), default=0)
        #: Watched-sum threshold ``rhs + max_coef``: while the watched
        #: non-false supply stays at or above it, nothing can be implied.
        self.required = constraint.rhs + self.max_coef
        #: Already sitting in the propagation queue (dedup flag).
        self.queued = False
        #: Propagation kind (clause / cardinality / general).
        self.kind = classify(constraint)
        #: Mutable literal list for clause/cardinality watching: the
        #: first 2 (clause) or ``threshold + 1`` (cardinality) positions
        #: are the watched literals.
        self.wlits: Optional[List[int]] = None
        #: Cardinality: how many literals must be true.
        self.threshold = 0
        #: General PB: the literals currently watched.
        self.watch_set: Optional[Set[int]] = None
        #: General PB: sum of coefficients of watched, non-false literals.
        self.wsum = 0
        #: General PB: degraded mode — every literal is watched.
        self.watch_all = False

    def __repr__(self) -> str:
        return "Stored(#%d %s slack=%d %r)" % (
            self.index, self.kind, self.slack, self.constraint
        )


class _Rows:
    """The row list both databases keep, and the one-row swap.

    Subclasses provide ``_attach(stored)`` and ``_detach(stored)``,
    which enter and remove a row's occurrence or watch entries against
    the current trail, and ``_retune(stored, rhs)``, which shifts a
    row's counters to a new rhs over unchanged terms and returns False
    when the row's regime cannot take it (the row is then re-attached).
    """

    def __init__(self, trail: Trail):
        self._trail = trail
        self.constraints: List[StoredConstraint] = []

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
        """Attach a constraint; its state reflects the current trail."""
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

        Over the same terms and kind, ``old`` itself takes the new rhs
        in O(1) when its regime allows it (``_retune``).  Otherwise
        ``old`` leaves every occurrence or watch list and a new record,
        attached against the current trail, takes its slot and index.
        With ``old`` None or no longer held, this is :meth:`add`.
        """
        if old is None or not self.holds(old):
            return self.add(constraint, learned)
        terms = old.constraint.terms
        if (
            (constraint.terms is terms or constraint.terms == terms)
            and classify(constraint) == old.kind
            and self._retune(old, constraint.rhs)
        ):
            old.constraint = constraint
            old.required = constraint.rhs + old.max_coef
            old.learned = learned
            return old
        self._detach(old)
        stored = StoredConstraint(constraint, old.index, learned)
        self.constraints[old.index] = stored
        self._attach(stored)
        return stored


class ConstraintDatabase(_Rows):
    """All constraints (original + learned) with slack bookkeeping."""

    def __init__(self, trail: Trail):
        super().__init__(trail)
        # literal -> list of (stored, coefficient) for constraints containing it
        self._occurrences: Dict[int, List[Tuple[StoredConstraint, int]]] = {}

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

    def _retune(self, stored: StoredConstraint, rhs: int) -> bool:
        stored.slack += stored.constraint.rhs - rhs
        return True

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


class WatchedConstraintDatabase(_Rows):
    """All constraints (original + learned) with per-kind watcher lists.

    Watcher lists map a literal to the constraints that must be *woken*
    when that literal becomes false.  Clauses and cardinality
    constraints keep their watched literals in the leading positions of
    ``stored.wlits`` (2 and ``threshold + 1`` respectively); general PB
    constraints keep a watched set whose non-false coefficient sum
    (``stored.wsum``) is held at ``rhs + max_coef`` or above — below
    that, the constraint *degrades* permanently: its watch entries move
    to the counter-style occurrence map ``pb_occ`` (``watch_all``),
    where ``wsum`` is the non-false coefficient sum over **all** terms
    and ``wsum - rhs`` is the exact slack.  The wake dynamics live in
    :class:`~repro.engine.watched.WatchedPropagator`; this class owns
    attachment, classification-based dispatch and deletion.
    """

    def __init__(self, trail: Trail):
        super().__init__(trail)
        #: literal -> [(stored, other_lit)] for binary clauses.  Both
        #: literals of a binary clause are permanently watched: no
        #: replacement can ever exist, so the wake path skips watcher
        #: maintenance entirely and tests the single other literal.
        self.binary_watch: Dict[int, List[Tuple[StoredConstraint, int]]] = {}
        #: literal -> clauses watching it (woken when it becomes false).
        self.clause_watch: Dict[int, List[StoredConstraint]] = {}
        #: literal -> cardinality constraints watching it.
        self.card_watch: Dict[int, List[StoredConstraint]] = {}
        #: literal -> [(stored, coefficient)] for general PB watchers.
        self.pb_watch: Dict[int, List[Tuple[StoredConstraint, int]]] = {}
        #: literal -> [(stored, coefficient)] occurrence lists for
        #: *degraded* (watch-all) general PB constraints; maintained by
        #: the engine exactly like the counter backend's occurrences.
        self.pb_occ: Dict[int, List[Tuple[StoredConstraint, int]]] = {}

    # ------------------------------------------------------------------
    def _attach(self, stored: StoredConstraint) -> None:
        """Initialize watch structures against the current trail.

        ``stored.slack`` is set to the attach-time slack as a snapshot
        for the caller's violation check — unlike the counter database
        it is **not** maintained afterwards.
        """
        trail = self._trail
        constraint = stored.constraint
        nonfalse = sum(
            coef
            for coef, lit in constraint.terms
            if not trail.literal_is_false(lit)
        )
        stored.slack = nonfalse - constraint.rhs
        if stored.kind == KIND_GENERAL:
            self._attach_general(stored, nonfalse)
            return

        # Clause / cardinality: order literals non-false first, false
        # ones by descending assignment level, so that when a false
        # literal must be watched it is the one undone soonest — the
        # watch invariant then survives every backtrack.
        def sort_key(lit: int) -> Tuple[int, int]:
            if not trail.literal_is_false(lit):
                return (0, 0)
            return (1, -trail.level(lit if lit > 0 else -lit))

        lits = sorted(constraint.literals, key=sort_key)
        stored.wlits = lits
        if stored.kind == KIND_CLAUSE:
            if len(lits) == 2:
                self.binary_watch.setdefault(lits[0], []).append((stored, lits[1]))
                self.binary_watch.setdefault(lits[1], []).append((stored, lits[0]))
                return
            watch_count = min(2, len(lits))
            watch_map = self.clause_watch
        else:
            stored.threshold = constraint.cardinality_threshold
            watch_count = min(stored.threshold + 1, len(lits))
            if 4 * watch_count >= 3 * len(lits):
                # Dense: the watched block covers (nearly) every literal,
                # so almost any falsification wakes the constraint anyway
                # — laziness buys nothing while the wake machinery costs
                # plenty.  Run it in the counter regime from birth
                # (eager wsum + deduped exact scans), which also matches
                # the profile winner on tight routing cardinalities.
                self._degrade_at_birth(stored, nonfalse)
                return
            watch_map = self.card_watch
        for lit in lits[:watch_count]:
            watch_map.setdefault(lit, []).append(stored)

    def _detach(self, stored: StoredConstraint) -> None:
        """Drop every watch entry of ``stored``, including the stale
        ``pb_watch`` entries a degraded row leaves behind."""
        for lit in stored.constraint.literals:
            for watch_map in (self.clause_watch, self.card_watch):
                entries = watch_map.get(lit)
                if entries and stored in entries:
                    entries.remove(stored)
            for watch_map in (self.binary_watch, self.pb_watch, self.pb_occ):
                entries = watch_map.get(lit)
                if entries:
                    entries[:] = [entry for entry in entries if entry[0] is not stored]

    def _retune(self, stored: StoredConstraint, rhs: int) -> bool:
        # Only the counter regime keeps a sum over every term: there
        # ``wsum - rhs`` is the slack for any rhs.  A watch set was
        # chosen for the old ``required`` and is re-attached instead.
        return stored.watch_all

    def _degrade_at_birth(self, stored: StoredConstraint, nonfalse: int) -> None:
        """Counter-regime attachment: every term in ``pb_occ``.

        ``wsum`` is the non-false coefficient sum over all terms, so
        ``wsum - rhs`` is the exact slack — the same invariant
        :meth:`watch_everything` establishes, here without ever paying
        for a watch set.  Used for constraints the watch scheme cannot
        make lazy (dense cardinalities, near-full PB watch sets).
        """
        stored.watch_all = True
        stored.wsum = nonfalse
        if stored.watch_set is None:
            stored.watch_set = set()
        pb_occ = self.pb_occ
        for coef, lit in stored.constraint.terms:
            pb_occ.setdefault(lit, []).append((stored, coef))

    def _attach_general(self, stored: StoredConstraint, nonfalse: int) -> None:
        trail = self._trail
        constraint = stored.constraint
        required = stored.required
        watch_set: Set[int] = set()
        stored.watch_set = watch_set
        if nonfalse < required:
            # Degraded from birth: counter-style occurrence entries
            # (false literals contribute 0 to wsum; undo restores them).
            self._degrade_at_birth(stored, nonfalse)
            return
        # Greedy: largest coefficients first needs the fewest watchers.
        wsum = 0
        chosen: List[Tuple[int, int]] = []
        for coef, lit in sorted(constraint.terms, key=lambda t: -t[0]):
            if trail.literal_is_false(lit):
                continue
            chosen.append((coef, lit))
            wsum += coef
            if wsum >= required:
                break
        if 4 * len(chosen) >= 3 * len(constraint.terms):
            # The greedy watch set covers (nearly) every term: dense —
            # see _degrade_at_birth.
            self._degrade_at_birth(stored, nonfalse)
            return
        for coef, lit in chosen:
            watch_set.add(lit)
            self.pb_watch.setdefault(lit, []).append((stored, coef))
        stored.wsum = wsum

    def watch_everything(self, stored: StoredConstraint) -> None:
        """Degrade a general PB constraint permanently to watch-all.

        Called by the engine when the watched sum cannot be restored.
        Every term enters the counter-style ``pb_occ`` occurrence map;
        the constraint's now-stale ``pb_watch`` entries are dropped
        lazily by the engine on their next wake (and are skipped in the
        eager wsum updates via the ``watch_all`` flag).  Degradation is
        sticky: near-bound constraints (e.g. objective knapsack cuts)
        would otherwise pay an O(arity) shrink/re-extend cycle on every
        level, which profiling shows dominates the search.
        """
        pb_occ = self.pb_occ
        for coef, lit in stored.constraint.terms:
            pb_occ.setdefault(lit, []).append((stored, coef))
        stored.watch_set.clear()
        stored.watch_all = True

    # ------------------------------------------------------------------
    def remove_learned(self, keep) -> int:
        """Drop learned constraints for which ``keep(stored)`` is false.

        Rebuilds every watcher list from the survivors so no deleted
        constraint can ever be woken again (the stale-reference audit of
        the engine protocol).  Returns the number removed.
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
        # cleared in place: the engine holds direct references to these maps
        self.binary_watch.clear()
        self.clause_watch.clear()
        self.card_watch.clear()
        self.pb_watch.clear()
        self.pb_occ.clear()
        for index, stored in enumerate(kept):
            stored.index = index
            self._reregister(stored)
        return removed

    def _reregister(self, stored: StoredConstraint) -> None:
        """Re-enter a survivor's existing watches into the fresh maps."""
        if stored.kind == KIND_CLAUSE:
            wlits = stored.wlits
            if len(wlits) == 2:
                self.binary_watch.setdefault(wlits[0], []).append((stored, wlits[1]))
                self.binary_watch.setdefault(wlits[1], []).append((stored, wlits[0]))
                return
            for lit in wlits[: min(2, len(wlits))]:
                self.clause_watch.setdefault(lit, []).append(stored)
        elif stored.watch_all:  # degraded card or general PB
            for coef, lit in stored.constraint.terms:
                self.pb_occ.setdefault(lit, []).append((stored, coef))
        elif stored.kind == KIND_CARDINALITY:
            count = min(stored.threshold + 1, len(stored.wlits))
            for lit in stored.wlits[:count]:
                self.card_watch.setdefault(lit, []).append(stored)
        else:
            constraint = stored.constraint
            for lit in stored.watch_set:
                self.pb_watch.setdefault(lit, []).append(
                    (stored, constraint.coefficient(lit))
                )

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Debug validator: watch maps and per-constraint watch state
        agree, and every general PB constraint satisfies the watched-sum
        invariant (``wsum >= rhs + max_coef`` or watch-all).

        Only valid at *quiescence* — after a ``propagate()`` that
        returned no conflict.  While a conflict is outstanding the
        falsification queue may hold unprocessed literals whose watch
        repairs have not run yet; the solver always resolves that by
        backtracking past them (or terminating on a root-level
        conflict) before propagating again.
        """
        trail = self._trail
        for stored in self.constraints:
            if stored.watch_all:  # degraded card or general PB
                expected = sum(
                    coef
                    for coef, lit in stored.constraint.terms
                    if not trail.literal_is_false(lit)
                )
                if expected != stored.wsum:
                    raise AssertionError(
                        "degraded wsum drift on %r: stored %d, "
                        "recomputed %d" % (stored, stored.wsum, expected)
                    )
                for coef, lit in stored.constraint.terms:
                    entries = self.pb_occ.get(lit, ())
                    if not any(e[0] is stored for e in entries):
                        raise AssertionError(
                            "term %d of degraded %r missing from pb_occ"
                            % (lit, stored)
                        )
                continue
            if stored.kind == KIND_GENERAL:
                expected = sum(
                    stored.constraint.coefficient(lit)
                    for lit in stored.watch_set
                    if not trail.literal_is_false(lit)
                )
                if expected != stored.wsum:
                    raise AssertionError(
                        "wsum drift on %r: stored %d, recomputed %d"
                        % (stored, stored.wsum, expected)
                    )
                if stored.wsum < stored.required:
                    raise AssertionError(
                        "watched-sum invariant broken on %r: wsum %d < %d "
                        "without watch_all"
                        % (stored, stored.wsum, stored.required)
                    )
                for lit in stored.watch_set:
                    entries = self.pb_watch.get(lit, ())
                    if not any(entry[0] is stored for entry in entries):
                        raise AssertionError(
                            "watched literal %d of %r missing from pb_watch"
                            % (lit, stored)
                        )
            elif stored.kind == KIND_CLAUSE:
                if len(stored.wlits) == 2:
                    for lit in stored.wlits:
                        entries = self.binary_watch.get(lit, ())
                        if not any(e[0] is stored for e in entries):
                            raise AssertionError(
                                "binary watch %d of %r missing" % (lit, stored)
                            )
                    continue
                for lit in stored.wlits[: min(2, len(stored.wlits))]:
                    if stored not in self.clause_watch.get(lit, ()):
                        raise AssertionError(
                            "clause watch %d of %r missing" % (lit, stored)
                        )
            else:
                count = min(stored.threshold + 1, len(stored.wlits))
                for lit in stored.wlits[:count]:
                    if stored not in self.card_watch.get(lit, ()):
                        raise AssertionError(
                            "cardinality watch %d of %r missing" % (lit, stored)
                        )
        for lit, entries in self.pb_watch.items():
            for stored, coef in entries:
                # entries of degraded constraints linger until their next
                # wake drops them (lazy removal); anything else is stale
                if (
                    lit not in stored.watch_set
                    and not stored.watch_all
                    and stored in self.constraints
                ):
                    raise AssertionError(
                        "stale pb_watch entry %d -> %r" % (lit, stored)
                    )
        for lit, entries in self.pb_occ.items():
            for stored, coef in entries:
                if not stored.watch_all:
                    raise AssertionError(
                        "pb_occ entry %d -> %r but constraint is not "
                        "degraded" % (lit, stored)
                    )

"""Assignment trail with decision levels and clausal antecedents.

The trail records, in chronological order, every literal made true —
either by a *decision* (opening a new decision level) or by an
*implication* discovered by propagation.  Each implied variable remembers
a clausal *reason*: a tuple of literals, all false except the implied one,
that justifies the implication (used by conflict analysis to resolve
backwards, paper Section 4 relies on the same machinery for bound
conflicts).

Most reasons are never read: conflict analysis visits only the
implications between a conflict and its first UIP.  A PB implication is
therefore recorded as a :class:`DeferredReason` — the implying
constraint, the implied literal and its coefficient — and
:meth:`Trail.reason` derives the clausal tuple on first read, caching it
in the record.  The derivation looks only at literals assigned *before*
the implied one (the trail remembers each variable's position), which
is exactly the set of false literals the constraint had when it
implied, so the tuple equals the one built at implication time.
The record stays on the trail until the variable is unassigned, so
:meth:`Trail.antecedent` returns the implying constraint (what
cutting-plane learning resolves with) before and after that read.

The :class:`Trail` keeps plain Python lists, which the propagation hot
loops index one variable at a time.  Its :class:`TrailDelta` feeds drive
incremental lower bounding, so conflict analysis and
``MISBound.attach_trail`` read the same structure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..pb.constraints import Constraint
from ..pb.literals import variable

#: A clausal reason: the implied literal first, then false literals.
Reason = Tuple[int, ...]

UNASSIGNED = -1


class DeferredReason:
    """A PB implication: ``literal`` was implied by ``constraint``, where
    its coefficient is ``coef``.  ``clause`` is the clausal reason once
    :meth:`Trail.reason` has built it (None before).

    Holds the immutable :class:`~repro.pb.constraints.Constraint`, so
    deleting the stored constraint it came from (learned-constraint
    reduction) cannot change the reason.
    """

    __slots__ = ("constraint", "literal", "coef", "clause")

    def __init__(self, constraint: Constraint, literal: int, coef: int):
        self.constraint = constraint
        self.literal = literal
        self.coef = coef
        self.clause: Optional[Reason] = None


class TrailDelta:
    """Accumulates the variables assigned *or* unassigned since the last
    drain — the feed behind incremental lower bounding.

    Consumers register through :meth:`Trail.register_delta` and call
    :meth:`drain` at each bound computation; between drains the trail
    adds every variable it pushes or pops.  A variable that was assigned
    and then backtracked still appears (conservative: consumers
    re-evaluate it), and draining resets the set.
    """

    __slots__ = ("changed",)

    def __init__(self):
        self.changed: set = set()

    def add(self, var: int) -> None:
        """Record that ``var`` changed since the last snapshot."""
        self.changed.add(var)

    def drain(self) -> set:
        """Return-and-reset the changed-variable set."""
        changed = self.changed
        self.changed = set()
        return changed


class Trail:
    """Chronological assignment stack over variables ``1..num_variables``."""

    def __init__(self, num_variables: int):
        self.num_variables = num_variables
        # value per variable: 0, 1 or UNASSIGNED
        self._value: List[int] = [UNASSIGNED] * (num_variables + 1)
        self._level: List[int] = [0] * (num_variables + 1)
        self._reason: List[Union[None, Reason, DeferredReason]] = [None] * (
            num_variables + 1
        )
        # index of each assigned variable's literal in ``_trail``
        self._position: List[int] = [0] * (num_variables + 1)
        self._trail: List[int] = []  # literals made true, in order
        self._level_start: List[int] = [0]  # trail index where each level begins
        # registered TrailDelta feeds (empty in the common case, so the
        # hot push/pop paths pay only a truthiness check)
        self._deltas: List[TrailDelta] = []

    # ------------------------------------------------------------------
    # Change feeds (incremental lower bounding)
    # ------------------------------------------------------------------
    def register_delta(self) -> TrailDelta:
        """A new :class:`TrailDelta` fed by every future push/pop."""
        delta = TrailDelta()
        self._deltas.append(delta)
        return delta

    def unregister_delta(self, delta: TrailDelta) -> None:
        """Stop feeding ``delta`` (its consumer was rebuilt or dropped).

        Sessions rebuild their bounders on ``set_objective``/``pop``;
        without unregistration every push/pop would keep updating the
        dead feeds forever.  Unknown feeds are ignored.
        """
        try:
            self._deltas.remove(delta)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def decision_level(self) -> int:
        """Current decision level (0 = root)."""
        return len(self._level_start) - 1

    def value(self, var: int) -> int:
        """0, 1, or ``UNASSIGNED`` for a variable."""
        return self._value[var]

    def literal_is_true(self, literal: int) -> bool:
        """True when ``literal`` is assigned and satisfied."""
        value = self._value[variable(literal)]
        if value == UNASSIGNED:
            return False
        return value == (1 if literal > 0 else 0)

    def literal_is_false(self, literal: int) -> bool:
        """True when ``literal`` is assigned and falsified."""
        value = self._value[variable(literal)]
        if value == UNASSIGNED:
            return False
        return value == (0 if literal > 0 else 1)

    def is_assigned(self, var: int) -> bool:
        """True when ``var`` has a value on the trail."""
        return self._value[var] != UNASSIGNED

    def level(self, var: int) -> int:
        """Decision level at which ``var`` was assigned."""
        return self._level[var]

    def reason(self, var: int) -> Optional[Reason]:
        """Clausal antecedent of ``var`` (None for decisions/unassigned).

        A deferred PB reason is built here on first read and cached in
        its record.
        """
        reason = self._reason[var]
        if reason is None or reason.__class__ is tuple:
            return reason
        built = reason.clause
        if built is None:
            constraint = reason.constraint
            total = sum(coef for coef, _ in constraint.terms)
            built = (reason.literal,) + self.false_cover(
                constraint, total - constraint.rhs - reason.coef, self._position[var]
            )
            reason.clause = built
        return built

    def antecedent(self, var: int) -> Optional[Constraint]:
        """The PB constraint that implied ``var``: None for decisions,
        root assignments, tuple reasons and unassigned variables."""
        reason = self._reason[var]
        if reason is None or reason.__class__ is tuple:
            return None
        return reason.constraint

    def false_cover(
        self, constraint: Constraint, needed: int, before: int
    ) -> Tuple[int, ...]:
        """False literals of ``constraint`` assigned before trail position
        ``before`` whose coefficients sum past ``needed``.

        Greedy, largest coefficients first (ties in term order) — the
        shared rule of implication reasons and violation explanations.
        """
        values = self._value
        position = self._position
        false_terms = []
        for coef, lit in constraint.terms:
            var = lit if lit > 0 else -lit
            if values[var] == (0 if lit > 0 else 1) and position[var] < before:
                false_terms.append((coef, lit))
        false_terms.sort(key=lambda term: -term[0])
        chosen: List[int] = []
        acc = 0
        for coef, lit in false_terms:
            if acc > needed:
                break
            chosen.append(lit)
            acc += coef
        if acc <= needed:
            raise AssertionError(
                "false literals of %r do not exceed %d" % (constraint, needed)
            )
        return tuple(chosen)

    def __len__(self) -> int:
        return len(self._trail)

    @property
    def literals(self) -> Sequence[int]:
        """All true literals, oldest first."""
        return self._trail

    def assignment(self) -> Dict[int, int]:
        """Snapshot as a var -> 0/1 mapping (assigned variables only)."""
        result: Dict[int, int] = {}
        for lit in self._trail:
            var = variable(lit)
            result[var] = 1 if lit > 0 else 0
        return result

    def num_assigned(self) -> int:
        """Number of assigned variables."""
        return len(self._trail)

    def all_assigned(self) -> bool:
        """True when every variable has a value (a complete model)."""
        return len(self._trail) == self.num_variables

    def unassigned_variables(self) -> List[int]:
        """The variables still free, ascending."""
        return [
            var
            for var in range(1, self.num_variables + 1)
            if self._value[var] == UNASSIGNED
        ]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def decide(self, literal: int) -> None:
        """Open a new decision level and make ``literal`` true."""
        self._level_start.append(len(self._trail))
        self._push(literal, None)

    def imply(self, literal: int, reason: Union[Reason, DeferredReason]) -> None:
        """Make ``literal`` true at the current level with a clausal reason
        (a tuple, or a :class:`DeferredReason` built on first read)."""
        self._push(literal, reason)

    def assume(self, literal: int) -> None:
        """Root-level (level 0) assignment, e.g. from preprocessing."""
        if self.decision_level != 0:
            raise ValueError("assumptions only at decision level 0")
        self._push(literal, None)

    def _push(
        self, literal: int, reason: Union[None, Reason, DeferredReason]
    ) -> None:
        var = variable(literal)
        if self._value[var] != UNASSIGNED:
            raise ValueError("variable %d already assigned" % var)
        self._value[var] = 1 if literal > 0 else 0
        self._level[var] = self.decision_level
        self._reason[var] = reason
        self._position[var] = len(self._trail)
        self._trail.append(literal)
        if self._deltas:
            for delta in self._deltas:
                delta.changed.add(var)

    def backtrack(self, target_level: int) -> List[int]:
        """Undo every assignment above ``target_level``.

        Returns the list of unassigned literals (most recent first) so the
        propagator can restore constraint slacks.
        """
        if target_level < 0 or target_level > self.decision_level:
            raise ValueError(
                "cannot backtrack to level %d from %d"
                % (target_level, self.decision_level)
            )
        if target_level == self.decision_level:
            return []
        cut = self._level_start[target_level + 1]
        undone: List[int] = []
        while len(self._trail) > cut:
            lit = self._trail.pop()
            var = variable(lit)
            self._value[var] = UNASSIGNED
            self._reason[var] = None
            undone.append(lit)
        del self._level_start[target_level + 1 :]
        if self._deltas and undone:
            for delta in self._deltas:
                delta.changed.update(variable(lit) for lit in undone)
        return undone

    def decision_at(self, level: int) -> int:
        """The decision literal that opened ``level`` (level >= 1)."""
        if level < 1 or level > self.decision_level:
            raise ValueError("no decision at level %d" % level)
        return self._trail[self._level_start[level]]


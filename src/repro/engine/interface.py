"""The engine-facing propagation protocol and the backend registry.

:class:`PropagationEngine` is the contract between the search loops
(:class:`~repro.core.solver.BsoloSolver`, the SAT-based baselines, the
probing preprocessor) and a boolean-constraint-propagation backend.  Two
backends ship with the repository:

``counter``
    The reference engine (:class:`~repro.engine.propagation.Propagator`):
    eager per-assignment slack counters over occurrence lists.
``watched``
    The lazy engine (:class:`~repro.engine.watched.WatchedPropagator`):
    two watched literals per clause, ``b+1`` watchers per cardinality
    constraint, and a watched coefficient sum with slack for general PB
    constraints.

Third-party engines plug in through :func:`register_engine` and are then
selectable everywhere a backend name is accepted
(``SolverOptions.propagation``, the CLI ``--propagation`` flag, portfolio
worker specs).

Protocol invariants
-------------------
Every backend must guarantee, for any interleaving of the calls below:

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
  coefficient exceeds the constraint's slack is true" and therefore
  identical across backends; only discovery *order* (and which violated
  constraint is reported on a conflict) may differ.
* Every implication carries a clausal reason on the trail and, when it
  came from a PB constraint, an ``antecedent`` entry, so conflict
  analysis never needs the engine's internal state.  A reason may be a
  :class:`~repro.engine.assignment.DeferredReason` (the implying
  constraint, literal and coefficient) that ``Trail.reason`` turns into
  the clausal tuple on first read; the tuple depends only on the
  constraint and the trail prefix before the implied literal.
* ``backtrack(level)`` undoes every assignment above ``level`` and
  restores all internal bookkeeping; a subsequent ``propagate`` is a
  no-op unless constraints were added in between.
* ``replace_constraint(old, constraint)`` swaps one row for another
  (the Section 5 cuts keep one row per cut source).  The result is
  queued, never reported: the next ``propagate`` finds a violation as
  an ordinary conflict and every implication the new row forces.  When
  the record is not kept (the terms or regime differ), the *replaced*
  record leaves every watcher list and pending queue at once: it is
  never woken again or returned inside a later :class:`Conflict`.
  Implications already on the trail keep their reasons, which hold the
  old immutable :class:`Constraint`.
* ``reduce_learned`` must purge every internal reference (watcher lists,
  pending queues) to deleted constraints: no deleted
  :class:`~repro.engine.constraint_db.StoredConstraint` may ever be
  returned inside a later :class:`Conflict` or re-propagated.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..obs.events import PropagationEvent
from ..pb.constraints import Constraint
from ..pb.literals import variable
from .assignment import DeferredReason, Reason, Trail
from .constraint_db import StoredConstraint


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


class PropagationEngine(ABC):
    """Abstract propagation backend (see the module docstring for the
    full protocol contract).

    The base class owns everything that is *engine independent*: the
    trail, the assignment entry points, PB antecedent bookkeeping, the
    violation explanation and the optional trace accounting.
    Concrete backends implement constraint attachment, the propagation
    loop, backtracking and learned-constraint deletion.
    """

    #: Registry name of the backend (set by subclasses).
    name = "abstract"

    def __init__(self, num_variables: int, tracer=None):
        self.trail = Trail(num_variables)
        #: Implications discovered so far (the backends count them).
        self.num_propagations = 0
        #: Calls to the propagation loop so far (the backends count them).
        self.num_propagate_calls = 0
        self._tracer = tracer if (tracer is not None and tracer.enabled) else None
        self._batch_mark = 0
        if self._tracer is None:
            # Skip the trace-batching wrapper entirely on the null path.
            self.propagate = self._propagate_loop  # type: ignore[method-assign]
        # var -> the PB constraint that implied it (for cutting-plane
        # learning; the clausal reason on the trail is authoritative for
        # clausal analysis)
        self._antecedent: dict = {}

    # ------------------------------------------------------------------
    # Backend-specific obligations
    # ------------------------------------------------------------------
    @abstractmethod
    def add_constraint(
        self, constraint: Constraint, learned: bool = False
    ) -> Optional[Conflict]:
        """Attach a constraint mid-search.

        Returns a conflict immediately when the constraint is violated
        under the current trail; otherwise schedules it for implication
        scanning by the next :meth:`propagate`.
        """

    @abstractmethod
    def replace_constraint(
        self,
        old: Optional[StoredConstraint],
        constraint: Constraint,
        learned: bool = False,
    ) -> StoredConstraint:
        """Swap the row ``old`` for ``constraint``; returns the new row.

        Over the same terms, a row whose regime allows it is tightened
        in place and returned itself; otherwise the new row takes
        ``old``'s slot.  ``old`` None, or deleted since, attaches a new
        row.  Either way the row is queued for the next
        :meth:`propagate`, which reports it if it is violated; no
        conflict is returned here.
        """

    @abstractmethod
    def _propagate_loop(self) -> Optional[Conflict]:
        """Run implication discovery to a fixed point (no tracing).

        Adds one to ``num_propagate_calls`` on entry and one to
        ``num_propagations`` per implication.
        """

    @abstractmethod
    def backtrack(self, target_level: int) -> None:
        """Undo assignments above ``target_level`` and restore all
        internal bookkeeping."""

    @abstractmethod
    def reschedule_all(self) -> None:
        """Queue every constraint for a full implication scan."""

    @abstractmethod
    def reduce_learned(self, keep) -> int:
        """Forget learned constraints failing ``keep`` (clause deletion).

        An implied literal keeps its reason, which holds the immutable
        :class:`Constraint` rather than the deleted stored record, so
        soundness is unaffected; only future propagation strength
        changes.  All internal references to deleted constraints are
        purged.
        """

    # ------------------------------------------------------------------
    # Assignment entry points (shared)
    # ------------------------------------------------------------------
    def decide(self, literal: int) -> None:
        """Open a new decision level with ``literal`` true."""
        self.trail.decide(literal)
        self._on_assign(literal)

    def imply(
        self,
        literal: int,
        reason: Union[Reason, DeferredReason],
        antecedent: Optional[Constraint] = None,
    ) -> None:
        """Assert an implication at the current level."""
        self.trail.imply(literal, reason)
        if antecedent is not None:
            self._antecedent[variable(literal)] = antecedent
        self._on_assign(literal)

    def assume(self, literal: int) -> None:
        """Root-level assignment (preprocessing, necessary assignments)."""
        self.trail.assume(literal)
        self._on_assign(literal)

    def _on_assign(self, literal: int) -> None:
        """Hook run after any literal becomes true; backends that keep
        eager per-assignment state override this."""

    def antecedent(self, var: int) -> Optional[Constraint]:
        """The PB constraint that implied ``var`` (None for decisions or
        externally asserted literals)."""
        return self._antecedent.get(var)

    # ------------------------------------------------------------------
    # Propagation entry point (adds trace batching over the raw loop)
    # ------------------------------------------------------------------
    def propagate(self) -> Optional[Conflict]:
        """Run boolean constraint propagation to a fixed point.

        Returns the first conflict discovered, or ``None``.  With a
        tracer, each call that implied something or hit a conflict emits
        one batch event; an engine built without one runs the bare loop
        in place of this wrapper.
        """
        conflict = self._propagate_loop()
        delta = self.num_propagations - self._batch_mark
        self._batch_mark = self.num_propagations
        if delta or conflict is not None:
            self._tracer.emit(
                PropagationEvent(
                    count=delta,
                    level=self.trail.decision_level,
                    conflict=conflict is not None,
                )
            )
        return conflict

    # ------------------------------------------------------------------
    # Explanations (shared: they read only the constraint and the trail)
    # ------------------------------------------------------------------
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
    def model(self) -> dict:
        """The current (complete) assignment as a var -> 0/1 mapping."""
        if not self.trail.all_assigned():
            raise ValueError("model requested from partial assignment")
        return self.trail.assignment()


# ----------------------------------------------------------------------
# Backend registry (mirrors the repro.api solver registry pattern)
# ----------------------------------------------------------------------
#: name -> (factory, description); factory(num_variables, tracer) -> engine
_EngineFactory = Callable[..., PropagationEngine]
_ENGINES: Dict[str, Tuple[_EngineFactory, str]] = {}


class UnknownEngineError(ValueError):
    """The requested propagation backend name is not registered."""


def register_engine(
    name: str, factory: _EngineFactory, description: str = ""
) -> None:
    """Register ``factory(num_variables, tracer=None) -> engine`` under
    ``name``.  Re-registering a name replaces it (tests use this to
    inject instrumented engines).  The engine counts its own work in
    ``num_propagations`` and ``num_propagate_calls``; the solver reads
    those when a solve ends."""
    _ENGINES[name] = (factory, description)


def available_engines() -> List[str]:
    """Registered propagation backend names, sorted."""
    return sorted(_ENGINES)


def engine_descriptions() -> Dict[str, str]:
    """Backend name -> one-line description (for ``--help`` output)."""
    return {name: desc for name, (_, desc) in sorted(_ENGINES.items())}


def make_engine(name: str, num_variables: int, tracer=None) -> PropagationEngine:
    """Instantiate a registered propagation backend."""
    try:
        factory = _ENGINES[name][0]
    except KeyError:
        raise UnknownEngineError(
            "unknown propagation engine %r (choose from %s)"
            % (name, ", ".join(available_engines()))
        ) from None
    return factory(num_variables, tracer=tracer)

"""Persistent solving sessions: ``solve_under``, push/pop, warm state.

A :class:`SolverSession` keeps one propagation engine, VSIDS activity,
bound-schedule state and the trail-attached incremental MIS
cache alive across many related solve calls, instead of rebuilding
everything per instance.  The intended workload is ROADMAP Open item 4's
perturbation streams: solve, tweak (assumptions, an extra constraint, a
new objective), solve again.

Soundness rests on three rules, enforced here and in
:class:`~repro.core.solver.BsoloSolver`'s session mode:

**Empty root.**  Session calls run entirely above a *guard decision
level* (a fresh variable, decided first every call), so no assignment
ever becomes a permanent level-0 fact and end-of-call ``backtrack(0)``
restores a truly blank trail.  Assumptions are asserted as decision
levels, MiniSat style.

**Frame-tagged learned constraints.**  Constraints added through
:meth:`add_constraint` belong to the frame opened by the most recent
:meth:`push`; clauses the search learns are tagged with the frame depth
active when they were learned.  :meth:`pop` deletes exactly the popped
frame's constraints plus every learned clause tagged at or above the
popped depth — anything learned earlier predates the frame and cannot
depend on it.

**Temporal taint.**  Within one call, everything learned *before* the
first incumbent (or before an imported upper-bound hint) is implied by
the instance plus the active frames and may be retained; everything
learned afterwards may depend on the incumbent-relative cuts (paper
Section 5) or the hint and is discarded when the call ends.  The
retained clauses are objective-independent logical consequences, so
:meth:`set_objective` keeps them.

The correctness oracle is *cold-equivalence lockstep*: a session solve
must report the same optimum and status as a fresh one-shot solve of
the same instance (see ``test_stream_lockstep`` in
``tests/test_incremental.py``).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..core.options import SolverOptions, UnsupportedOptionError
from ..core.result import SolveResult
from ..core.bound_schedule import AdaptiveSchedule
from ..core.solver import BsoloSolver, make_bounder
from ..engine.activity import VSIDSActivity
from ..engine.propagation import Propagator
from ..pb.constraints import Constraint
from ..pb.instance import InfeasibleConstraintError, PBInstance
from ..pb.objective import Objective


class SessionStats:
    """Counters aggregated across the lifetime of one session."""

    __slots__ = (
        "calls",
        "pushes",
        "pops",
        "learned_retained",
        "learned_discarded",
        "conflicts",
        "decisions",
    )

    def __init__(self):
        self.calls = 0
        self.pushes = 0
        self.pops = 0
        #: Learned clauses currently carried across calls (frame-tagged).
        self.learned_retained = 0
        #: Solve-local learned constraints dropped at call ends (the
        #: incumbent-dependent tail under the temporal taint rule).
        self.learned_discarded = 0
        self.conflicts = 0
        self.decisions = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict snapshot (report/JSON friendly)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return "SessionStats(%s)" % (
            ", ".join("%s=%d" % (k, v) for k, v in self.as_dict().items())
        )


class _Frame:
    """One push/pop scope: the constraints added while it was on top."""

    __slots__ = ("constraints", "stored")

    def __init__(self):
        #: The :class:`Constraint` objects (for instance rebuilds).
        self.constraints: List[Constraint] = []
        #: Their engine-side ``StoredConstraint`` twins (for deletion).
        self.stored: List[object] = []


class SolverSession:
    """A persistent bsolo solving context (see the module docstring).

    Parameters mirror a one-shot solve: a base :class:`PBInstance` and
    :class:`SolverOptions`.  Probing (``preprocess``) asserts permanent
    root facts, which would break the empty-root invariant, so it is
    forced off; options that cannot be honored across calls (``proof``,
    ``external_bound``, ``should_stop``) raise
    :class:`UnsupportedOptionError` up front.
    """

    def __init__(
        self,
        instance: PBInstance,
        options: Optional[SolverOptions] = None,
    ):
        options = options or SolverOptions()
        for field, why in (
            ("proof", "a proof log cannot span stateful session calls"),
            ("external_bound", "portfolio bound import is per-solve"),
            ("should_stop", "cooperative interruption is per-solve"),
        ):
            if getattr(options, field) is not None:
                raise UnsupportedOptionError(
                    "SolverSession does not support %s=: %s" % (field, why)
                )
        self._options = options.replace(preprocess=False)
        self._num_variables = instance.num_variables
        #: Search scaffolding: decided first every call so the whole
        #: search lives above level 0.  Appears in no constraint.
        self.guard_var = instance.num_variables + 1
        self._base_constraints: Tuple[Constraint, ...] = instance.constraints
        self._objective = instance.objective
        self._variable_names = dict(instance.variable_names)

        #: Persistent engine, sized to include the guard variable.
        self.propagator = Propagator(self.guard_var)
        #: Persistent branching activity (warm across calls).
        self.activity = VSIDSActivity(
            self.guard_var, decay=self._options.vsids_decay
        )
        #: Persistent lower-bound schedule.
        self.schedule = AdaptiveSchedule()

        #: Engine ids of frame constraints: learned-flagged in the
        #: database (so ``pop`` can delete them) yet immune to clause
        #: garbage collection.  Strong refs ride in ``_protected_refs``
        #: so a collected twin can never recycle a protected id.
        self.protected_ids: Set[int] = set()
        self._protected_refs: Dict[int, object] = {}
        self._frames: List[_Frame] = [_Frame()]
        #: id -> (stored, frame depth active when it was learned).
        self._learned_tags: Dict[int, Tuple[object, int]] = {}
        #: Set once per call at the first incumbent (or bound hint):
        #: ids of the learned constraints that may survive the call.
        self._taint_ids: Optional[Set[int]] = None
        self._taint_refs: Optional[List[object]] = None
        self._in_call = False
        self.stats = SessionStats()

        for constraint in self._base_constraints:
            # A blank trail cannot violate a satisfiable constraint and
            # PBInstance already rejected unsatisfiable ones.
            self.propagator.add_constraint(constraint)
        self._instance = self._current_instance()
        self.bounder = None
        self._rebuild_bounder()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def instance(self) -> PBInstance:
        """The current effective instance (base + frames + objective)."""
        return self._instance

    @property
    def depth(self) -> int:
        """Number of open frames (0 = only the base scope)."""
        return len(self._frames) - 1

    # ------------------------------------------------------------------
    # Mutation between calls
    # ------------------------------------------------------------------
    def push(self) -> None:
        """Open a new constraint frame; :meth:`pop` undoes everything
        added (and learned) while it is open."""
        self._ensure_idle()
        self._frames.append(_Frame())
        self.stats.pushes += 1

    def pop(self) -> None:
        """Close the top frame: delete its constraints and every learned
        clause tagged at or above its depth, then invalidate the bounder
        caches (their relaxations included the popped constraints)."""
        self._ensure_idle()
        if len(self._frames) == 1:
            raise ValueError("pop() without a matching push()")
        depth = len(self._frames) - 1
        frame = self._frames.pop()
        doomed: Set[int] = set()
        for stored in frame.stored:
            doomed.add(id(stored))
            self.protected_ids.discard(id(stored))
            self._protected_refs.pop(id(stored), None)
        for key, (_, tag_depth) in list(self._learned_tags.items()):
            if tag_depth >= depth:
                doomed.add(key)
                del self._learned_tags[key]
        if doomed:
            self.propagator.reduce_learned(lambda s: id(s) not in doomed)
        self.stats.learned_retained = len(self._learned_tags)
        self._instance = self._current_instance()
        self._rebuild_bounder()
        self.stats.pops += 1

    def add_constraint(self, constraint: Constraint) -> None:
        """Add ``constraint`` to the current frame (visible to every
        later call until that frame is popped)."""
        self._ensure_idle()
        if constraint.is_unsatisfiable:
            raise InfeasibleConstraintError(
                "constraint %r can never be satisfied" % (constraint,)
            )
        for var in constraint.variables:
            if var < 1 or var > self._num_variables:
                raise ValueError(
                    "constraint variable %d out of session range 1..%d"
                    % (var, self._num_variables)
                )
        if constraint.is_tautology:
            return  # dropped, exactly as PBInstance construction would
        # learned=True so the engines' reduce_learned can delete it on
        # pop; protected_ids shields it from clause garbage collection.
        conflict = self.propagator.add_constraint(constraint, learned=True)
        if conflict is not None:  # pragma: no cover - blank trail
            raise AssertionError("satisfiable constraint conflicted at root")
        stored = self.propagator.database.constraints[-1]
        frame = self._frames[-1]
        frame.constraints.append(constraint)
        frame.stored.append(stored)
        self.protected_ids.add(id(stored))
        self._protected_refs[id(stored)] = stored
        self._instance = self._current_instance()
        self._rebuild_bounder()

    def set_objective(
        self, objective: Union[Objective, Mapping[int, int]]
    ) -> None:
        """Replace the objective for subsequent calls.

        Retained learned clauses survive: under the temporal taint rule
        they are logical consequences of the constraints alone, never of
        any objective.  The bounder is rebuilt (its relaxation bakes the
        cost vector in).
        """
        self._ensure_idle()
        if not isinstance(objective, Objective):
            objective = Objective(objective)
        for var in objective.costs:
            if var < 1 or var > self._num_variables:
                raise ValueError(
                    "objective variable %d out of session range 1..%d"
                    % (var, self._num_variables)
                )
        self._objective = objective
        self._instance = self._current_instance()
        self._rebuild_bounder()

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve_under(
        self,
        assumptions: Sequence[int] = (),
        *,
        upper_bound: Optional[int] = None,
    ) -> SolveResult:
        """One call: solve the current instance under ``assumptions``.

        ``assumptions`` are literals asserted (as decision levels) before
        the search branches; an UNSATISFIABLE result then carries
        ``result.core``, an assumption prefix sufficient for the
        contradiction (empty tuple: unsatisfiable regardless).
        ``upper_bound`` imports an incumbent cost known from elsewhere
        (offset included) to tighten pruning — the WBO front end's
        warm-start hint.
        """
        self._ensure_idle()
        self._in_call = True
        solver = BsoloSolver(self._instance, self._options, session=self)
        try:
            if upper_bound is not None and solver.set_upper_bound(upper_bound):
                # Bound-conflict clauses learned under an imported bound
                # are relative to it, not to the instance: taint the call
                # from the start so none of them outlive it.
                self.on_solve_local(self.propagator)
            result = solver.solve(list(assumptions))
        finally:
            self._end_call()
        self.stats.calls += 1
        self.stats.conflicts += solver.stats.conflicts
        self.stats.decisions += solver.stats.decisions
        return result

    def solve(self) -> SolveResult:
        """Convenience: :meth:`solve_under` with no assumptions."""
        return self.solve_under(())

    # ------------------------------------------------------------------
    # Solver-protocol hooks (called by BsoloSolver in session mode)
    # ------------------------------------------------------------------
    def on_solve_local(self, propagator) -> None:
        """Mark the temporal taint point: snapshot the learned
        constraints that may survive this call (everything learned later
        is incumbent/hint-dependent and solve-local).  Idempotent — only
        the first mark per call counts."""
        if self._taint_ids is not None:
            return
        retained = [
            stored
            for stored in propagator.database.constraints
            if stored.learned
        ]
        # Strong refs keep the ids stable until _end_call compares them.
        self._taint_refs = retained
        self._taint_ids = set(map(id, retained))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ensure_idle(self) -> None:
        """Reject reentrant mutation (e.g. from an incumbent callback)."""
        if self._in_call:
            raise RuntimeError(
                "session is inside solve_under(); mutate between calls"
            )

    def _current_instance(self) -> PBInstance:
        """Materialize base + frame constraints + current objective."""
        constraints = list(self._base_constraints)
        for frame in self._frames:
            constraints.extend(frame.constraints)
        return PBInstance(
            constraints,
            objective=self._objective,
            num_variables=self._num_variables,
            variable_names=self._variable_names,
        )

    def _rebuild_bounder(self) -> None:
        """(Re)build the bounder against the current instance.

        Structural changes (frame add, pop, new objective) invalidate
        the cached MIS partition wholesale; a rebuild is the honest
        invalidation.  The old trail feed is detached first so the trail
        stops updating dead deltas.
        """
        trail = self.propagator.trail
        if hasattr(self.bounder, "detach_trail"):
            self.bounder.detach_trail(trail)
        self.bounder = make_bounder(self._instance, self._options)
        if hasattr(self.bounder, "attach_trail"):
            self.bounder.attach_trail(trail)

    def _end_call(self) -> None:
        """Restore the between-calls invariant after a solve.

        Backtracks to the (empty) root, discards the solve-local learned
        tail (everything past the taint point), then frame-tags the
        surviving new clauses with the current depth so a later
        :meth:`pop` can remove exactly the ones that depended on popped
        frames.
        """
        propagator = self.propagator
        propagator.backtrack(0)
        if self._taint_ids is not None:
            retain = self._taint_ids
            removed = propagator.reduce_learned(
                lambda stored: id(stored) in retain
            )
            self.stats.learned_discarded += removed
            self._taint_ids = None
            self._taint_refs = None
        depth = len(self._frames) - 1
        present: Dict[int, object] = {}
        for stored in propagator.database.constraints:
            if stored.learned and id(stored) not in self.protected_ids:
                present[id(stored)] = stored
        for key in list(self._learned_tags):
            if key not in present:
                # Clause garbage collection dropped it mid-call.
                del self._learned_tags[key]
        for key, stored in present.items():
            if key not in self._learned_tags:
                self._learned_tags[key] = (stored, depth)
        self.stats.learned_retained = len(self._learned_tags)
        self._in_call = False


def make_session(
    instance: PBInstance, options: Optional[SolverOptions] = None
) -> SolverSession:
    """Factory mirroring :func:`repro.api.make_solver` for sessions."""
    return SolverSession(instance, options)

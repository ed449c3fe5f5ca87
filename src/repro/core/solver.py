"""bsolo: hybrid branch-and-bound / SAT-based PBO solver (the paper's tool).

The search is a conflict-driven DPLL over pseudo-boolean constraints
(boolean constraint propagation, first-UIP learning, non-chronological
backtracking) extended with branch-and-bound pruning:

* every complete assignment updates the incumbent ``P.upper`` and
  triggers the Section 5 cuts (knapsack eq. 10, cardinality eq. 11-13);
* at the nodes the bound schedule picks (:mod:`repro.core.bound_schedule`)
  a lower bound ``P.lower`` is estimated (MIS / Lagrangian relaxation /
  LP relaxation, Section 3) and the node is pruned when
  ``P.path + P.lower >= P.upper`` (eq. 7);
* pruning learns the bound-conflict clause ``w_bc`` (Section 4) and
  backtracks non-chronologically through the ordinary conflict-analysis
  machinery;
* with LPR the fractional LP solution guides branching (Section 5).

The optimum is proven when the search exhausts (a conflict that does not
depend on any decision).
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.activity import VSIDSActivity
from ..engine.conflict import ConflictAnalyzer, RootConflictError, highest_level
from ..engine.constraint_db import StoredConstraint
from ..engine.propagation import Propagator
from ..lagrangian.subgradient import LagrangianBound
from ..lp.relaxation import LowerBound, LPRelaxationBound
from ..mis.independent_set import MISBound
from ..obs.events import (
    BackjumpEvent,
    ConflictEvent,
    CutEvent,
    DecisionEvent,
    LowerBoundEvent,
    ProgressEvent,
)
from ..pb.constraints import Constraint
from ..pb.instance import PBInstance
from .bound_conflicts import (
    bound_conflict_clause,
    lower_bound_explanation,
    path_explanation,
)
from .branching import Brancher
from .cuts import CutGenerator
from .bound_schedule import AdaptiveSchedule
from .options import LGR, LPR, MIS, PLAIN, SolverOptions
from .preprocess import probe_necessary_assignments
from .result import OPTIMAL, SATISFIABLE, SolveResult, SolveRun, UNSATISFIABLE

logger = logging.getLogger("repro.bsolo")

#: Main-loop iterations between polls of the deadline and the
#: cooperative hooks (``should_stop``/``external_bound``).
_POLL_INTERVAL = 16

#: Subgradient iterations per Lagrangian bound call (Section 3.2).
_LGR_ITERATIONS = 60

#: Simplex pivot cap per node LP (Section 3.3).
_LP_MAX_ITERATIONS = 3000


def make_bounder(instance: PBInstance, options: SolverOptions):
    """Build the bounder for ``options.lower_bound``.

    Shared between one-shot solves and incremental sessions (which
    rebuild their bounder whenever the constraint set or objective
    changes structurally).  None for ``plain`` or a constant objective
    (nothing to bound).
    """
    method = options.lower_bound
    if method == PLAIN or instance.objective.is_constant:
        return None
    if method == MIS:
        return MISBound(instance)
    if method == LGR:
        return LagrangianBound(instance, max_iterations=_LGR_ITERATIONS)
    return LPRelaxationBound(instance, max_iterations=_LP_MAX_ITERATIONS)


class BsoloSolver:
    """One-shot solver for a :class:`~repro.pb.instance.PBInstance`.

    With ``session=`` (internal; see :class:`repro.incremental.SolverSession`)
    the solver runs one *call* of a persistent session instead: the
    propagation engine, VSIDS activity, bound-schedule state and the
    bounder are borrowed from the session rather than built, constraints
    are assumed to be loaded already, and the search runs entirely above
    a *guard decision level* so that no assignment ever becomes a
    permanent level-0 fact (level 0 must stay empty between calls for
    ``push``/``pop`` to be able to undo everything).  Assumptions are
    then asserted as decision levels (MiniSat style) instead of root
    assignments, which keeps learned clauses sound across calls: conflict
    analysis drops level-0 literals, so a level-0 assumption would taint
    every clause learned under it.
    """

    name = "bsolo"

    #: The façade checks this before forwarding ``assumptions=``;
    #: baselines without it raise ``UnsupportedOptionError`` instead of
    #: silently ignoring the literals.
    supports_assumptions = True

    def __init__(
        self,
        instance: PBInstance,
        options: Optional[SolverOptions] = None,
        *,
        session=None,
    ):
        self._instance = instance
        self._options = options or SolverOptions()
        self._objective = instance.objective
        #: The incumbent, the hooks and the instruments; the metrics
        #: registry gets the solve's counts once, when ``solve()`` ends.
        self._run = SolveRun(self.name, instance.objective, self._options)
        self.stats = self._run.stats
        self._tracer = self._run.tracer
        self._timer = self._run.timer
        self._session = session
        #: Decision level the search can never backtrack below: 0 for
        #: one-shot solves, 1 (the guard level) for session calls.
        self._root_level = 0 if session is None else 1

        if session is not None:
            # Borrow the session's persistent state: engine (constraints
            # pre-loaded), activity, bound-schedule state and the
            # (already trail-attached) bounder survive across calls.
            self._propagator = session.propagator
            self._activity = session.activity
            self._schedule = session.schedule
            self._bounder = session.bounder
        else:
            self._propagator = Propagator(instance.num_variables)
            self._activity = VSIDSActivity(
                instance.num_variables, decay=self._options.vsids_decay
            )
            self._bounder = make_bounder(instance, self._options)
            self._schedule = AdaptiveSchedule()
        # One analyzer per solver: its flat seen-buffer is reused across
        # every conflict (sized to the trail, which sessions extend by a
        # guard variable).
        self._analyzer = ConflictAnalyzer(self._propagator.trail.num_variables)
        self._brancher = Brancher(
            self._activity,
            lp_guided=self._options.lp_guided_branching
            and self._options.lower_bound == LPR,
        )
        self._cut_generator = CutGenerator(
            instance, cardinality_cuts=self._options.cardinality_cuts
        )
        if session is None and hasattr(self._bounder, "attach_trail"):
            # Feed trail deltas to a bounder that can exploit them (the
            # incremental MIS cache).
            self._bounder.attach_trail(self._propagator.trail)
        #: id(cut source) -> the one engine row holding its cut; the
        #: eq. 10 knapsack cut's source is None.  Keyed by identity:
        #: ``Constraint`` hashes structurally.
        self._live_cuts: Dict[int, StoredConstraint] = {}
        self._lp_values: Dict[int, float] = {}
        #: Proof logger (:class:`repro.certify.ProofLogger`) or None.
        #: Under proof every learned constraint, cut and bound prune is
        #: recorded with a certificate the logger self-checks first; a
        #: prune whose certificate fails is declined (sound — the search
        #: merely continues), counted in ``stats.uncertified_prunes``.
        self._proof = self._options.proof
        self._assumptions: List[int] = []
        #: Literals bound ahead of time through ``set_assumptions`` (the
        #: registry path); used when ``solve()`` gets none of its own.
        self._preset_assumptions: Optional[List[int]] = None
        #: Session calls: assumption prefix responsible for an
        #: UNSATISFIABLE outcome (an unminimized core).
        self._assumption_core: Optional[Tuple[int, ...]] = None
        #: Most recent lower-bound estimate (path + bound), for progress.
        self._last_lower: Optional[int] = None
        self._next_progress = self._options.progress_interval

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(self, assumptions: Optional[Sequence[int]] = None) -> SolveResult:
        """Run the search to completion or until a budget expires.

        ``assumptions`` are literals asserted at the root before search:
        the result is then relative to the instance *plus* those facts
        (an UNSATISFIABLE outcome means "unsatisfiable under the
        assumptions").
        """
        self._run.begin()
        self._totals_at_start = self._running_totals()
        if assumptions is None:
            assumptions = self._preset_assumptions
        self._assumptions = list(assumptions or [])
        result = self._search()
        self._finalize_proof(result)
        counts = {
            key: total - self._totals_at_start[key]
            for key, total in self._running_totals().items()
        }
        self.stats.propagations = counts["propagations"]
        self._collect_lb_stats()
        logger.debug("solve finished: %r (%s)", result, self.stats)
        return self._run.close(result, counts)

    def set_assumptions(self, literals: Sequence[int]) -> None:
        """Bind assumption literals ahead of :meth:`solve` — the registry
        constructors' first-class ``assumptions=`` path.  A later
        ``solve(assumptions=...)`` call overrides the preset."""
        self._preset_assumptions = list(literals)

    def set_upper_bound(self, cost: int) -> bool:
        """Inform the search that a solution of ``cost`` (offset
        included) exists elsewhere — the portfolio incumbent protocol.

        Tightens the pruning threshold when ``cost`` beats everything
        known locally; any now-dominated local incumbent is dropped (its
        witnessing model lives with whoever published the bound).
        Returns True when the bound actually tightened.
        """
        if self._proof is not None:
            # An imported bound has no derivation the proof could replay;
            # ignoring it keeps the emitted certificate self-contained.
            return False
        return self._run.import_bound(cost)

    def _running_totals(self) -> Dict[str, int]:
        """What the engine and the bounder have counted so far.

        A session call shares both with earlier calls, so :meth:`solve`
        reads these totals at both ends and reports the difference.
        """
        engine = self._propagator
        totals = {
            "propagations": engine.num_propagations,
            "propagate_calls": engine.num_propagate_calls,
        }
        bounder = self._bounder
        if isinstance(bounder, MISBound):
            totals["mis_hits"] = bounder.cache_hits
            totals["mis_misses"] = bounder.cache_misses
        elif isinstance(bounder, LPRelaxationBound):
            totals["lp_pivots"] = bounder.total_iterations
        return totals

    def _collect_lb_stats(self) -> None:
        if self._bounder is None:
            self.stats.lb_stats = {}
            return
        self.stats.lb_stats = {
            self._bounder.name: self._bounder.stats_dict(),
            "scheduler": self._schedule.stats_dict(),
        }

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _search(self) -> SolveResult:
        self._timer.push("preprocess")
        try:
            early = self._setup_root()
        finally:
            self._timer.pop()
        if early is not None:
            return early
        return self._main_loop()

    def _setup_root(self) -> Optional[SolveResult]:
        """The root set-up of every one-shot solve, proof or not: load
        the rows, propagate, assert the assumptions, probe.  A returned
        result means the search never starts (root conflict)."""
        propagator = self._propagator
        if self._session is not None:
            # Session call: constraints are already attached to the
            # persistent engine (probing is forced off by the session: it
            # asserts permanent level-0 facts, which must not exist
            # between calls).  Open the guard level, then re-queue every
            # constraint: the root implications discovered last call were
            # undone by the end-of-call backtrack(0) and the engine's
            # propagate is demand-driven.
            for literal in self._assumptions:
                var = literal if literal > 0 else -literal
                if var > self._instance.num_variables or var < 1:
                    raise ValueError("assumption literal %d out of range" % literal)
            propagator.decide(self._session.guard_var)
            propagator.reschedule_all()
            return None
        proof = self._proof
        if proof is not None:
            proof.start(self._instance)
        for constraint in self._instance.constraints:
            conflict = propagator.add_constraint(constraint)
            if conflict is not None:  # pragma: no cover - instance rejects these
                return self._finish()
        if propagator.propagate() is not None:
            return self._finish()
        for literal in self._assumptions:
            var = literal if literal > 0 else -literal
            if var > self._instance.num_variables or var < 1:
                raise ValueError("assumption literal %d out of range" % literal)
            if proof is not None:
                # Logged before asserting so a root conflict among the
                # assumptions is already visible to the checker; the
                # final claim becomes conditional on these axioms.
                proof.log_assumption(literal)
            if propagator.trail.is_assigned(var):
                if not propagator.trail.literal_is_true(literal):
                    return self._finish()
                continue
            propagator.assume(literal)
            if propagator.propagate() is not None:
                return self._finish()

        if self._options.preprocess:
            preprocess = probe_necessary_assignments(propagator)
            self.stats.necessary_assignments = len(preprocess.necessary_literals)
            if proof is not None:
                # Each necessary literal (in discovery order) is RUP:
                # probing found it by unit propagation, which the checker
                # replays identically.
                for literal in preprocess.necessary_literals:
                    proof.log_rup((literal,))
            if preprocess.unsatisfiable:
                return self._finish()
        return None

    def _main_loop(self) -> SolveResult:
        propagator = self._propagator
        timer = self._timer
        tracer = self._tracer
        profiling = timer.enabled
        options = self._options
        polling = (
            options.time_limit is not None
            or options.should_stop is not None
            or options.external_bound is not None
        )
        # The first poll comes on the first iteration, so a budget that
        # expired during set-up stops the search before it starts.
        countdown = 1
        while True:
            if (
                options.max_conflicts is not None
                and self.stats.conflicts > options.max_conflicts
            ):
                return self._run.result(False)
            if polling:
                countdown -= 1
                if not countdown:
                    countdown = _POLL_INTERVAL
                    outcome = self._poll()
                    if outcome is not None:
                        return outcome

            if profiling:
                timer.push("propagate")
            conflict = propagator.propagate()
            if profiling:
                timer.pop()
            if conflict is not None:
                self.stats.logic_conflicts += 1
                if tracer.enabled:
                    tracer.emit(
                        ConflictEvent(
                            type="logic", level=propagator.trail.decision_level
                        )
                    )
                if profiling:
                    timer.push("analyze")
                resolved = self._resolve(conflict.literals)
                if profiling:
                    timer.pop()
                self._maybe_progress()
                if not resolved:
                    return self._finish()
                self._maybe_reduce_learned()
                continue

            if self._session is not None and self._assumptions:
                # Assumptions-as-decision-levels: assert the next pending
                # assumption before branching (and before treating a full
                # trail as a solution — a falsified assumption ends the
                # call).  Whenever an assumption is still unassigned there
                # are no free decisions above it, so a false assumption
                # literal is *entailed* false by the database plus the
                # earlier assumptions: the prefix up to and including it
                # is a valid (unminimized) core.
                pending = None
                trail = propagator.trail
                for position, literal in enumerate(self._assumptions):
                    if trail.literal_is_true(literal):
                        continue
                    if trail.literal_is_false(literal):
                        self._assumption_core = tuple(
                            self._assumptions[: position + 1]
                        )
                        return self._finish()
                    pending = literal
                    break
                if pending is not None:
                    propagator.decide(pending)
                    continue

            if propagator.trail.all_assigned():
                outcome = self._on_solution()
                if outcome is not None:
                    return outcome
                continue

            if self._bounder is not None and self._schedule.should_bound():
                pruned, exhausted = self._apply_lower_bound()
                self._schedule.record(pruned)
                if pruned:
                    self._maybe_progress()
                if exhausted:
                    return self._finish()
                if pruned:
                    continue

            if profiling:
                timer.push("branching")
            literal = self._brancher.pick(propagator.trail, self._lp_values)
            if profiling:
                timer.pop()
            if literal is None:  # pragma: no cover - all_assigned handles this
                return self._finish()
            self.stats.decisions += 1
            if (
                options.max_decisions is not None
                and self.stats.decisions > options.max_decisions
            ):
                return self._run.result(False)
            if tracer.enabled:
                tracer.emit(
                    DecisionEvent(
                        literal=literal,
                        level=propagator.trail.decision_level + 1,
                    )
                )
            propagator.decide(literal)

    # ------------------------------------------------------------------
    # Deadline and cooperative hooks (portfolio protocol)
    # ------------------------------------------------------------------
    def _poll(self) -> Optional[SolveResult]:
        """Check the deadline, the interrupt and the bound-import hooks;
        a returned result ends the search (time is up, stop requested,
        or the imported bound proved the remaining search space
        empty).

        An imported bound generates the Section 5 cuts, exactly as a
        locally found solution does: the imported incumbent prunes
        through propagation, not just through the bound comparison.
        """
        run = self._run
        if run.stopped():
            return run.result(False)
        if run.poll_bound() and self._options.upper_bound_cuts:
            keyed = self._incumbent_cuts()
            if keyed is None:
                return self._finish()
            self._install_cuts(keyed)
        return None

    # ------------------------------------------------------------------
    # Periodic progress (callback + trace heartbeat)
    # ------------------------------------------------------------------
    def _maybe_progress(self) -> None:
        """Fire ``on_progress``/emit a progress event every N conflicts."""
        if self.stats.conflicts < self._next_progress:
            return
        self._next_progress = self.stats.conflicts + self._options.progress_interval
        self.stats.progress_reports += 1
        # on_progress is the only reader of the count during search
        self.stats.propagations = (
            self._propagator.num_propagations
            - self._totals_at_start["propagations"]
        )
        run = self._run
        best = run.upper + self._objective.offset if run.model is not None else None
        if self._options.on_progress is not None:
            self._options.on_progress(self.stats, best, self._last_lower)
        if self._tracer.enabled:
            self._tracer.emit(
                ProgressEvent(
                    conflicts=self.stats.conflicts,
                    decisions=self.stats.decisions,
                    best=best,
                    lower=self._last_lower,
                )
            )

    # ------------------------------------------------------------------
    # Lower bounding (Sections 3-4)
    # ------------------------------------------------------------------
    def _apply_lower_bound(self) -> Tuple[bool, bool]:
        """Estimate ``P.lower``; prune on a bound conflict.

        A node is pruned when its bound meets the incumbent (eq. 7) or
        its relaxation is infeasible; both prunes learn ``w_bc`` from
        the rows the bound names (:meth:`_bound_clause`).
        Returns ``(pruned, search_exhausted)``.
        """
        trail = self._propagator.trail
        tracer = self._tracer
        bound, fixed, path = self._compute_bound()
        self.stats.lower_bound_calls += 1
        if bound.infeasible:
            pruned = True
        else:
            if bound.fractional:
                self._lp_values = bound.fractional
            self._last_lower = path + bound.value
            pruned = path + bound.value >= self._run.upper
        if tracer.enabled:
            tracer.emit(
                LowerBoundEvent(
                    method=self._bounder.name,
                    value=bound.value,
                    path=path,
                    level=trail.decision_level,
                    infeasible=bound.infeasible,
                    pruned=pruned,
                )
            )
        if not pruned:
            return False, False
        learning = self._options.bound_conflict_learning
        bound_clause = (
            self._bound_clause(bound, fixed)
            if learning or self._proof is not None
            else None
        )
        if learning:
            clause = bound_clause
        else:
            # Chronological variant: blame every decision on the path.
            # It is certified through w_bc: once the bound clause is in
            # the proof database, asserting all decisions replays the
            # trail and violates it.
            clause = tuple(
                -trail.decision_at(level)
                for level in range(1, trail.decision_level + 1)
            )
        if not self._certify_bound_clause(bound_clause, bound, clause):
            self.stats.uncertified_prunes += 1
            return False, False
        self.stats.bound_conflicts += 1
        if not bound.infeasible:
            self.stats.prunings += 1
        if tracer.enabled:
            tracer.emit(ConflictEvent(type="bound", level=trail.decision_level))
        self._timer.push("analyze")
        resolved = self._resolve(clause)
        self._timer.pop()
        return True, not resolved

    def _bound_clause(
        self, bound: LowerBound, fixed: Dict[int, int]
    ) -> Tuple[int, ...]:
        """``w_bc`` (Section 4.1) of a prune.

        An infeasible relaxation is explained by ``w_pl`` alone, over
        the rows it names: no completion is feasible at any cost, so
        the path cost (``w_pp``) plays no part.  A value prune takes
        ``w_pp`` with ``w_pl``, refined by LGR's alpha.
        """
        trail = self._propagator.trail
        if bound.infeasible:
            return tuple(lower_bound_explanation(bound.explanation, trail))
        return bound_conflict_clause(
            self._objective,
            trail,
            bound.explanation,
            self._alpha_refinement(bound, fixed),
        )

    # ------------------------------------------------------------------
    # Proof-mode certificates (see repro.certify)
    # ------------------------------------------------------------------
    def _certify_bound_clause(
        self,
        bound_clause: Optional[Tuple[int, ...]],
        bound: LowerBound,
        clause: Tuple[int, ...],
    ) -> bool:
        """Log a certificate for ``bound_clause`` (w_bc) and, when the
        learned ``clause`` differs (chronological mode), the RUP step
        deriving it.  An infeasible prune is certified by its rows'
        multipliers alone, a value prune by MIS cost accounting or by
        its multipliers with the improvement axiom.  Before the first
        incumbent ``P.upper`` is ``max_value + 1``, above every
        completion's cost, so a value prune's multipliers are then a
        Farkas ray of the node and certify it without the axiom (which
        does not exist yet).  True means the prune may proceed; always
        True outside proof mode."""
        proof = self._proof
        if proof is None:
            return True
        with self._timer.phase("proof"):
            if self._bounder.name == MIS and not bound.infeasible:
                trail = self._propagator.trail
                path_vars = [
                    var
                    for var, cost in self._objective.costs.items()
                    if cost > 0 and trail.value(var) == 1
                ]
                logged = proof.log_bound_mis(
                    bound_clause, path_vars, bound.explanation
                )
            else:
                logged = proof.log_bound_linear(
                    bound_clause,
                    list(bound.duals_by_row.items()),
                    with_axiom=not bound.infeasible
                    and self._run.model is not None,
                )
            if not logged:
                return False
            if tuple(clause) != tuple(bound_clause):
                proof.log_rup(clause)
        return True

    def _compute_bound(self) -> Tuple[LowerBound, Dict[int, int], int]:
        """Estimate the node's lower bound: ``(bound, fixed, path)``.

        The bound's inputs, the partial assignment ``fixed`` and its
        ``path`` cost, exist only for the bound, so they are built
        inside the ``lower_bound.<method>`` phase.
        """
        timer = self._timer
        timer.push("lower_bound." + self._bounder.name)
        try:
            fixed = self._propagator.trail.assignment()
            path = self._objective.path_cost(fixed)
            if isinstance(self._bounder, LagrangianBound):
                target = max(float(self._run.upper - path), 1.0)
                bound = self._bounder.compute(fixed, upper_target=target)
            else:
                bound = self._bounder.compute(fixed)
            return bound, fixed, path
        finally:
            timer.pop()

    def _alpha_refinement(
        self, bound: LowerBound, fixed: Dict[int, int]
    ) -> Optional[Dict[int, float]]:
        if not (
            self._options.lgr_alpha_refinement
            and isinstance(self._bounder, LagrangianBound)
            and bound.duals_by_row
        ):
            return None
        return self._bounder.alpha_of_assigned(fixed, bound.duals_by_row)

    # ------------------------------------------------------------------
    # Solutions and cuts (Section 5)
    # ------------------------------------------------------------------
    def _on_solution(self) -> Optional[SolveResult]:
        assignment = self._propagator.model()
        if self._session is not None:
            # The guard variable is search scaffolding, not part of the
            # instance: results, callbacks and cuts see real variables.
            assignment.pop(self._session.guard_var, None)
        cost = self._objective.path_cost(assignment)
        # Without the eq. 10 cut the search can reach non-improving
        # solutions; the incumbent only ever tightens.
        improved = cost < self._run.upper
        if improved:
            if self._proof is not None:
                # The 'o' step doubles as the derivation of the eq. 10
                # improvement axiom the later steps build on.
                self._proof.log_solution(
                    [
                        var if value else -var
                        for var, value in sorted(assignment.items())
                    ]
                )
            self._run.improve(assignment, cost)

        if self._objective.is_constant:
            # A satisfaction instance is solved by its first model.
            return self._finish()

        if self._session is not None:
            # Everything learned from here on depends on the incumbent
            # (eq. 10/11-13 cuts, w_pp, and every clause resolved against
            # them) and is therefore solve-local: the session snapshots
            # the currently retainable learned set and discards the rest
            # at end of call.  Constraints learned *before* the first
            # solution are implied by the instance plus the active frames
            # (no incumbent-dependent constraint existed yet) and may be
            # kept across calls.
            self._session.on_solve_local(self._propagator)

        keyed = None
        if improved and self._options.upper_bound_cuts:
            keyed = self._incumbent_cuts()
            if keyed is None:
                return self._finish()

        # The solution node itself is now bound-conflicting
        # (path >= upper): learn w_pp and continue the search.  The cuts
        # go in after its backjump, so the next propagate reports a cut
        # still violated there as an ordinary logic conflict.
        clause = tuple(path_explanation(self._objective, self._propagator.trail))
        if self._proof is not None:
            # RUP: negating w_pp sets every costed path variable to 1,
            # which violates the current improvement axiom.
            self._proof.log_rup(clause)
        self._timer.push("analyze")
        resolved = self._resolve(clause)
        self._timer.pop()
        if not resolved:
            return self._finish()
        if keyed is not None:
            self._install_cuts(keyed)
        return None

    def _incumbent_cuts(
        self,
    ) -> Optional[List[Tuple[Optional[Constraint], Constraint]]]:
        """The Section 5 cuts for the incumbent ``P.upper``, keyed by
        source (see :meth:`CutGenerator.cuts`); None when eq. 12 proves
        the incumbent optimal.  Under proof, each eq. 13 cut is logged
        and one the logger cannot certify is left out."""
        proof = self._proof
        self._timer.push("cuts")
        keyed, proven_source = self._cut_generator.cuts(self._run.upper)
        self._timer.pop()
        if proven_source is not None:
            # Eq. 12's V alone reaches the bound: incumbent optimal.
            # Under proof the unsatisfiable eq. 13 cut is the
            # certificate (it contradicts the checker's database).
            if proof is None or proof.log_proven_cut(proven_source):
                return None
            self.stats.uncertified_prunes += 1
        if proof is None:
            return keyed
        # The knapsack cut (eq. 10) IS the improvement axiom the 'o'
        # step derived, so it needs no proof step of its own.
        with self._timer.phase("proof"):
            return [
                (source, cut)
                for source, cut in keyed
                if source is None or proof.log_cardinality_cut(source, cut)
            ]

    def _install_cuts(
        self, keyed: List[Tuple[Optional[Constraint], Constraint]]
    ) -> None:
        """Swap each source's new cut into its one live engine row.

        A source's cut keeps its support from round to round and its rhs
        only tightens, so the new cut dominates the old one: the engine
        tightens the row in place instead of stacking a row per
        incumbent.  The rows are queued, so the next propagate finds
        each implication and any violation.  The relaxations never read
        the cuts: the prune test compares their bound with ``P.upper``.
        """
        propagator = self._propagator
        live = self._live_cuts
        tracer = self._tracer
        # Session calls flag cuts as learned so the end-of-call cleanup
        # can delete them (they are incumbent-relative).
        learned = self._session is not None
        self._timer.push("cuts")
        for source, cut in keyed:
            key = id(source)
            live[key] = propagator.replace_constraint(
                live.get(key), cut, learned=learned
            )
            self.stats.cuts_added += 1
            if tracer.enabled:
                tracer.emit(CutEvent(size=len(cut)))
        self._timer.pop()

    # ------------------------------------------------------------------
    # Conflict resolution (logic conflicts and bound conflicts alike)
    # ------------------------------------------------------------------
    def _resolve(self, literals: Sequence[int]) -> bool:
        """Learn from a set of false literals; False = search exhausted."""
        trail = self._propagator.trail
        if not literals:
            return False
        level = highest_level(literals, trail)
        if level <= self._root_level:
            # One-shot solves: a level-0 conflict means the search space
            # is exhausted.  Session calls: level 0 is empty and the
            # guard variable appears in no constraint, so every guard
            # level implication is entailed by the database alone — a
            # conflict entirely at the guard level is a database-level
            # contradiction, exhausted all the same.
            return False
        if level < trail.decision_level:
            # Bound-conflict clauses may not touch the deepest levels:
            # rewind to the highest responsible level first (Section 4.1).
            self._propagator.backtrack(level)
        try:
            analysis = self._analyzer.analyze(literals, trail)
        except RootConflictError:
            return False
        self._activity.bump_all(analysis.seen_variables)
        self._activity.decay()
        self.stats.record_backjump(level, analysis.backtrack_level)
        self.stats.resolution_steps += analysis.resolution_steps
        if self._tracer.enabled:
            self._tracer.emit(
                BackjumpEvent(
                    from_level=level,
                    to_level=analysis.backtrack_level,
                    learned_size=len(analysis.learned_literals),
                )
            )
        # Session calls clamp the backjump to the guard level: asserting
        # literals then land at level 1 (implied by the learned clause)
        # instead of becoming permanent level-0 facts that pop() could
        # never undo.  The conflict level is > root_level here, so the
        # asserting literal is always unassigned after the backjump.
        self._propagator.backtrack(
            max(analysis.backtrack_level, self._root_level)
        )
        learned = Constraint.clause(analysis.learned_literals)
        if self._proof is not None:
            # First-UIP clauses are RUP against the proof database: the
            # checker's propagation has the same strength as the engine's
            # and every constraint the analysis touched is in the log.
            with self._timer.phase("proof"):
                self._proof.log_rup(analysis.learned_literals)
        conflict = self._propagator.add_constraint(learned, learned=True)
        self.stats.learned_constraints += 1
        if conflict is not None:  # pragma: no cover - learned clause asserts
            return self._resolve(conflict.literals)
        if analysis.asserting_literal is not None:
            self._propagator.imply(
                analysis.asserting_literal, analysis.learned_literals
            )
        return True

    def _maybe_reduce_learned(self) -> None:
        """Forget old, long learned clauses above the configured cap."""
        limit = self._options.max_learned
        if limit is None:
            return
        database = self._propagator.database
        if database.num_learned() <= limit:
            return
        indices = sorted(
            stored.index
            for stored in database.constraints
            if stored.learned and len(stored.constraint) > 2
        )
        if not indices:
            return
        cutoff = indices[len(indices) // 2]
        # Session frame constraints ride in the database as learned (so
        # pop() can delete them) but must never be garbage-collected.
        # Nor may a live cut row, which session calls flag as learned
        # for the end-of-call cleanup: it is its source's only row.
        protected = (
            self._session.protected_ids if self._session is not None else None
        )
        live = {id(stored) for stored in self._live_cuts.values()}
        self._propagator.reduce_learned(
            lambda stored: (protected is not None and id(stored) in protected)
            or id(stored) in live
            or len(stored.constraint) <= 2
            or stored.index > cutoff
        )

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------
    def _finalize_proof(self, result: SolveResult) -> None:
        """Emit the contradiction and final-claim steps, then flush.

        OPTIMAL and UNSATISFIABLE both rest on the proof database now
        propagating to a root conflict (for OPTIMAL, under the incumbent
        improvement axiom); SATISFIABLE rests on the verified incumbent
        alone, and a budget/interrupt exit claims nothing.
        """
        proof = self._proof
        if proof is None:
            return
        with self._timer.phase("proof"):
            if result.status == OPTIMAL:
                proof.log_contradiction()
                proof.log_end("optimal", result.best_cost)
            elif result.status == SATISFIABLE:
                proof.log_end("satisfiable", result.best_cost)
            elif result.status == UNSATISFIABLE:
                proof.log_contradiction()
                proof.log_end("unsatisfiable")
            else:
                proof.log_end("unknown")
            proof.close()

    def _finish(self) -> SolveResult:
        """The search is exhausted: the run's answer (see
        :meth:`SolveRun.result`)."""
        core: Optional[Tuple[int, ...]] = None
        if self._session is not None:
            # A falsified assumption yields its prefix as the core; pure
            # exhaustion happened at the guard level, i.e. independent of
            # the assumptions: the empty core.
            core = (
                self._assumption_core
                if self._assumption_core is not None
                else ()
            )
        return self._run.result(True, core)


def solve(instance: PBInstance, options: Optional[SolverOptions] = None) -> SolveResult:
    """Convenience wrapper: build a solver and run it."""
    return BsoloSolver(instance, options).solve()

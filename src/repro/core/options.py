"""Configuration for the bsolo solver.

The option set mirrors the paper's experimental matrix: the lower bound
method is one of ``plain`` (none), ``mis``, ``lgr``, ``lpr`` (Table 1
columns), and the additional techniques of Sections 4-5 can be toggled
individually for the ablation benchmarks.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

#: Lower bound method names (Table 1 column labels).
PLAIN = "plain"
MIS = "mis"
LGR = "lgr"
LPR = "lpr"

_METHODS = (PLAIN, MIS, LGR, LPR)


class UnsupportedOptionError(ValueError):
    """A feature was requested from a solver that cannot honor it.

    Raised uniformly by the façade layers (``repro.api``, the sessions,
    the WBO front end) instead of silently ignoring the request — e.g.
    ``assumptions=`` passed to a baseline without assumption support, or
    ``proof=`` passed to an incremental session.
    """


#: The fields that may be None: no budget, no learned-row cap.
_OPTIONAL_NUMBERS = frozenset(
    ("time_limit", "max_conflicts", "max_decisions", "max_learned")
)


def _check_number(name: str, value: Any, kind: type, low: Optional[int]) -> None:
    """Raise unless ``value`` is an ``int`` (or, for ``kind`` float, an
    int or a float) of at least ``low``; a bool is no number here.  The
    budgets and the learned-row cap may also be None."""
    if value is None and name in _OPTIONAL_NUMBERS:
        return
    types = (int, float) if kind is float else (int,)
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(
            "%s must be %s, got %r"
            % (name, "a number" if kind is float else "an integer", value)
        )
    if low is not None and value < low:
        raise ValueError("%s must be >= %d, got %r" % (name, low, value))


class SolverOptions:
    """All tunables of :class:`~repro.core.solver.BsoloSolver`."""

    def __init__(
        self,
        lower_bound: str = LPR,
        bound_conflict_learning: bool = True,
        upper_bound_cuts: bool = True,
        cardinality_cuts: bool = True,
        lp_guided_branching: bool = True,
        lgr_alpha_refinement: bool = True,
        preprocess: bool = True,
        time_limit: Optional[float] = None,
        max_conflicts: Optional[int] = None,
        max_decisions: Optional[int] = None,
        vsids_decay: float = 0.95,
        max_learned: Optional[int] = 20000,
        tracer=None,
        profile: bool = False,
        metrics=None,
        on_progress=None,
        progress_interval: int = 1000,
        on_incumbent=None,
        external_bound=None,
        should_stop=None,
        proof=None,
    ):
        if lower_bound not in _METHODS:
            raise ValueError(
                "lower_bound must be one of %s, got %r" % (_METHODS, lower_bound)
            )
        for name, value in (
            ("bound_conflict_learning", bound_conflict_learning),
            ("upper_bound_cuts", upper_bound_cuts),
            ("cardinality_cuts", cardinality_cuts),
            ("lp_guided_branching", lp_guided_branching),
            ("lgr_alpha_refinement", lgr_alpha_refinement),
            ("preprocess", preprocess),
            ("profile", profile),
        ):
            if not isinstance(value, bool):
                raise TypeError("%s must be a bool, got %r" % (name, value))
        for name, value, kind, low in (
            ("time_limit", time_limit, float, 0),
            ("max_conflicts", max_conflicts, int, 0),
            ("max_decisions", max_decisions, int, 0),
            ("vsids_decay", vsids_decay, float, None),
            ("max_learned", max_learned, int, 0),
            ("progress_interval", progress_interval, int, 1),
        ):
            _check_number(name, value, kind, low)
        if not 0.0 < vsids_decay <= 1.0:
            raise ValueError("vsids_decay must be in (0, 1], got %r" % vsids_decay)
        if proof is not None and external_bound is not None:
            raise ValueError(
                "proof logging is incompatible with external_bound: an "
                "imported bound has no derivation the checker could replay"
            )
        #: Which lower bound estimation procedure to run (Section 3), at
        #: the nodes :mod:`repro.core.bound_schedule` picks.
        self.lower_bound = lower_bound
        #: Learn w_bc and backtrack non-chronologically on bound conflicts
        #: (Section 4).  When False, bound conflicts backtrack
        #: chronologically over the full decision path (the
        #: "straightforward approach" of Section 4.1).
        self.bound_conflict_learning = bound_conflict_learning
        #: Add the knapsack constraint (eq. 10) on each improved solution.
        self.upper_bound_cuts = upper_bound_cuts
        #: Infer constraints from cardinality constraints (eq. 11-13).
        self.cardinality_cuts = cardinality_cuts
        #: Branch on the most fractional LP variable, VSIDS ties
        #: (Section 5); only effective with lower_bound == "lpr".
        self.lp_guided_branching = lp_guided_branching
        #: Apply the Section 4.3 alpha_j refinement to Lagrangian
        #: explanations.
        self.lgr_alpha_refinement = lgr_alpha_refinement
        #: Probing for necessary assignments before search (Section 6).
        self.preprocess = preprocess
        #: Wall-clock budget in seconds (None = unlimited).
        self.time_limit = time_limit
        #: Conflict budget (None = unlimited).
        self.max_conflicts = max_conflicts
        #: Decision budget (None = unlimited).
        self.max_decisions = max_decisions
        self.vsids_decay = vsids_decay
        #: Learned-clause cap; above it the oldest long clauses are
        #: forgotten (None = keep everything).
        self.max_learned = max_learned
        #: Trace sink (:class:`repro.obs.trace.Tracer`); None = no
        #: tracing, with zero per-event overhead (null-tracer path).
        self.tracer = tracer
        #: Collect per-phase wall times into ``stats.phase_times``.
        self.profile = profile
        #: Metrics registry (:class:`repro.obs.metrics.MetricsRegistry`);
        #: None = no metrics.  The solve's counts reach it once, when
        #: ``solve()`` ends; the search itself touches no instrument.
        self.metrics = metrics
        #: Periodic callback ``(stats, best, lower) -> None`` fired every
        #: ``progress_interval`` conflicts; ``best`` is the incumbent cost
        #: (offset included, None before the first solution) and ``lower``
        #: the most recent lower-bound estimate ``path + bound`` (None
        #: before the first bound call).
        self.on_progress = on_progress
        self.progress_interval = progress_interval
        #: Incumbent callback ``(cost, assignment) -> None`` fired on
        #: every improving solution (cost includes the objective offset).
        #: The portfolio runner uses this to publish incumbents to the
        #: other workers.
        self.on_incumbent = on_incumbent
        #: Cooperative bound import: a zero-argument callable returning
        #: the best cost known *outside* this solver (offset included),
        #: or None.  Polled every few search steps (bsolo: every 16); a
        #: value below the current upper bound tightens it exactly as if
        #: a solution of that cost had been found locally (eq. 10 cuts
        #: are generated from the imported bound too).
        self.external_bound = external_bound
        #: Cooperative interrupt: a zero-argument callable returning True
        #: when the solver should stop and report its best-so-far (the
        #: portfolio runner passes ``Event.is_set``).  Polled together
        #: with ``external_bound``.
        self.should_stop = should_stop
        #: Proof sink (:class:`repro.certify.ProofLogger`); when set the
        #: solver records a checkable cutting-planes derivation of its
        #: answer (see ``docs/PROOFS.md``).  Proof mode only records the
        #: search, with one exception: every bound certificate is
        #: self-checked first, and a prune whose certificate fails is
        #: declined (the search continues below the node) and counted in
        #: ``stats.uncertified_prunes``.
        self.proof = proof

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """JSON-safe scalar knobs, for trace run headers."""
        return {
            "lower_bound": self.lower_bound,
            "bound_conflict_learning": self.bound_conflict_learning,
            "upper_bound_cuts": self.upper_bound_cuts,
            "cardinality_cuts": self.cardinality_cuts,
            "lp_guided_branching": self.lp_guided_branching,
            "lgr_alpha_refinement": self.lgr_alpha_refinement,
            "preprocess": self.preprocess,
            "time_limit": self.time_limit,
            "max_conflicts": self.max_conflicts,
            "max_decisions": self.max_decisions,
            "vsids_decay": self.vsids_decay,
            "max_learned": self.max_learned,
            "profile": self.profile,
            "progress_interval": self.progress_interval,
        }

    # ------------------------------------------------------------------
    def as_kwargs(self) -> Dict[str, Any]:
        """Every constructor argument with its current value (callbacks
        and tracer included), suitable for ``SolverOptions(**kwargs)``."""
        kwargs = self.describe()
        kwargs.update(
            tracer=self.tracer,
            metrics=self.metrics,
            on_progress=self.on_progress,
            on_incumbent=self.on_incumbent,
            external_bound=self.external_bound,
            should_stop=self.should_stop,
            proof=self.proof,
        )
        return kwargs

    def replace(self, **overrides) -> "SolverOptions":
        """A copy of these options with some fields overridden."""
        kwargs = self.as_kwargs()
        unknown = set(overrides) - set(kwargs)
        if unknown:
            raise TypeError(
                "unknown option(s): %s" % ", ".join(sorted(unknown))
            )
        kwargs.update(overrides)
        return SolverOptions(**kwargs)

    # ------------------------------------------------------------------
    @classmethod
    def plain(cls, **kwargs) -> "SolverOptions":
        """bsolo with no lower bounding (Table 1 column "plain")."""
        return cls(lower_bound=PLAIN, **kwargs)

    @classmethod
    def with_mis(cls, **kwargs) -> "SolverOptions":
        """Options preset: MIS lower bounding (Section 3.1)."""
        return cls(lower_bound=MIS, **kwargs)

    @classmethod
    def with_lgr(cls, **kwargs) -> "SolverOptions":
        """Options preset: Lagrangian-relaxation bounding (Section 3.2)."""
        return cls(lower_bound=LGR, **kwargs)

    @classmethod
    def with_lpr(cls, **kwargs) -> "SolverOptions":
        """Options preset: LP-relaxation bounding (Section 3.3)."""
        return cls(lower_bound=LPR, **kwargs)

    def __repr__(self) -> str:
        return "SolverOptions(lower_bound=%r)" % self.lower_bound

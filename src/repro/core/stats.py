"""Search statistics collected by the solvers, and their one way into a
metrics registry (:func:`record_metrics`)."""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional


class SolverStats:
    """Counters describing one solve run."""

    def __init__(self):
        #: Branching decisions made.
        self.decisions = 0
        #: Logic conflicts (violated constraints).
        self.logic_conflicts = 0
        #: Bound conflicts (path + lower >= upper, paper Section 4).
        self.bound_conflicts = 0
        #: Implications discovered by propagation during this run (a
        #: session call counts only its own, though its engine persists).
        self.propagations = 0
        #: Lower bound estimations performed.
        self.lower_bound_calls = 0
        #: Nodes pruned by the bound's value (``path + lower >= upper``).
        #: The rest of ``bound_conflicts`` are prunes on an infeasible
        #: relaxation.
        self.prunings = 0
        #: Learned clauses (logic + bound).
        self.learned_constraints = 0
        #: Cutting-plane resolvents learned (the galena baseline).
        self.pb_resolvents = 0
        #: Section 5 cuts installed from improved solutions, one per cut
        #: per improvement.  bsolo keeps one engine row per cut source
        #: and tightens it, so this is not the number of rows stored.
        self.cuts_added = 0
        #: Solutions found that improved the upper bound.
        self.solutions_found = 0
        #: Sum over conflicts of (conflict level - backjump level); the
        #: excess over 1 measures non-chronological jumps.
        self.backjump_total = 0
        #: Largest single backjump.
        self.backjump_max = 0
        #: Necessary assignments found by preprocessing.
        self.necessary_assignments = 0
        #: Variables resolved away during conflict analysis (first-UIP
        #: resolution steps; a proxy for analysis effort).
        self.resolution_steps = 0
        #: Periodic progress reports fired (callback and/or trace).
        self.progress_reports = 0
        #: Times an external (portfolio-shared) incumbent tightened the
        #: upper bound of this solver mid-search.
        self.external_bounds = 0
        #: Bound prunes declined in proof mode because no emitted
        #: certificate survived the logger's exact-arithmetic self-check.
        self.uncertified_prunes = 0
        #: The cooperative-interrupt hook ended the search early.
        self.interrupted = False
        #: Wall-clock seconds spent in solve().
        self.elapsed = 0.0
        #: Exclusive per-phase wall time (propagate / analyze /
        #: lower_bound.* / branching / cuts / preprocess); populated only
        #: when profiling is enabled, and sums to <= elapsed.
        self.phase_times: Dict[str, float] = {}
        #: Per-bounder detail (calls / iterations / seconds), keyed by
        #: lower-bound method name.  A session call reports its session's
        #: totals so far: the bounders and the adaptive schedule persist
        #: across calls.
        self.lb_stats: Dict[str, Dict[str, float]] = {}

    @property
    def conflicts(self) -> int:
        """Total conflicts of both kinds."""
        return self.logic_conflicts + self.bound_conflicts

    def record_backjump(self, from_level: int, to_level: int) -> None:
        """Track a non-chronological backtrack of ``from - to`` levels."""
        jump = from_level - to_level
        self.backjump_total += jump
        if jump > self.backjump_max:
            self.backjump_max = jump

    def add(self, other: Mapping[str, Any]) -> None:
        """Fold another run's :meth:`as_dict` into these stats.

        Counters and ``elapsed`` add, ``backjump_max`` takes the max and
        ``phase_times`` add per phase.  ``interrupted`` and ``lb_stats``
        are left alone: whether they combine depends on how the runs
        relate.
        """
        for name in _SUMMED_FIELDS:
            setattr(self, name, getattr(self, name) + (other.get(name) or 0))
        self.backjump_max = max(self.backjump_max, other.get("backjump_max") or 0)
        for phase, seconds in (other.get("phase_times") or {}).items():
            self.phase_times[phase] = self.phase_times.get(phase, 0.0) + seconds

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot (``phase_times`` / ``lb_stats`` are
        nested dicts; everything else is a number)."""
        return {
            "decisions": self.decisions,
            "logic_conflicts": self.logic_conflicts,
            "bound_conflicts": self.bound_conflicts,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
            "lower_bound_calls": self.lower_bound_calls,
            "prunings": self.prunings,
            "learned_constraints": self.learned_constraints,
            "pb_resolvents": self.pb_resolvents,
            "cuts_added": self.cuts_added,
            "solutions_found": self.solutions_found,
            "backjump_total": self.backjump_total,
            "backjump_max": self.backjump_max,
            "necessary_assignments": self.necessary_assignments,
            "resolution_steps": self.resolution_steps,
            "progress_reports": self.progress_reports,
            "external_bounds": self.external_bounds,
            "uncertified_prunes": self.uncertified_prunes,
            "interrupted": self.interrupted,
            "elapsed": self.elapsed,
            "phase_times": dict(self.phase_times),
            "lb_stats": {key: dict(value) for key, value in self.lb_stats.items()},
        }

    def __repr__(self) -> str:
        return (
            "SolverStats(decisions=%d, conflicts=%d+%d, lb_calls=%d, elapsed=%.3fs)"
            % (
                self.decisions,
                self.logic_conflicts,
                self.bound_conflicts,
                self.lower_bound_calls,
                self.elapsed,
            )
        )


#: The fields :meth:`SolverStats.add` sums: every number but ``backjump_max``.
_SUMMED_FIELDS = tuple(
    name
    for name, value in vars(SolverStats()).items()
    if type(value) in (int, float) and name != "backjump_max"
)


def record_metrics(
    registry,
    counts: Mapping[str, int],
    stats: Optional[SolverStats] = None,
) -> None:
    """Add one solve's counts to ``registry`` when the solve ends.

    The solvers count into :class:`SolverStats`, their engine and their
    bounders only; this is the one place those counts reach a
    :class:`~repro.obs.metrics.MetricsRegistry`, so it owns the name,
    help text and labels of every counter family.  ``stats`` feeds the
    ``solver_*`` families.  ``counts`` holds what the engine and the
    bounders counted during this solve: ``propagations``,
    ``propagate_calls``, ``mis_hits``/``mis_misses`` and ``lp_pivots``.
    A family is recorded only when its source is given, so the registry
    lists the families of the parts that ran.  ``registry`` None records
    nothing.
    """
    if registry is None:
        return
    counter = registry.counter
    if stats is not None:
        conflicts = counter("solver_conflicts", "Conflicts by type", labels=("type",))
        conflicts.labels(type="logic").inc(stats.logic_conflicts)
        conflicts.labels(type="bound").inc(stats.bound_conflicts)
        counter("solver_decisions", "Branching decisions").inc(stats.decisions)
        counter("solver_cuts", "Cutting constraints added (Section 5)").inc(
            stats.cuts_added
        )
        counter("solver_prunings", "Nodes pruned by the lower bound's value").inc(
            stats.prunings
        )
        counter(
            "solver_uncertified_prunes",
            "Prunes declined because no certificate could be logged",
        ).inc(stats.uncertified_prunes)
        counter("solver_incumbents", "Improving solutions found").inc(
            stats.solutions_found
        )
    if "propagations" in counts:
        counter("engine_propagations", "Implications discovered by BCP").inc(
            counts["propagations"]
        )
        counter(
            "engine_propagate_calls", "Calls to the propagation fixed-point loop"
        ).inc(counts["propagate_calls"])
    if "mis_hits" in counts:
        cache = counter(
            "mis_cache", "MIS constraint-state cache outcomes", labels=("outcome",)
        )
        cache.labels(outcome="hit").inc(counts["mis_hits"])
        cache.labels(outcome="miss").inc(counts["mis_misses"])
    if "lp_pivots" in counts:
        counter("lp_pivots", "Simplex pivots performed by the LP bounder").inc(
            counts["lp_pivots"]
        )

"""Solve outcomes, and the one run envelope every solver reports through."""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from ..obs.events import IncumbentEvent, ResultEvent, RunHeaderEvent
from ..obs.timers import NULL_TIMER, PhaseTimer
from ..obs.trace import NULL_TRACER
from ..pb.objective import Objective
from .options import SolverOptions
from .stats import SolverStats, record_metrics

#: The search proved the reported solution optimal.
OPTIMAL = "optimal"
#: Pure satisfaction instance: a model was found.
SATISFIABLE = "satisfiable"
#: No solution exists.
UNSATISFIABLE = "unsatisfiable"
#: A budget (time/conflicts/decisions) expired; ``best_cost`` is the
#: incumbent upper bound, the paper's "ub N" table entries.
UNKNOWN = "unknown"


class SolveResult:
    """Result of a PBO solve."""

    __slots__ = (
        "status",
        "best_cost",
        "best_assignment",
        "stats",
        "solver_name",
        "violated_soft",
        "core",
    )

    def __init__(
        self,
        status: str,
        best_cost: Optional[int] = None,
        best_assignment: Optional[Dict[int, int]] = None,
        stats: Optional[SolverStats] = None,
        solver_name: str = "",
        violated_soft: Optional[Tuple[int, ...]] = None,
        core: Optional[Tuple[int, ...]] = None,
    ):
        self.status = status
        #: Objective value of the best solution found (offset included);
        #: None when no solution was found.
        self.best_cost = best_cost
        self.best_assignment = best_assignment
        self.stats = stats or SolverStats()
        self.solver_name = solver_name
        #: For WBO solves: indices of the soft constraints the reported
        #: solution violates (``None`` for ordinary PBO results).
        self.violated_soft = violated_soft
        #: For UNSATISFIABLE session solves under assumptions: assumption
        #: literals sufficient for the contradiction (an unminimized
        #: core; empty tuple = unsatisfiable regardless of assumptions).
        #: ``None`` whenever a solution exists or no session was involved.
        self.core = core

    @property
    def model(self) -> Optional[Dict[int, int]]:
        """Canonical name for the best assignment (``{var: 0/1}``); may
        be None even for a known ``best_cost`` when the witnessing
        solution was found by *another* portfolio worker."""
        return self.best_assignment

    @property
    def cost(self) -> Optional[int]:
        """Normalized cost accessor: the objective value for PBO solves
        and the total violation cost for WBO solves (both are
        ``best_cost``; this name is the shape shared by the WBO front
        end and the session API)."""
        return self.best_cost

    @property
    def is_optimal(self) -> bool:
        """True when the search proved its incumbent optimal."""
        return self.status == OPTIMAL

    @property
    def solved(self) -> bool:
        """Did the run finish conclusively (paper's "#Solved" row)."""
        return self.status in (OPTIMAL, SATISFIABLE, UNSATISFIABLE)

    def table_entry(self) -> str:
        """Render like Table 1: a time is printed by the harness for
        solved runs; unsolved optimization runs show "ub N"."""
        if self.solved:
            return self.status
        if self.best_cost is not None:
            return "ub %d" % self.best_cost
        return "time"

    def __repr__(self) -> str:
        return "SolveResult(%s, best_cost=%r)" % (self.status, self.best_cost)


class SolveRun:
    """One solve's envelope: its instruments, hooks, incumbent and answer.

    Every registered solver keeps its incumbent here and ends its solve
    through :meth:`result` and :meth:`close`, so each solver holds only
    its search.  The incumbent lives on the *path-cost scale* (objective
    offset excluded): ``upper`` is the paper's ``P.upper``
    (``max_value + 1`` before any solution), ``model`` the local model
    witnessing it, and ``imported`` the cost (offset included) of a
    better solution known only through ``external_bound`` or
    :meth:`import_bound`, whose model lives with whoever published it.

    ``strategy`` names a baseline's search in the trace header; bsolo
    passes none and its header carries ``options.describe()``.
    """

    def __init__(
        self,
        name: str,
        objective: Objective,
        options: SolverOptions,
        strategy: Optional[str] = None,
    ):
        self.name = name
        self._objective = objective
        self._options = options
        self._strategy = strategy
        tracer = options.tracer
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: The only clock inside the search (with ``profile``).
        self.timer = PhaseTimer() if options.profile else NULL_TIMER
        self.stats = SolverStats()
        #: Monotonic time from which :meth:`stopped` is True.
        self.deadline: Optional[float] = None
        self._start = 0.0
        self.upper = objective.max_value + 1
        self.model: Optional[Dict[int, int]] = None
        self.imported: Optional[int] = None

    def begin(self) -> None:
        """Start the clock and the deadline and emit the run header."""
        self._start = time.monotonic()
        time_limit = self._options.time_limit
        if time_limit is not None:
            self.deadline = self._start + time_limit
        tracer = self.tracer
        if tracer.enabled:
            if self._strategy is None:
                header = self._options.describe()
            else:
                header = {"strategy": self._strategy}
            tracer.emit(
                RunHeaderEvent(
                    solver=self.name,
                    instance=getattr(tracer, "instance_label", ""),
                    options=header,
                )
            )

    def stopped(self) -> bool:
        """True once the deadline has passed or ``should_stop`` asks to
        stop; the latter also sets ``stats.interrupted``."""
        if self.deadline is not None and time.monotonic() >= self.deadline:
            return True
        should_stop = self._options.should_stop
        if should_stop is not None and should_stop():
            self.stats.interrupted = True
            return True
        return False

    def budgets(self) -> Tuple[Optional[int], Optional[int]]:
        """What is left of ``max_conflicts`` and ``max_decisions`` (None:
        no cap), for a search the solver resumes or restarts mid-solve."""
        options = self._options
        stats = self.stats
        conflicts = options.max_conflicts
        decisions = options.max_decisions
        return (
            None if conflicts is None else conflicts - stats.conflicts,
            None if decisions is None else decisions - stats.decisions,
        )

    def poll_bound(self) -> bool:
        """Import the ``external_bound`` hook's cost; True when it
        tightened ``upper``."""
        hook = self._options.external_bound
        if hook is None:
            return False
        cost = hook()
        return cost is not None and self.import_bound(cost)

    def import_bound(self, cost: int) -> bool:
        """Adopt a solution of ``cost`` (offset included) found elsewhere
        when it beats ``upper``: the now-dominated local model is dropped.
        True when the bound tightened; a constant objective has nothing
        to tighten."""
        objective = self._objective
        path_cost = cost - objective.offset
        if objective.is_constant or path_cost >= self.upper:
            return False
        self.upper = path_cost
        self.imported = cost
        self.model = None
        self.stats.external_bounds += 1
        return True

    def improve(self, model: Dict[int, int], cost: int) -> None:
        """Record ``model`` of path cost ``cost`` (below ``upper``) as the
        incumbent, and announce it to the tracer and ``on_incumbent``."""
        self.upper = cost
        self.model = model
        stats = self.stats
        stats.solutions_found += 1
        reported = cost + self._objective.offset
        if self.tracer.enabled:
            self.tracer.emit(
                IncumbentEvent(
                    cost=reported,
                    decisions=stats.decisions,
                    conflicts=stats.conflicts,
                )
            )
        on_incumbent = self._options.on_incumbent
        if on_incumbent is not None:
            on_incumbent(reported, dict(model))

    def result(
        self, exhausted: bool, core: Optional[Tuple[int, ...]] = None
    ) -> SolveResult:
        """The answer rule.

        An exhausted search proves the local model optimal (satisfying,
        for a constant objective), else the imported cost optimal, else
        the instance unsatisfiable, which alone carries ``core``.  A
        search stopped early is UNKNOWN with the best cost known.
        """
        model = self.model
        if model is not None:
            cost: Optional[int] = self.upper + self._objective.offset
        else:
            cost = self.imported
        if not exhausted:
            status = UNKNOWN
        elif model is not None:
            status = SATISFIABLE if self._objective.is_constant else OPTIMAL
        elif cost is not None:
            status = OPTIMAL
        else:
            status = UNSATISFIABLE
        return SolveResult(
            status,
            best_cost=cost,
            best_assignment=model,
            stats=self.stats,
            solver_name=self.name,
            core=core if status == UNSATISFIABLE else None,
        )

    def close(
        self, result: SolveResult, counts: Optional[Dict[str, int]] = None
    ) -> SolveResult:
        """End the run: elapsed and phase times into ``stats``, the counts
        into the metrics registry (see :func:`record_metrics`), and the
        result record to the tracer.  Returns ``result``."""
        stats = self.stats
        stats.elapsed = time.monotonic() - self._start
        stats.phase_times = self.timer.snapshot()
        record_metrics(self._options.metrics, counts or {}, stats)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                ResultEvent(
                    status=result.status,
                    cost=result.best_cost,
                    decisions=stats.decisions,
                    conflicts=stats.conflicts,
                )
            )
            tracer.flush()
        return result

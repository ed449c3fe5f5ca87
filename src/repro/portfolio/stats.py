"""Aggregated statistics for a portfolio run.

:class:`PortfolioStats` extends the per-solver :class:`SolverStats` so a
portfolio result plugs into everything that already consumes stats (the
CLI's ``--stats``/``--stats-json``, the experiments' JSONL records, the
obs reports): the base counters hold the *sum over workers* — total
search effort bought with the wall-clock time in ``elapsed`` — and the
``portfolio`` section of :meth:`as_dict` holds the per-worker outcomes,
the incumbent-exchange traffic and the failure log.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.stats import SolverStats


class PortfolioStats(SolverStats):
    """Sum-over-workers counters plus portfolio-level accounting."""

    def __init__(self):
        super().__init__()
        #: One entry per worker: label, solver, outcome, timings, and the
        #: worker's own stats dict (or an ``error`` string on failure).
        self.workers: List[Dict[str, Any]] = []
        #: Incumbent messages received by the coordinator.
        self.incumbents_shared = 0
        #: Workers that crashed, were terminated, or died silently.
        self.failures = 0
        #: Label of the worker whose result became the portfolio's.
        self.winner: Optional[str] = None

    # ------------------------------------------------------------------
    def add_worker_result(self, label: str, solver: str, status: str,
                          cost: Optional[int], seconds: float,
                          stats_dict: Dict[str, Any],
                          obs: Optional[Dict[str, Any]] = None) -> None:
        """Record one worker's completed run.

        ``obs`` is the optional observability payload shipped back with
        the result (per-worker trace path, event count, and metrics
        snapshot); the trace fields land in the worker entry so reports
        can point at the raw per-worker files.
        """
        entry = {
            "label": label,
            "solver": solver,
            "status": status,
            "cost": cost,
            "seconds": round(seconds, 6),
            "stats": stats_dict,
        }
        if obs:
            if obs.get("trace_path"):
                entry["trace_path"] = obs["trace_path"]
                entry["trace_events"] = obs.get("trace_events", 0)
        self.workers.append(entry)
        self.add(stats_dict)

    def add_worker_failure(self, label: str, solver: str, error: str) -> None:
        """Record a worker that crashed instead of returning."""
        self.failures += 1
        self.workers.append(
            {
                "label": label,
                "solver": solver,
                "status": "failed",
                "error": error,
            }
        )

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Solver stats extended with the per-worker portfolio block."""
        data = super().as_dict()
        data["portfolio"] = {
            "workers": [dict(entry) for entry in self.workers],
            "incumbents_shared": self.incumbents_shared,
            "failures": self.failures,
            "winner": self.winner,
        }
        return data

    def __repr__(self) -> str:
        return "PortfolioStats(workers=%d, failures=%d, incumbents=%d, elapsed=%.3fs)" % (
            len(self.workers), self.failures, self.incumbents_shared, self.elapsed
        )

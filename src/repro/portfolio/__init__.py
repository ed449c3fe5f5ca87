"""Parallel portfolio solving (:class:`PortfolioSolver`).

Launches N diversified workers — bsolo under different lower-bounding
methods plus the baseline paradigms —
as separate processes, shares improving incumbents between them so every
worker can tighten its upper bound mid-search, enforces the run
deadline, and degrades gracefully when workers crash.

Typical use::

    from repro.portfolio import solve_portfolio

    result = solve_portfolio(instance, workers=4, time_limit=10.0)
    print(result.status, result.best_cost)
    print(result.stats.winner, result.stats.incumbents_shared)

Custom portfolios are lists of :class:`WorkerSpec`::

    from repro import SolverOptions
    from repro.portfolio import PortfolioSolver, WorkerSpec

    specs = [
        WorkerSpec("bsolo-lpr"),
        WorkerSpec("bsolo-mis", SolverOptions(vsids_decay=0.9)),
        WorkerSpec("linear-search"),
    ]
    result = PortfolioSolver(instance, specs=specs, time_limit=30.0).solve()
"""

from .runner import PortfolioSolver, solve_portfolio
from .specs import WorkerSpec, default_specs
from .stats import PortfolioStats

__all__ = [
    "PortfolioSolver",
    "PortfolioStats",
    "WorkerSpec",
    "default_specs",
    "solve_portfolio",
]

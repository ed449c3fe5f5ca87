"""Which search nodes estimate a lower bound.

The paper computes a lower bound at *every* search node (Section 3,
eq. 7).  :class:`AdaptiveSchedule` bounds every ``interval``-th
candidate node instead, with the interval driven by an exponentially
weighted prune rate: while bound calls keep pruning the interval halves
(down to every node); when they stop paying for themselves it doubles
(up to :data:`MAX_INTERVAL`), so deep dives through unprunable regions
stop paying the bound's cost at every node.  The schedule reads only
bound-call outcomes, never the clock, so the search tree does not
depend on the speed of the host.

Skipping a node never loses an optimum: a skipped node is simply not
pruned by the bound, and the search below it still exhausts.
``stats_dict`` is merged into ``SolverStats.lb_stats["scheduler"]``.
"""

from __future__ import annotations

from typing import Dict

#: EWMA smoothing for the prune rate (one bound call = one sample).
_EWMA_ALPHA = 0.15
#: Prune rate below which the interval grows, above which it shrinks.
_GROW_BELOW = 0.025
_SHRINK_ABOVE = 0.20
#: Largest interval between two bound calls.
MAX_INTERVAL = 64


class AdaptiveSchedule:
    """Prune-rate-driven interval between bound calls."""

    def __init__(self):
        self._interval = 1
        self._since_last = 0
        self._prune_rate = 0.5  # optimistic prior: bound early, learn fast
        self.skipped_nodes = 0
        self.interval_max = 1

    def should_bound(self) -> bool:
        """Called once per candidate node; True = compute a bound now."""
        self._since_last += 1
        if self._since_last < self._interval:
            self.skipped_nodes += 1
            return False
        self._since_last = 0
        return True

    def record(self, pruned: bool) -> None:
        """Feed one bound-call outcome back into the interval."""
        sample = 1.0 if pruned else 0.0
        self._prune_rate += _EWMA_ALPHA * (sample - self._prune_rate)
        if pruned or self._prune_rate >= _SHRINK_ABOVE:
            if self._interval > 1:
                self._interval //= 2
        elif self._prune_rate < _GROW_BELOW and self._interval < MAX_INTERVAL:
            self._interval *= 2
            self.interval_max = max(self.interval_max, self._interval)

    def stats_dict(self) -> Dict[str, float]:
        """Structured scheduling counters for ``SolverStats``."""
        return {
            "skipped_nodes": self.skipped_nodes,
            "interval": self._interval,
            "interval_max": self.interval_max,
            "prune_rate": round(self._prune_rate, 4),
        }

"""Phase timers: exclusive per-phase wall-time accounting.

A :class:`PhaseTimer` maintains a stack of named phases.  Time is
attributed *exclusively*: when a nested phase starts, the parent's
running segment is banked and the clock belongs to the child until it
pops.  Consequently ``sum(totals.values())`` never exceeds the wall
time spanned by the outermost phases — the invariant the profile
report relies on (phases must sum to at most ``stats.elapsed``).

The solver uses the conventional phase names::

    preprocess / propagate / analyze / branching / cuts
    lower_bound.mis / lower_bound.lgr / lower_bound.lpr

With profiling off the solver holds the shared :data:`NULL_TIMER`,
whose ``push``/``pop`` are no-ops.  The phase timer is the only clock
inside a solve: the bounders, the propagation engine and the metrics
registry keep none of their own, so a solve without ``profile`` reads
no clock but ``stats.elapsed`` and its deadline.
"""

from __future__ import annotations

import time
from typing import Dict, List


class _PhaseContext:
    """``with timer.phase("name"):`` support."""

    __slots__ = ("_timer", "_name")

    def __init__(self, timer: "PhaseTimer", name: str):
        self._timer = timer
        self._name = name

    def __enter__(self) -> None:
        self._timer.push(self._name)

    def __exit__(self, *exc) -> bool:
        self._timer.pop()
        return False


class PhaseTimer:
    """Stack-based exclusive phase timing."""

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        # [name, start-of-current-exclusive-segment]
        self._stack: List[List] = []
        #: phase name -> exclusive seconds (banked segments only).
        self.totals: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def push(self, name: str) -> None:
        """Enter a phase; suspends the enclosing phase's clock."""
        now = self._clock()
        stack = self._stack
        if stack:
            top = stack[-1]
            self.totals[top[0]] = self.totals.get(top[0], 0.0) + now - top[1]
        stack.append([name, now])

    def pop(self) -> str:
        """Leave the current phase; resumes the enclosing phase's clock."""
        now = self._clock()
        stack = self._stack
        if not stack:
            raise RuntimeError("PhaseTimer.pop() with no phase active")
        name, since = stack.pop()
        self.totals[name] = self.totals.get(name, 0.0) + now - since
        if stack:
            stack[-1][1] = now
        return name

    def phase(self, name: str) -> _PhaseContext:
        """Context-manager form of push/pop."""
        return _PhaseContext(self, name)

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Current phase-nesting depth."""
        return len(self._stack)

    def snapshot(self) -> Dict[str, float]:
        """Current totals, including the still-running top segment."""
        result = dict(self.totals)
        if self._stack:
            name, since = self._stack[-1]
            result[name] = result.get(name, 0.0) + self._clock() - since
        return result


class _NullContext:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class NullPhaseTimer:
    """No-op timer used when profiling is disabled."""

    enabled = False

    @property
    def totals(self) -> Dict[str, float]:
        """Always empty: the null timer records nothing."""
        return {}

    @property
    def depth(self) -> int:
        """Always 0: the null timer tracks no phases."""
        return 0

    def push(self, name: str) -> None:
        """No-op."""
        pass

    def pop(self) -> str:
        """No-op; returns an empty phase name."""
        return ""

    def phase(self, name: str) -> _NullContext:
        """No-op context manager."""
        return _NULL_CONTEXT

    def snapshot(self) -> Dict[str, float]:
        """Always empty: nothing is being timed."""
        return {}


#: Shared no-op instance: safe because it holds no state.
NULL_TIMER = NullPhaseTimer()

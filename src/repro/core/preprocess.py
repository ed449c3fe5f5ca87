"""Preprocessing: probing for necessary assignments (paper Section 6).

"The probing used in the constraint strengthening is also used to detect
necessary assignments during preprocessing."  We probe each literal at
decision level 0: if asserting it and propagating yields a conflict, its
complement is a *necessary assignment* (failed-literal rule).  When both
polarities fail the instance is unsatisfiable.

The probing loop re-runs until a fixed point because each necessary
assignment can enable new failures.
"""

from __future__ import annotations

from typing import List, Optional

from ..engine.propagation import Propagator


class PreprocessResult:
    """Outcome of the probing pass."""

    __slots__ = ("unsatisfiable", "necessary_literals", "probes")

    def __init__(
        self, unsatisfiable: bool, necessary_literals: List[int], probes: int
    ):
        self.unsatisfiable = unsatisfiable
        #: Literals asserted at level 0 (in discovery order).
        self.necessary_literals = necessary_literals
        #: Number of probe decisions performed.
        self.probes = probes


def probe_necessary_assignments(
    propagator: Propagator, max_rounds: int = 3
) -> PreprocessResult:
    """Failed-literal probing at the root level.

    The propagator must be at decision level 0 with propagation already
    at a fixed point.  On return it is again at level 0 with all
    discovered necessary assignments applied (unless unsatisfiable).
    """
    necessary: List[int] = []
    probes = 0
    for _ in range(max_rounds):
        changed = False
        for var in list(propagator.trail.unassigned_variables()):
            if propagator.trail.is_assigned(var):
                continue  # may have been fixed by an earlier probe
            failed_positive = _probe(propagator, var)
            probes += 1
            if propagator.trail.is_assigned(var):
                # probing the positive literal failed and asserted ~var
                necessary.append(-var)
                changed = True
                if failed_positive == "unsat":
                    return PreprocessResult(True, necessary, probes)
                continue
            failed_negative = _probe(propagator, -var)
            probes += 1
            if propagator.trail.is_assigned(var):
                necessary.append(var)
                changed = True
                if failed_negative == "unsat":
                    return PreprocessResult(True, necessary, probes)
        if not changed:
            break
    return PreprocessResult(False, necessary, probes)


def _probe(propagator: Propagator, literal: int) -> Optional[str]:
    """Try ``literal``; on conflict assert its complement at level 0.

    Returns "unsat" when the complement itself conflicts at the root.
    """
    propagator.decide(literal)
    conflict = propagator.propagate()
    propagator.backtrack(0)
    if conflict is None:
        return None
    propagator.assume(-literal)
    root_conflict = propagator.propagate()
    if root_conflict is not None:
        return "unsat"
    return "failed"


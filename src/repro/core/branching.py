"""Branching heuristics (paper Section 5).

With LPR lower bounding the LP solution informs branching: "branching is
restricted to variables for which the LP solution is not integer.  Of
these variables, the one closest to 0.5 is selected.  In the case more
than one variable has been assigned value 0.5, then the VSIDS heuristic
of Chaff is applied."  Without LP information the heuristic falls back to
plain VSIDS.

Phase selection: with a fractional LP value the literal is rounded
(``x > 0.5`` branches to 1 first); otherwise the cheap phase 0 is taken,
which keeps ``P.path`` low during minimization.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from ..engine.activity import VSIDSActivity
from ..engine.assignment import Trail

_FRACTIONAL_TOL = 1e-6
_TIE_TOL = 1e-6


class Brancher:
    """Chooses the next decision literal."""

    def __init__(
        self,
        activity: VSIDSActivity,
        lp_guided: bool = True,
    ):
        self._activity = activity
        self._lp_guided = lp_guided

    def pick(
        self,
        trail: Trail,
        lp_values: Optional[Mapping[int, float]] = None,
    ) -> Optional[int]:
        """The next decision literal, or None when everything is assigned."""
        unassigned = trail.unassigned_variables()
        if not unassigned:
            return None
        if self._lp_guided and lp_values:
            literal = self._pick_fractional(unassigned, lp_values)
            if literal is not None:
                return literal
        var = self._activity.best(unassigned)
        if var is None:  # pragma: no cover - unassigned is non-empty
            return None
        return -var  # phase 0: cheapest for minimization

    def _pick_fractional(
        self, unassigned: Iterable[int], lp_values: Mapping[int, float]
    ) -> Optional[int]:
        best_var: Optional[int] = None
        best_distance = 0.5 - _FRACTIONAL_TOL  # only truly fractional values
        ties = []
        for var in unassigned:
            value = lp_values.get(var)
            if value is None:
                continue
            if value < _FRACTIONAL_TOL or value > 1.0 - _FRACTIONAL_TOL:
                continue  # integer in the LP: not a branching candidate
            distance = abs(value - 0.5)
            if distance < best_distance - _TIE_TOL:
                best_var, best_distance = var, distance
                ties = [var]
            elif abs(distance - best_distance) <= _TIE_TOL:
                ties.append(var)
        if best_var is None:
            return None
        if len(ties) > 1:
            best_var = self._activity.best(ties) or best_var
        value = lp_values[best_var]
        # Round the LP value for the first phase.
        return best_var if value > 0.5 else -best_var

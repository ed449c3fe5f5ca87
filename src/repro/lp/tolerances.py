"""Shared floating-point tolerances for the bounding substrate.

Every bounder rounds a fractional relaxation value up to an integer and
every LP consumer classifies rows as tight/slack; historically each file
carried its own ``1e-6`` literal and nothing stopped the rounding guard
and the tight-row guard from drifting apart.  They must not: the
explanation set ``S`` (the tight rows) has to justify the *rounded*
bound, so the guard used when rounding and the one used when selecting
the rows both derive from the constants below.

``ROUND_EPS``
    Guard subtracted before ``ceil`` when rounding a relaxation value up
    to the integer bound (``ceil(z - ROUND_EPS)``): LP arithmetic noise
    of up to ``ROUND_EPS`` above an exact integer must not inflate the
    bound by one.

``TIGHT_TOL``
    A row with slack ``<= TIGHT_TOL`` counts as binding (the paper's set
    ``S``, Section 4.2).

``FEAS_TOL``
    Residual infeasibility tolerated by phase 1 of the simplex: an
    artificial-variable sum above this is reported INFEASIBLE.  LPR
    drops a node LP's Farkas ray entries at or below it, and the rest
    must cut off the 0-1 box by more than it.
"""

from __future__ import annotations

import math

ROUND_EPS = 1e-6
TIGHT_TOL = 1e-6
FEAS_TOL = 1e-6


def ceil_guarded(value: float, eps: float = ROUND_EPS) -> int:
    """``ceil(value)`` robust to float noise up to ``eps`` above an
    exact integer."""
    return int(math.ceil(value - eps))

"""Dense numpy simplex solvers, no LP library: one for node LPs, one general.

``solve_node_lp`` — the LP behind the paper's linear-programming relaxation
lower bound (Section 3.1), relaxing ``x in {0,1}`` to ``0 <= x <= 1``::

    minimize    c . x
    subject to  A x >= b,   0 <= x <= 1,   with c >= 0

``SimplexSolver`` / ``solve_lp`` — the general bounded-variable form, used
by the ``milp`` baseline::

    minimize    c . x
    subject to  A x  {>=, <=, =}  b     (row-wise senses)
                0 <= x_j <= u_j         (u_j may be +inf)

Both report primal values, row activities/slacks (used for the paper's
eq. 9 bound-conflict explanations), duals ``c_B B^-1`` (used by the linear
bound certificates of proof logging) and their pivot count.

Node LPs: a cold bounded dual simplex
-------------------------------------
With ``c >= 0``, ``x = 0`` with every surplus column basic is already dual
feasible, so the dual simplex starts there with no phase 1 and keeps no
state between calls.  The most infeasible basic row leaves; the entering
column has the smallest ratio ``|d_j| / |alpha_j|``, ties broken by the
largest ``|alpha_j|``.  An entering column may overshoot its box; the
next pivot repairs it like any other infeasible basic.  No eligible
entering column means the dual is unbounded: the LP is infeasible, and
the leaving row of ``B^-1`` is the Farkas ray that proves it.

General LPs: a two-phase primal simplex
---------------------------------------
* Surplus/slack columns turn every row into an equality; phase 1 adds one
  artificial column per row and minimizes their sum.  In phase 2 the
  artificials stay in the tableau *locked to the range [0, 0]* — the
  bounded ratio test then keeps them at zero and kicks them out of the
  basis on contact, which sidesteps the classical drive-out procedure.
* Dantzig pricing; reduced costs and basic values are maintained by
  rank-1 updates after each pivot and recomputed at every periodic
  refactorization.  The bounded ratio test is vectorized.
* ``milp`` keeps this solver so that the benchmark's reference answers
  share no LP code with the bound they check.  Its LPs on satisfaction
  instances (Table 1's acc rows) have ``c = 0``; there every dual ratio
  is zero and only tie-breaking would steer a dual simplex.

Shared by both
--------------
* The basis inverse is kept explicitly with product-form (eta) updates
  and refactorized every ``_REFACTOR_EVERY`` pivots, falling back to the
  pseudo-inverse when the basis is numerically singular.
* After ``_STALL_LIMIT`` pivots without progress, pricing switches to the
  smallest-index (Bland) rule, which guarantees termination.
* A numerical breakdown (``LinAlgError``) or the iteration cap ends the
  solve as ``ITERATION_LIMIT``; callers fall back to the trivial bound.
* ``SimplexSolver`` takes an optional ``should_stop`` callable, polled
  every ``_STOP_POLL_EVERY`` pivots; True ends the solve as ``STOPPED``.
  This is how the ``milp`` baseline honours its deadline inside a node;
  the module reads no clock itself.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

import numpy as np

from .tolerances import FEAS_TOL, TIGHT_TOL

#: Row senses.
GE = ">="
LE = "<="
EQ = "="

#: Solution statuses.
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"
STOPPED = "stopped"

_TOL = 1e-9
_STALL_LIMIT = 200  # pivots without progress before the smallest-index rule
_REFACTOR_EVERY = 60  # pivots between refactorizations of the basis inverse
_STOP_POLL_EVERY = 8  # pivots between polls of SimplexSolver's should_stop

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2


class LPResult:
    """Outcome of an LP solve."""

    __slots__ = (
        "status", "objective", "x", "duals", "activities", "slacks", "iterations", "ray"
    )

    def __init__(
        self, status, objective, x, duals, activities, slacks, iterations, ray=None
    ):
        #: One of OPTIMAL / INFEASIBLE / UNBOUNDED / ITERATION_LIMIT /
        #: STOPPED (``SimplexSolver``'s ``should_stop`` fired).
        self.status = status
        #: Optimal objective value (None unless OPTIMAL).
        self.objective = objective
        #: Structural variable values, numpy array of length n.
        self.x = x
        #: Dual value per row (y, from c_B B^-1), numpy array of length m.
        self.duals = duals
        #: Row activities ``A_i x``.
        self.activities = activities
        #: Row slacks: ``A_i x - b_i`` for >=, ``b_i - A_i x`` for <=, 0 for =.
        self.slacks = slacks
        #: Simplex iterations: pivots, plus the primal's bound flips, over
        #: both of its phases.
        self.iterations = iterations
        #: Farkas ray of an INFEASIBLE node LP (``solve_node_lp`` only):
        #: row multipliers ``y >= 0`` with ``y.b > sum_j max(0, (yA)_j)``,
        #: so no ``x`` in the box satisfies ``yA x >= y.b``.  None otherwise.
        self.ray = ray

    def tight_rows(self, tol: float = TIGHT_TOL) -> List[int]:
        """Indices of rows with (near-)zero slack — the binding constraints.

        These are the paper's set ``S`` (Section 4.2): the constraints that
        actually limit the relaxation value.
        """
        if self.slacks is None:
            return []
        return [i for i, s in enumerate(self.slacks) if s <= tol]

    def __repr__(self) -> str:
        return "LPResult(%s, objective=%r)" % (self.status, self.objective)


class SimplexSolver:
    """Reusable simplex solver for one LP instance."""

    def __init__(
        self,
        c: Sequence[float],
        A: Sequence[Sequence[float]],
        b: Sequence[float],
        senses: Sequence[str],
        upper: Optional[Sequence[float]] = None,
        max_iterations: int = 20000,
        should_stop: Optional[Callable[[], bool]] = None,
    ):
        self.c = np.asarray(c, dtype=float)
        self.A = np.asarray(A, dtype=float)
        if self.A.ndim != 2:
            self.A = self.A.reshape((len(b), -1))
        self.b = np.asarray(b, dtype=float)
        self.senses = list(senses)
        self.n = self.c.shape[0]
        self.m = self.b.shape[0]
        if self.A.shape != (self.m, self.n):
            raise ValueError("A must be %dx%d, got %r" % (self.m, self.n, self.A.shape))
        for sense in self.senses:
            if sense not in (GE, LE, EQ):
                raise ValueError("unknown sense %r" % sense)
        if upper is None:
            upper = [math.inf] * self.n
        self.upper = np.asarray(upper, dtype=float)
        if self.upper.shape != (self.n,):
            raise ValueError("upper bounds must have length %d" % self.n)
        if np.any(self.upper < 0):
            raise ValueError("upper bounds must be non-negative")
        self.max_iterations = max_iterations
        #: Nullary callable polled every ``_STOP_POLL_EVERY`` pivots;
        #: True ends the solve with status STOPPED.
        self.should_stop = should_stop
        self._iterations = 0
        self._basis: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def solve(self) -> LPResult:
        """Run the two-phase simplex; numerically-failed runs degrade to
        an unsolved LPResult instead of raising."""
        try:
            return self._solve()
        except np.linalg.LinAlgError:
            # Total numerical breakdown: report as an iteration-limit
            # outcome; callers fall back to the trivial bound.
            self._basis = None
            return LPResult(
                ITERATION_LIMIT, None, None, None, None, None, self._iterations
            )

    def _solve(self) -> LPResult:
        n, m = self.n, self.m
        # Build the extended tableau: structural | slack/surplus | artificial.
        num_slack = sum(1 for s in self.senses if s != EQ)
        total = n + num_slack + m
        T = np.zeros((m, total))
        T[:, :n] = self.A
        upper = np.full(total, math.inf)
        upper[:n] = self.upper
        lower = np.zeros(total)
        col = n
        self._slack_col = [-1] * m
        for i, sense in enumerate(self.senses):
            if sense == GE:
                T[i, col] = -1.0  # surplus
                self._slack_col[i] = col
                col += 1
            elif sense == LE:
                T[i, col] = 1.0  # slack
                self._slack_col[i] = col
                col += 1
        art_start = col
        status = np.full(total, _AT_LOWER, dtype=int)

        # Crash start: put each bounded structural variable at whichever
        # bound reduces the total >=-row residual (for covering-style LPs
        # this alone reaches feasibility and phase 1 becomes a no-op).
        sense_sign = np.array(
            [1.0 if s == GE else (-1.0 if s == LE else 0.0) for s in self.senses]
        )
        score = sense_sign @ self.A
        for j in range(n):
            if score[j] > 0 and math.isfinite(self.upper[j]) and self.upper[j] > 0:
                status[j] = _AT_UPPER

        start_x = np.where(status[:n] == _AT_UPPER, self.upper, 0.0)
        residual = self.b - self.A @ start_x
        basis: List[int] = []
        needs_artificial = False
        for i, sense in enumerate(self.senses):
            slack_col = self._slack_col[i]
            slack_feasible = (
                (sense == GE and residual[i] <= 0.0)
                or (sense == LE and residual[i] >= 0.0)
            )
            if slack_feasible:
                basis.append(slack_col)
                status[slack_col] = _BASIC
                T[i, art_start + i] = 1.0  # unused artificial, kept square
            else:
                T[i, art_start + i] = 1.0 if residual[i] >= 0 else -1.0
                basis.append(art_start + i)
                status[art_start + i] = _BASIC
                needs_artificial = True

        self._T = T
        self._upper = upper
        self._lower = lower
        self._status = status
        # int array: pivots index/assign it without list<->array copies
        self._basis = np.asarray(basis, dtype=np.intp)
        self._total = total
        self._art_start = art_start
        self._iterations = 0

        if needs_artificial:
            # Phase 1: minimize the artificial sum.
            phase1_cost = np.zeros(total)
            phase1_cost[art_start:] = 1.0
            outcome = self._optimize(phase1_cost)
            if outcome in (ITERATION_LIMIT, STOPPED):
                return self._result(outcome)
            phase1_value = self._objective_value(phase1_cost)
            if phase1_value > FEAS_TOL:
                return self._result(INFEASIBLE)
        # Phase 2: lock artificials into [0, 0] and minimize the real cost.
        self._upper[art_start:] = 0.0
        phase2_cost = np.zeros(total)
        phase2_cost[: self.n] = self.c
        outcome = self._optimize(phase2_cost)
        if outcome != OPTIMAL:
            return self._result(outcome)
        return self._result(OPTIMAL, cost=phase2_cost)

    # ------------------------------------------------------------------
    def _factorize(self) -> None:
        self._Binv = _inverse(self._T[:, self._basis])

    def _nonbasic_values(self) -> np.ndarray:
        values = np.where(self._status == _AT_UPPER, self._upper, self._lower)
        values[self._basis] = 0.0
        return values

    def _basic_values(self) -> np.ndarray:
        rhs = self.b - self._T @ self._nonbasic_values()
        return self._Binv @ rhs

    def _objective_value(self, cost: np.ndarray) -> float:
        values = np.where(self._status == _AT_UPPER, self._upper, self._lower)
        values[self._basis] = self._basic_values()
        return float(cost @ values)

    def _optimize(self, cost: np.ndarray) -> str:
        self._factorize()
        x_b = self._basic_values()
        # Full price once; every pivot below patches `reduced` with a
        # rank-1 row update (pivot row of the updated inverse times the
        # tableau) — the classic ``d -= d_j * alpha_r`` identity — so the
        # per-iteration ``c_B B^-1 T`` matmul disappears.  Refactor
        # points recompute from scratch, bounding numerical drift.
        y = cost[self._basis] @ self._Binv
        reduced = cost - y @ self._T
        stall = 0
        use_bland = False
        refactor_counter = 0
        should_stop = self.should_stop
        while True:
            if self._iterations >= self.max_iterations:
                return ITERATION_LIMIT
            if (
                should_stop is not None
                and self._iterations % _STOP_POLL_EVERY == 0
                and should_stop()
            ):
                return STOPPED
            self._iterations += 1
            refactor_counter += 1
            if refactor_counter >= _REFACTOR_EVERY:
                self._factorize()
                x_b = self._basic_values()
                y = cost[self._basis] @ self._Binv
                reduced = cost - y @ self._T
                refactor_counter = 0

            entering = self._pick_entering(reduced, use_bland)
            if entering is None:
                return OPTIMAL

            direction = 1.0 if self._status[entering] == _AT_LOWER else -1.0
            entering_reduced = reduced[entering]  # pre-pivot, for the stall test
            w = self._Binv @ self._T[:, entering]

            # Bounded ratio test (vectorized).
            t_max = self._upper[entering] - self._lower[entering]  # bound flip
            leaving = -1
            leaving_to_upper = False
            step = direction * w
            basis_arr = self._basis
            with np.errstate(divide="ignore", invalid="ignore"):
                floors = self._lower[basis_arr]
                down = np.where(step > _TOL, (x_b - floors) / step, np.inf)
                caps = self._upper[basis_arr]
                up = np.where(step < -_TOL, (caps - x_b) / (-step), np.inf)
            down_min = down.min() if down.size else math.inf
            up_min = up.min() if up.size else math.inf
            if down_min < t_max - _TOL and down_min <= up_min:
                # among (near-)ties pick the largest pivot for stability
                ties = np.nonzero(down <= down_min + 1e-9)[0]
                leaving = int(ties[np.abs(step[ties]).argmax()])
                leaving_to_upper = False
                t_max = down_min
            elif up_min < t_max - _TOL:
                ties = np.nonzero(up <= up_min + 1e-9)[0]
                leaving = int(ties[np.abs(step[ties]).argmax()])
                leaving_to_upper = True
                t_max = up_min
            if math.isinf(t_max):
                return UNBOUNDED
            t_max = max(t_max, 0.0)

            if leaving < 0:
                # Bound flip: entering jumps to its other bound.
                x_b -= direction * t_max * w
                self._status[entering] = (
                    _AT_UPPER if self._status[entering] == _AT_LOWER else _AT_LOWER
                )
            else:
                entering_value = (
                    self._lower[entering]
                    if self._status[entering] == _AT_LOWER
                    else self._upper[entering]
                ) + direction * t_max
                x_b -= direction * t_max * w
                leaving_var = int(self._basis[leaving])
                self._status[leaving_var] = _AT_UPPER if leaving_to_upper else _AT_LOWER
                self._basis[leaving] = entering
                self._status[entering] = _BASIC
                x_b[leaving] = entering_value
                self._eta_update(leaving, w)
                # Patch the reduced costs through the updated pivot row
                # instead of re-pricing next iteration.
                alpha_row = self._Binv[leaving] @ self._T
                reduced = reduced - reduced[entering] * alpha_row
                reduced[entering] = 0.0

            # Objective change = reduced cost * signed step (Dantzig
            # improvement test for the anti-cycling stall counter).
            if entering_reduced * direction * t_max < -1e-12:
                stall = 0
                use_bland = False
            else:
                stall += 1
                if stall > _STALL_LIMIT:
                    use_bland = True

    def _pick_entering(self, reduced: np.ndarray, use_bland: bool) -> Optional[int]:
        movable = self._upper > self._lower
        at_lower = (self._status == _AT_LOWER) & movable
        at_upper = (self._status == _AT_UPPER) & movable
        score = np.where(at_lower, -reduced, 0.0)
        score = np.where(at_upper, reduced, score)
        if use_bland:
            eligible = np.nonzero(score > _TOL)[0]
            return int(eligible[0]) if eligible.size else None
        j = int(score.argmax())
        return j if score[j] > _TOL else None

    def _eta_update(self, row: int, w: np.ndarray) -> None:
        if abs(w[row]) < 1e-12:  # pragma: no cover - defensive
            self._factorize()
            return
        _update_inverse(self._Binv, row, w)

    # ------------------------------------------------------------------
    def _result(self, status: str, cost: Optional[np.ndarray] = None) -> LPResult:
        if status != OPTIMAL:
            return LPResult(status, None, None, None, None, None, self._iterations)
        values = np.where(self._status == _AT_UPPER, self._upper, self._lower)
        values[self._basis] = self._basic_values()
        x = values[: self.n].copy()
        # Numerical clean-up: clamp into the box.
        finite = np.isfinite(self.upper)
        x[finite] = np.minimum(x[finite], self.upper[finite])
        x = np.maximum(x, 0.0)
        objective = float(self.c @ x)
        activities = self.A @ x
        slacks = np.zeros(self.m)
        for i, sense in enumerate(self.senses):
            if sense == GE:
                slacks[i] = activities[i] - self.b[i]
            elif sense == LE:
                slacks[i] = self.b[i] - activities[i]
        cost_full = np.zeros(self._total)
        cost_full[: self.n] = self.c
        duals = cost_full[self._basis] @ self._Binv
        return LPResult(
            OPTIMAL, objective, x, np.asarray(duals), activities, slacks, self._iterations
        )


def solve_lp(
    c: Sequence[float],
    A: Sequence[Sequence[float]],
    b: Sequence[float],
    senses: Sequence[str],
    upper: Optional[Sequence[float]] = None,
    max_iterations: int = 20000,
) -> LPResult:
    """One-shot convenience wrapper around :class:`SimplexSolver`."""
    return SimplexSolver(c, A, b, senses, upper, max_iterations).solve()


def solve_node_lp(
    c: Sequence[float],
    A: Sequence[Sequence[float]],
    b: Sequence[float],
    max_iterations: int = 20000,
) -> LPResult:
    """Solve a node LP ``min c.x, A x >= b, 0 <= x <= 1`` with ``c >= 0``.

    A cold bounded dual simplex from the all-surplus basis at ``x = 0``
    (see the module notes).  ``x`` is clamped to the box, ``slacks`` are
    ``A x - b``, ``duals`` are ``c_B B^-1`` (non-negative) and
    ``iterations`` counts pivots; an ``INFEASIBLE`` result carries its
    Farkas ``ray``.  Raises ``ValueError`` on a negative cost or
    mismatched shapes.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if c.ndim != 1 or b.ndim != 1 or A.shape != (b.shape[0], c.shape[0]):
        raise ValueError(
            "need c of length n, b of length m and A of shape (m, n); got %r, %r, %r"
            % (c.shape, b.shape, A.shape)
        )
    if (c < 0).any():
        raise ValueError("node LP costs must be non-negative")
    m, n = A.shape
    Binv = -np.eye(m)
    # Columns: structural x in [0, 1] | surplus s = A x - b >= 0.
    T = np.hstack((A, Binv))
    cost = np.concatenate((c, np.zeros(m)))
    basis = np.arange(n, n + m)
    # Per column: +1 nonbasic at 0, -1 nonbasic at 1, 0 basic.
    side = np.concatenate((np.ones(n), np.zeros(m)))
    x_b = -b  # every row's surplus at x = 0
    cap = np.full(m, math.inf)  # upper bound of each basic variable
    d = cost.copy()  # reduced costs; y = c_B B^-1 = 0 at the surplus basis
    iterations = 0
    stall = 0  # consecutive pivots with a zero ratio
    since_refactor = 0
    while True:
        infeasibility = np.maximum(-x_b, x_b - cap)
        rows = (infeasibility > _TOL).nonzero()[0]
        if not rows.size:
            break
        if iterations >= max_iterations:
            return LPResult(ITERATION_LIMIT, None, None, None, None, None, iterations)
        bland = stall > _STALL_LIMIT
        r = int(rows[basis[rows].argmin()] if bland else infeasibility.argmax())
        below = x_b[r] < 0.0
        alpha = Binv[r] @ T
        # x_b[r] moves by -alpha_j per unit of x_j: only columns whose move
        # off their bound pushes it back toward its box may enter.
        push = side * alpha
        eligible = (push < -_TOL if below else push > _TOL).nonzero()[0]
        if not eligible.size:
            # The dual ray along row r is unbounded: no x fits the box.
            # Row r of B^-1, signed to push x_b[r] back toward its box,
            # is that ray (see LPResult.ray).
            ray = np.maximum(-Binv[r] if below else Binv[r], 0.0)
            return LPResult(INFEASIBLE, None, None, None, None, None, iterations, ray)
        ratios = np.abs(d[eligible] / alpha[eligible])
        best = ratios.min()
        ties = eligible[ratios <= best + 1e-9]
        q = int(ties[0] if bland else ties[np.abs(alpha[ties]).argmax()])
        stall = stall + 1 if best <= _TOL else 0

        iterations += 1
        pivot = alpha[q]
        w = Binv @ T[:, q]
        step = (x_b[r] - (0.0 if below else cap[r])) / pivot
        entering_value = (0.0 if side[q] > 0 else 1.0) + step
        x_b -= step * w
        x_b[r] = entering_value
        d -= (d[q] / pivot) * alpha
        d[q] = 0.0
        side[basis[r]] = 1.0 if below else -1.0
        side[q] = 0.0
        basis[r] = q
        cap[r] = 1.0 if q < n else math.inf
        _update_inverse(Binv, r, w)
        since_refactor += 1
        if since_refactor == _REFACTOR_EVERY:
            since_refactor = 0
            try:
                Binv = _inverse(T[:, basis])
            except np.linalg.LinAlgError:
                return LPResult(ITERATION_LIMIT, None, None, None, None, None, iterations)
            x_b = Binv @ (b - T @ (side < 0))
            d = cost - (cost[basis] @ Binv) @ T

    values = (side < 0).astype(float)
    values[basis] = x_b
    x = np.clip(values[:n], 0.0, 1.0)
    activities = A @ x
    return LPResult(
        OPTIMAL, float(c @ x), x, cost[basis] @ Binv, activities, activities - b, iterations
    )


def _inverse(B: np.ndarray) -> np.ndarray:
    """``B^-1``, or its pseudo-inverse when ``B`` is numerically singular.

    Accumulated eta updates can drive a basis numerically singular; the
    pseudo-inverse keeps the iteration moving and the iteration cap
    bounds the damage.  Raises ``LinAlgError`` only when that fails too.
    """
    try:
        return np.linalg.inv(B)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(B)


def _update_inverse(Binv: np.ndarray, row: int, w: np.ndarray) -> None:
    """Product-form (eta) update of ``Binv`` in place after the column
    with ``Binv``-image ``w`` enters the basis at ``row``."""
    Binv[row, :] /= w[row]
    factors = w.copy()
    factors[row] = 0.0
    Binv -= factors[:, None] * Binv[row, :]

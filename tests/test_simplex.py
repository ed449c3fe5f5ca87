"""Unit tests for the two simplex solvers: the bounded-variable two-phase
primal (``solve_lp``) and the node-LP dual simplex (``solve_node_lp``).

scipy is a declared test dependency and the reference both are checked
against, so it is imported unconditionally: without it these tests fail
rather than skip.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.lp import (
    EQ,
    GE,
    INFEASIBLE,
    ITERATION_LIMIT,
    LE,
    OPTIMAL,
    STOPPED,
    UNBOUNDED,
    SimplexSolver,
    solve_lp,
    solve_node_lp,
)
from repro.lp import simplex


class TestBasicSolves:
    def test_trivial_one_var(self):
        # min x s.t. x >= 0.5, 0 <= x <= 1
        result = solve_lp([1.0], [[1.0]], [0.5], [GE], upper=[1.0])
        assert result.status == OPTIMAL
        assert result.objective == pytest.approx(0.5)
        assert result.x[0] == pytest.approx(0.5)

    def test_two_var_covering(self):
        # min 3x + 2y s.t. x + y >= 1; optimum y = 1
        result = solve_lp([3.0, 2.0], [[1.0, 1.0]], [1.0], [GE], upper=[1.0, 1.0])
        assert result.status == OPTIMAL
        assert result.objective == pytest.approx(2.0)
        assert result.x[1] == pytest.approx(1.0)

    def test_le_row(self):
        # min -x s.t. x <= 0.75 -> x = 0.75 (upper bound 1 not binding)
        result = solve_lp([-1.0], [[1.0]], [0.75], [LE], upper=[1.0])
        assert result.status == OPTIMAL
        assert result.x[0] == pytest.approx(0.75)

    def test_eq_row(self):
        # min x + y s.t. x + 2y = 1
        result = solve_lp([1.0, 1.0], [[1.0, 2.0]], [1.0], [EQ], upper=[1.0, 1.0])
        assert result.status == OPTIMAL
        assert result.objective == pytest.approx(0.5)
        assert result.x[1] == pytest.approx(0.5)

    def test_fractional_lp_vertex(self):
        # min x1 + x2 s.t. x1 + x2 >= 1, x1 - x2 >= 0, classic half-half
        result = solve_lp(
            [1.0, 1.0],
            [[1.0, 1.0], [1.0, -1.0]],
            [1.0, 0.0],
            [GE, GE],
            upper=[1.0, 1.0],
        )
        assert result.status == OPTIMAL
        assert result.objective == pytest.approx(1.0)

    def test_upper_bounds_respected(self):
        # min -x1 - x2 s.t. x1 + x2 <= 3 with x <= 1 each: optimum -2
        result = solve_lp(
            [-1.0, -1.0], [[1.0, 1.0]], [3.0], [LE], upper=[1.0, 1.0]
        )
        assert result.status == OPTIMAL
        assert result.objective == pytest.approx(-2.0)
        assert np.all(result.x <= 1.0 + 1e-9)


class TestStatuses:
    def test_infeasible(self):
        # x >= 2 with x <= 1
        result = solve_lp([1.0], [[1.0]], [2.0], [GE], upper=[1.0])
        assert result.status == INFEASIBLE

    def test_infeasible_conflicting_rows(self):
        result = solve_lp(
            [0.0], [[1.0], [-1.0]], [0.8, -0.2], [GE, GE], upper=[1.0]
        )
        assert result.status == INFEASIBLE

    def test_unbounded(self):
        # min -x with x unbounded above
        result = solve_lp([-1.0], [[1.0]], [0.0], [GE])
        assert result.status == UNBOUNDED

    def test_iteration_limit(self):
        result = SimplexSolver(
            [1.0, 1.0],
            [[1.0, 1.0]],
            [1.0],
            [GE],
            upper=[1.0, 1.0],
            max_iterations=0,
        ).solve()
        assert result.status == "iteration_limit"

    def test_should_stop_ends_the_solve(self):
        polls = []

        def stop():
            polls.append(None)
            return True

        result = SimplexSolver(
            [1.0, 1.0], [[1.0, 1.0]], [1.0], [GE], upper=[1.0, 1.0],
            should_stop=stop,
        ).solve()
        assert result.status == STOPPED
        assert result.objective is None and result.iterations == 0
        assert len(polls) == 1

    def test_should_stop_polled_every_few_pivots(self):
        rng = np.random.default_rng(5)
        n, m = 30, 20
        c = rng.integers(1, 9, size=n).astype(float)
        A = rng.integers(0, 3, size=(m, n)).astype(float)
        b = np.minimum(A.sum(axis=1), 3.0)
        polls = []

        def never():
            polls.append(None)
            return False

        plain = SimplexSolver(c, A, b, [GE] * m, upper=[1.0] * n).solve()
        polled = SimplexSolver(
            c, A, b, [GE] * m, upper=[1.0] * n, should_stop=never
        ).solve()
        assert polled.status == plain.status == OPTIMAL
        assert polled.iterations == plain.iterations
        assert polled.objective == pytest.approx(plain.objective)
        every = simplex._STOP_POLL_EVERY
        assert plain.iterations > 2 * every
        assert plain.iterations // every <= len(polls) <= plain.iterations // every + 2


class TestDiagnostics:
    def test_slacks_and_tight_rows(self):
        result = solve_lp(
            [1.0, 1.0],
            [[1.0, 0.0], [1.0, 1.0]],
            [0.25, 0.25],
            [GE, GE],
            upper=[1.0, 1.0],
        )
        assert result.status == OPTIMAL
        # x1 = 0.25 satisfies both rows; row 1 slack 0, row 2 slack 0
        tight = result.tight_rows()
        assert 0 in tight

    def test_duals_sign_for_ge(self):
        # Binding >= row in a min problem has non-negative dual.
        result = solve_lp([2.0], [[1.0]], [0.5], [GE], upper=[1.0])
        assert result.status == OPTIMAL
        assert result.duals[0] >= -1e-9

    def test_activities(self):
        result = solve_lp([1.0], [[2.0]], [1.0], [GE], upper=[1.0])
        assert result.activities[0] == pytest.approx(1.0)

    def test_iterations_counted(self):
        result = solve_lp([1.0], [[1.0]], [0.5], [GE], upper=[1.0])
        assert result.iterations > 0


class TestValidation:
    def test_bad_shape(self):
        with pytest.raises(ValueError):
            SimplexSolver([1.0], [[1.0, 2.0]], [1.0], [GE])

    def test_bad_sense(self):
        with pytest.raises(ValueError):
            SimplexSolver([1.0], [[1.0]], [1.0], ["=="])

    def test_negative_upper(self):
        with pytest.raises(ValueError):
            SimplexSolver([1.0], [[1.0]], [1.0], [GE], upper=[-1.0])

    def test_bad_upper_length(self):
        with pytest.raises(ValueError):
            SimplexSolver([1.0], [[1.0]], [1.0], [GE], upper=[1.0, 1.0])


class TestAgainstScipy:
    """Cross-validation against scipy.optimize.linprog on random LPs."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_box_lps(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 7)
        m = rng.integers(1, 6)
        c = rng.integers(-5, 10, size=n).astype(float)
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = rng.integers(-2, 5, size=m).astype(float)
        senses = [GE if rng.random() < 0.7 else LE for _ in range(m)]
        upper = np.ones(n)

        ours = solve_lp(c, A, b, senses, upper=upper)

        A_ub, b_ub = [], []
        for i, sense in enumerate(senses):
            if sense == GE:
                A_ub.append(-A[i])
                b_ub.append(-b[i])
            else:
                A_ub.append(A[i])
                b_ub.append(b[i])
        ref = linprog(
            c, A_ub=np.array(A_ub), b_ub=np.array(b_ub), bounds=[(0, 1)] * n,
            method="highs",
        )
        if ref.status == 2:
            assert ours.status == INFEASIBLE
        else:
            assert ref.status == 0
            assert ours.status == OPTIMAL
            assert ours.objective == pytest.approx(ref.fun, abs=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_covering_lps(self, seed):
        """Non-negative covering LPs (always feasible at x = 1), on both
        solvers."""
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 10))
        m = int(rng.integers(2, 8))
        c = rng.integers(1, 10, size=n).astype(float)
        A = rng.integers(0, 4, size=(m, n)).astype(float)
        # ensure each row can be satisfied
        b = np.minimum(A.sum(axis=1), rng.integers(1, 5, size=m)).astype(float)
        ref = linprog(c, A_ub=-A, b_ub=-b, bounds=[(0, 1)] * n, method="highs")
        assert ref.status == 0
        for ours in (solve_lp(c, A, b, [GE] * m, upper=np.ones(n)), solve_node_lp(c, A, b)):
            assert ours.status == OPTIMAL
            assert ours.objective == pytest.approx(ref.fun, abs=1e-6)


class TestNodeLP:
    """The cold dual simplex for ``min c.x, A x >= b, 0 <= x <= 1``, c >= 0."""

    def test_two_var_covering(self):
        result = solve_node_lp([3.0, 2.0], [[1.0, 1.0]], [1.0])
        assert result.status == OPTIMAL
        assert result.objective == pytest.approx(2.0)
        assert result.x.tolist() == pytest.approx([0.0, 1.0])
        assert result.iterations == 1

    def test_half_integral_vertex(self):
        # the triangle of clauses: x = 1/2 everywhere, every row binding
        A = [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]
        result = solve_node_lp([1.0, 1.0, 1.0], A, [1.0, 1.0, 1.0])
        assert result.status == OPTIMAL
        assert result.objective == pytest.approx(1.5)
        assert result.x.tolist() == pytest.approx([0.5, 0.5, 0.5])
        assert result.tight_rows() == [0, 1, 2]
        assert result.duals.tolist() == pytest.approx([0.5, 0.5, 0.5])

    def test_entering_column_may_overshoot_its_box(self):
        # x1 enters at 2 > 1; the next pivot repairs it at its upper bound
        result = solve_node_lp([1.0, 10.0], [[0.5, 1.0]], [1.0])
        assert result.status == OPTIMAL
        assert result.objective == pytest.approx(6.0)
        assert result.x.tolist() == pytest.approx([1.0, 0.5])
        assert result.iterations == 2

    def test_slack_basis_already_feasible(self):
        result = solve_node_lp([1.0, 1.0], [[1.0, -1.0]], [-1.0])
        assert result.status == OPTIMAL
        assert result.objective == 0.0
        assert result.iterations == 0
        assert result.slacks.tolist() == [1.0]

    def test_no_rows(self):
        result = solve_node_lp([1.0, 2.0], np.zeros((0, 2)), [])
        assert result.status == OPTIMAL
        assert result.objective == 0.0
        assert result.x.tolist() == [0.0, 0.0]

    def test_infeasible(self):
        assert solve_node_lp([1.0], [[1.0]], [2.0]).status == INFEASIBLE

    def test_infeasible_conflicting_rows(self):
        result = solve_node_lp([0.0], [[1.0], [-1.0]], [0.8, -0.2])
        assert result.status == INFEASIBLE

    def test_iteration_limit(self):
        result = solve_node_lp([1.0, 1.0], [[1.0, 1.0]], [1.0], max_iterations=0)
        assert result.status == ITERATION_LIMIT
        assert result.x is None

    def test_numerical_breakdown_is_iteration_limit(self, monkeypatch):
        def singular(B):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 1)
        monkeypatch.setattr(simplex, "_inverse", singular)
        result = solve_node_lp([1.0, 1.0], [[1.0, 1.0]], [1.0])
        assert result.status == ITERATION_LIMIT
        assert result.iterations == 1

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            solve_node_lp([-1.0], [[1.0]], [1.0])

    @pytest.mark.parametrize(
        "c, A, b",
        [
            ([1.0], [[1.0, 2.0]], [1.0]),
            ([1.0, 1.0], [[1.0, 2.0]], [1.0, 1.0]),
            ([1.0, 1.0], [1.0, 2.0], [1.0]),
        ],
    )
    def test_rejects_mismatched_shapes(self, c, A, b):
        with pytest.raises(ValueError):
            solve_node_lp(c, A, b)

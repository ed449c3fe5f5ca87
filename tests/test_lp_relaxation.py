"""Unit tests for LP data building and the LPR lower bound, and a
differential test of the node-LP solver against scipy's HiGHS.

scipy is a declared test dependency and the only reference for the
bound's LP solver, so it is imported unconditionally: without it these
tests fail rather than skip.
"""

import random

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.core.cuts import CutGenerator
from repro.experiments.table1 import family_instances
from repro.lp import (
    INFEASIBLE,
    OPTIMAL,
    LPRelaxationBound,
    build_lp_data,
    ceil_guarded,
    integer_ceil_bound,
    root_lpr_bound,
    solve_node_lp,
)
from repro.lp import simplex
from repro.pb import Constraint, Objective, PBInstance
from tests.test_lb_incremental import walk_nodes, with_cut_rows


def covering_instance():
    """min 3a + 2b + 2c with clauses (a|b), (b|c), (a|c)."""
    return PBInstance(
        [
            Constraint.clause([1, 2]),
            Constraint.clause([2, 3]),
            Constraint.clause([1, 3]),
        ],
        Objective({1: 3, 2: 2, 3: 2}),
    )


class TestBuildLPData:
    def test_basic_shape(self):
        data = build_lp_data(covering_instance())
        assert data.num_rows == 3
        assert data.num_columns == 3
        assert sorted(data.columns) == [1, 2, 3]

    def test_negative_literal_substitution(self):
        instance = PBInstance(
            [Constraint.greater_equal([(2, -1), (1, 2)], 2)], Objective({1: 1, 2: 1})
        )
        data = build_lp_data(instance)
        col1 = data.column_of[1]
        col2 = data.column_of[2]
        # 2*~x1 + x2 >= 2  ->  -2*x1 + x2 >= 0
        assert data.A[0, col1] == -2.0
        assert data.A[0, col2] == 1.0
        assert data.b[0] == 0.0

    def test_fixed_variables_substituted(self):
        data = build_lp_data(covering_instance(), fixed={1: 1})
        # clauses containing a are satisfied; only (b|c) remains
        assert data.num_rows == 1
        assert 1 not in data.column_of

    def test_violated_fixing_returns_none(self):
        instance = PBInstance([Constraint.clause([1, 2])])
        assert build_lp_data(instance, fixed={1: 0, 2: 0}) is None

    def test_unreachable_rhs_returns_none(self):
        instance = PBInstance([Constraint.at_least([1, 2, 3], 2)])
        assert build_lp_data(instance, fixed={1: 0, 2: 0}) is None

    def test_all_satisfied_empty_lp(self):
        data = build_lp_data(covering_instance(), fixed={1: 1, 2: 1, 3: 1})
        assert data.num_rows == 0


class TestIntegerCeilBound:
    def test_rounds_up(self):
        assert integer_ceil_bound(2.3) == 3

    def test_integral_value_stable(self):
        assert integer_ceil_bound(5.0) == 5
        assert integer_ceil_bound(5.0000000001) == 5
        assert integer_ceil_bound(4.9999999999) == 5

    def test_deprecated_alias_removed(self):
        # integer_floor_bound always rounded *up*; the misnamed alias
        # finished its deprecation window and is gone.
        import repro.lp

        assert not hasattr(repro.lp, "integer_floor_bound")


class TestLPRelaxationBound:
    def test_root_bound_le_optimum(self):
        instance = covering_instance()
        # true optimum: pick b and either a or c... b covers rows 1,2; row 3
        # needs a or c: cost 2+2=4
        bound = LPRelaxationBound(instance).compute({})
        assert not bound.infeasible
        assert bound.value <= 4
        assert bound.value >= 3  # LP: x=0.5 everywhere -> 3.5 -> ceil 4? compute

    def test_fractional_values_exposed(self):
        bound = LPRelaxationBound(covering_instance()).compute({})
        assert set(bound.fractional) == {1, 2, 3}
        for value in bound.fractional.values():
            assert -1e-9 <= value <= 1 + 1e-9

    def test_explanation_subset_of_rows(self):
        instance = covering_instance()
        bound = LPRelaxationBound(instance).compute({})
        for constraint in bound.explanation:
            assert constraint in instance.constraints

    def test_fixed_reduces_bound_scope(self):
        instance = covering_instance()
        bound = LPRelaxationBound(instance).compute({2: 1})
        # remaining: (a|c) -> LP min(3,2) picks c: bound 2
        assert bound.value == 2

    def test_infeasible_fixing(self):
        instance = PBInstance([Constraint.clause([1, 2])], Objective({1: 1}))
        bound = LPRelaxationBound(instance).compute({1: 0, 2: 0})
        assert bound.infeasible

    def test_nothing_left(self):
        bound = LPRelaxationBound(covering_instance()).compute({1: 1, 2: 1, 3: 1})
        assert bound.value == 0 and not bound.infeasible

    def test_call_statistics(self):
        lpr = LPRelaxationBound(covering_instance())
        lpr.compute({})
        lpr.compute({1: 1})
        assert lpr.num_calls == 2
        assert lpr.total_iterations > 0

    def test_root_helper(self):
        assert root_lpr_bound(covering_instance()) >= 3

    def test_root_helper_matches_bounder(self):
        instance = covering_instance()
        assert root_lpr_bound(instance) == LPRelaxationBound(instance).compute({}).value


class TestBoundSoundness:
    """The LPR bound never exceeds the true optimum (brute force)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed):
        import itertools
        import random

        rng = random.Random(seed)
        n = rng.randint(2, 5)
        constraints = []
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(1, n)
            variables = rng.sample(range(1, n + 1), size)
            terms = [
                (rng.randint(1, 4), v if rng.random() < 0.7 else -v)
                for v in variables
            ]
            rhs = rng.randint(1, max(1, sum(c for c, _ in terms) - 1))
            constraint = Constraint.greater_equal(terms, rhs)
            if not constraint.is_tautology and not constraint.is_unsatisfiable:
                constraints.append(constraint)
        if not constraints:
            pytest.skip("degenerate draw")
        objective = Objective({v: rng.randint(0, 5) for v in range(1, n + 1)})
        instance = PBInstance(constraints, objective, num_variables=n)

        best = None
        for bits in itertools.product([0, 1], repeat=n):
            assignment = {v: bits[v - 1] for v in range(1, n + 1)}
            if instance.check(assignment):
                cost = instance.cost(assignment)
                best = cost if best is None else min(best, cost)

        bound = LPRelaxationBound(instance).compute({})
        if best is None:
            # integrally infeasible; LP may be feasible, bound must still
            # be a *lower* bound (vacuous) or detected infeasible.
            return
        assert not bound.infeasible
        assert bound.value <= best


def assert_matches_highs(c, A, b):
    """``solve_node_lp`` agrees with HiGHS on ``min c.x, A x >= b, 0 <= x <= 1``
    and its answer carries what the bound's consumers read: a point in
    the box, feasible rows, and non-negative duals only on tight rows
    (eq. 9 explanations and ``log_bound_linear`` rely on that
    complementary slackness); on an infeasible LP, a Farkas ray ``y >= 0``
    that no point of the box satisfies (``y.b > sum_j max(0, (yA)_j)``),
    which explains and certifies the prune.  Returns the status."""
    ours = solve_node_lp(c, A, b)
    ref = linprog(c, A_ub=-A, b_ub=-b, bounds=[(0, 1)] * len(c), method="highs")
    if ref.status == 2:
        assert ours.status == INFEASIBLE
        ray = ours.ray
        assert ray.shape == b.shape and np.all(ray >= 0.0)
        assert ray @ b - np.maximum(ray @ A, 0.0).sum() > 0.0
        return INFEASIBLE
    assert ref.status == 0
    assert ours.status == OPTIMAL
    assert ours.objective == pytest.approx(ref.fun, abs=1e-6)
    assert ceil_guarded(ours.objective) == ceil_guarded(ref.fun)
    assert np.all((ours.x >= 0.0) & (ours.x <= 1.0))
    assert np.all(A @ ours.x >= b - 1e-7)
    assert np.all(ours.duals >= -1e-9)
    binding = {i for i, dual in enumerate(ours.duals) if dual > 1e-7}
    assert binding <= set(ours.tight_rows())
    return OPTIMAL


def degenerate_lps():
    """Node LPs whose ratio tests tie at zero: duplicated rows, equal and
    zero costs."""
    triangle = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    yield np.ones(3), np.vstack([triangle, triangle]), np.ones(6)
    yield np.array([0.0, 0.0, 1.0]), np.vstack([triangle, triangle]), np.ones(6)
    rng = np.random.default_rng(7)
    for _ in range(12):
        n = int(rng.integers(4, 9))
        rows = (rng.random((int(rng.integers(2, 6)), n)) < 0.5).astype(float)
        rows[:, 0] = 1.0  # every row coverable
        A = np.vstack([rows, rows, rows[:1]])
        c = np.full(n, float(rng.integers(0, 3)))
        b = np.minimum(A.sum(axis=1), rng.integers(1, 3, size=A.shape[0]))
        yield c, A, b


class TestNodeLPAgainstHighs:
    """The bound's LP solver against HiGHS at the nodes of seeded walks."""

    @pytest.mark.parametrize("family", ["grout", "ptl", "mcnc"])
    def test_table1_family_walks(self, family):
        instances, _ = family_instances(family, count=2, scale=0.5)
        statuses = []
        for seed, instance in enumerate(instances):
            generator = CutGenerator(instance)
            rng = random.Random(seed)
            lp_instance = instance
            for _, fixed in walk_nodes(instance, seed + 500, max_nodes=40):
                if rng.random() < 0.3:
                    # a new incumbent brings new eq. 10/13 cut rows
                    upper = rng.randint(1, instance.objective.max_value + 1)
                    cuts = [cut for _, cut in generator.cuts(upper)[0]]
                    lp_instance = with_cut_rows(instance, cuts)
                data = build_lp_data(lp_instance, fixed)
                if data is None or data.num_rows == 0:
                    continue
                statuses.append(assert_matches_highs(data.c, data.A, data.b))
        assert statuses.count(OPTIMAL) >= 40
        # the cut rows make some node LPs infeasible: the solver's cold
        # dual simplex must report that exit too
        assert INFEASIBLE in statuses

    @pytest.mark.parametrize("stall_limit", [simplex._STALL_LIMIT, 0])
    @pytest.mark.parametrize("refactor_every", [simplex._REFACTOR_EVERY, 1])
    def test_degenerate_ties(self, monkeypatch, stall_limit, refactor_every):
        """Zero-ratio ties under the default rules, under the
        smallest-index rule from the first degenerate pivot on, and with
        a refactorization after every pivot."""
        monkeypatch.setattr(simplex, "_STALL_LIMIT", stall_limit)
        monkeypatch.setattr(simplex, "_REFACTOR_EVERY", refactor_every)
        for c, A, b in degenerate_lps():
            assert_matches_highs(c, A, b)

"""Differential tests: the incremental MIS cache vs its cold reference.

The trail-delta MIS cache must be *invisible*: at every node of any walk
the trail-fed :class:`MISBound` returns the same ``(value, infeasible)``
as an unattached (cold) one handed the same partial assignment.  These
tests replay seeded decision walks on a real propagation engine and
compare the pair in lockstep, then check the solver end-to-end against
a cold-bounded run and the exhaustive optimum.

Two :class:`MISBound` objects share every evaluation path, so the walks
also compare against :func:`reference_mis`, which rebuilds the bound
from :func:`constraint_min_cost` at every node.  Each walk runs on the
instance with the eq. 10/13 cuts of one incumbent appended as rows.
"""

import math
import random

import pytest

from repro.baselines import BruteForceSolver
from repro.core.cuts import CutGenerator
from repro.core.options import SolverOptions
from repro.core.solver import BsoloSolver
from repro.engine import Conflict, Propagator
from repro.experiments.table1 import family_instances
from repro.lp.tolerances import ceil_guarded
from repro.mis import MISBound
from repro.mis.independent_set import constraint_min_cost
from repro.pb import Constraint, Objective, PBInstance


def random_instance(seed: int, num_variables: int = 14) -> PBInstance:
    rng = random.Random(seed)
    constraints = []
    for _ in range(rng.randint(6, 14)):
        arity = rng.randint(2, 5)
        variables = rng.sample(range(1, num_variables + 1), arity)
        terms = [
            (rng.randint(1, 4), var if rng.random() < 0.7 else -var)
            for var in variables
        ]
        rhs = rng.randint(1, max(1, sum(coef for coef, _ in terms) // 2))
        constraints.append(Constraint.greater_equal(terms, rhs))
    costs = {
        var: rng.randint(1, 9)
        for var in range(1, num_variables + 1)
        if rng.random() < 0.8
    }
    if not costs:
        costs = {1: 1}
    return PBInstance(constraints, Objective(costs), num_variables)


def walk_nodes(instance, seed, max_nodes):
    """Yield the ``fixed`` mapping of each non-conflicting node of a
    seeded decide/propagate/backtrack walk, with the live trail."""
    engine = Propagator(instance.num_variables)
    for constraint in instance.constraints:
        engine.add_constraint(constraint)
    if isinstance(engine.propagate(), Conflict):
        return
    trail = engine.trail
    rng = random.Random(seed)
    order = list(range(1, instance.num_variables + 1))
    values = trail._value
    yield trail, trail.assignment()
    nodes = 1
    while nodes < max_nodes:
        progressed = False
        rng.shuffle(order)
        for variable in order:
            if nodes >= max_nodes:
                return
            if values[variable] >= 0:
                continue
            engine.decide(variable if rng.random() < 0.5 else -variable)
            progressed = True
            if isinstance(engine.propagate(), Conflict):
                level = trail.decision_level
                if level == 0:
                    return
                engine.backtrack(level - 1)
                continue
            yield trail, trail.assignment()
            nodes += 1
        if not progressed:
            return
        engine.backtrack(0)


def with_cut_rows(instance, cuts):
    """``instance`` with ``cuts`` appended as rows."""
    return PBInstance(
        list(instance.constraints) + list(cuts),
        instance.objective,
        instance.num_variables,
    )


def reference_mis(instance, fixed):
    """The MIS bound recomputed from :func:`constraint_min_cost` alone:
    ``(value, infeasible, explanation)``."""
    costs = instance.objective.costs
    candidates = []
    for constraint in instance.constraints:
        value, _, free_vars = constraint_min_cost(constraint, fixed, costs)
        if value is None:
            continue
        if value == math.inf:
            return 0, True, []
        if value <= 0 or not free_vars:
            continue
        candidates.append((value, constraint, free_vars))
    candidates.sort(key=lambda item: (-item[0] / len(item[2]), -item[0]))
    used = set()
    total = 0.0
    explanation = []
    for value, constraint, free_vars in candidates:
        if free_vars & used:
            continue
        used |= free_vars
        total += value
        explanation.append(constraint)
    return max(ceil_guarded(total), 0), False, explanation


def with_cardinality_rows(instance: PBInstance, seed: int) -> PBInstance:
    """``instance`` plus a few positive at-least rows, so eq. 13 cuts
    exist beside the knapsack cut."""
    rng = random.Random(seed)
    n = instance.num_variables
    extra = [
        Constraint.at_least(rng.sample(range(1, n + 1), 3), 1)
        for _ in range(2)
    ]
    return PBInstance(list(instance.constraints) + extra, instance.objective, n)


def assert_lockstep(instance, seed, max_nodes):
    """Walk ``max_nodes`` nodes of ``instance`` plus the eq. 10/13 cuts of
    a random incumbent as rows; at each, the trail-fed and the cold
    :class:`MISBound` and :func:`reference_mis` agree."""
    rng = random.Random(seed)
    upper = rng.randint(1, instance.objective.max_value + 1)
    keyed, _ = CutGenerator(instance).cuts(upper)
    instance = with_cut_rows(instance, [cut for _, cut in keyed])
    incremental = MISBound(instance)
    cold = MISBound(instance)
    attached = False
    for trail, fixed in walk_nodes(instance, seed + 500, max_nodes):
        if not attached:
            incremental.attach_trail(trail)
            attached = True
        a = incremental.compute(fixed)
        b = cold.compute(fixed)
        value, infeasible, explanation = reference_mis(instance, fixed)
        assert (a.value, a.infeasible) == (b.value, b.infeasible)
        assert (a.value, a.infeasible) == (value, infeasible)
        assert a.explanation == b.explanation == explanation
    assert incremental.cache_hits > 0 or incremental.num_calls <= 1


class TestMISLockstep:
    @pytest.mark.parametrize("seed", range(12))
    def test_incremental_equals_cold(self, seed):
        instance = with_cardinality_rows(random_instance(seed), seed)
        assert_lockstep(instance, seed, max_nodes=50)

    @pytest.mark.parametrize("family", ["mcnc", "ptl", "grout"])
    def test_table1_families(self, family):
        instances, _ = family_instances(family, count=2, scale=0.5)
        for seed, instance in enumerate(instances):
            assert_lockstep(instance, seed, max_nodes=40)


class TestSolverEquivalence:
    @pytest.mark.parametrize("method", ["mis", "lpr"])
    @pytest.mark.parametrize("seed", range(4))
    def test_incremental_matches_cold_optimum(self, method, seed):
        instance = random_instance(seed * 31 + 2)
        options = SolverOptions(
            lower_bound=method, max_conflicts=3000, time_limit=10
        )
        incremental = BsoloSolver(instance, options).solve()
        cold_solver = BsoloSolver(instance, options)
        if hasattr(cold_solver._bounder, "detach_trail"):
            cold_solver._bounder.detach_trail(cold_solver._propagator.trail)
        cold = cold_solver.solve()
        assert incremental.status == cold.status
        if incremental.status == "optimal":
            assert incremental.best_cost == cold.best_cost
            assert incremental.best_cost == BruteForceSolver(instance).solve().best_cost

"""Unit tests for the Section 5 cut generator."""

import random

import pytest

from repro.core import CutGenerator
from repro.pb import Constraint, Objective, PBInstance


def instance_with_cardinality():
    """x1+x2+x3 >= 2 with costs 1..5 on five variables."""
    return PBInstance(
        [Constraint.at_least([1, 2, 3], 2), Constraint.clause([4, 5])],
        Objective({1: 1, 2: 2, 3: 3, 4: 4, 5: 5}),
    )


class TestKnapsackCut:
    def test_shape(self):
        cut = CutGenerator(instance_with_cardinality()).knapsack_cut(8)
        assert cut is not None
        # sum c_j x_j <= 7  ==  sum c_j ~x_j >= sum(c) - 7 = 8
        assert cut.rhs == 8
        assert all(lit < 0 for lit in cut.literals)

    def test_forces_improvement(self):
        instance = instance_with_cardinality()
        cut = CutGenerator(instance).knapsack_cut(8)
        cheap = {1: 1, 2: 1, 3: 0, 4: 1, 5: 0}  # cost 7
        expensive = {1: 1, 2: 1, 3: 1, 4: 1, 5: 0}  # cost 10
        assert cut.is_satisfied_by(cheap)
        assert not cut.is_satisfied_by(expensive)

    def test_tautology_returns_none(self):
        instance = instance_with_cardinality()
        total = sum(instance.objective.costs.values())
        assert CutGenerator(instance).knapsack_cut(total + 1) is None

    def test_no_costs_returns_none(self):
        instance = PBInstance([Constraint.clause([1])])
        assert CutGenerator(instance).knapsack_cut(5) is None


def cardinality_cuts(generator, upper):
    """The eq. 13 cuts of ``generator.cuts(upper)`` and its proven flag."""
    keyed, proven = generator.cuts(upper)
    return [cut for source, cut in keyed if source is not None], proven is not None


class TestCardinalityCuts:
    def test_eq13_cut_emitted(self):
        instance = instance_with_cardinality()
        cuts, proven = cardinality_cuts(CutGenerator(instance), 9)
        assert not proven
        # Both constraints are cardinality constraints (the clause (4|5)
        # has threshold 1).  For {1,2,3} >= 2: V = 1 + 2 = 3 and the cut is
        # c4 x4 + c5 x5 <= 9 - 1 - 3 = 5.
        assert len(cuts) == 2
        cut = next(c for c in cuts if 4 in {abs(l) for l in c.literals})
        solution_ok = {4: 1, 5: 0, 1: 0, 2: 0, 3: 0}  # outside cost 4 <= 5
        solution_bad = {4: 1, 5: 1, 1: 0, 2: 0, 3: 0}  # outside cost 9 > 5
        assert cut.is_satisfied_by(solution_ok)
        assert not cut.is_satisfied_by(solution_bad)

    def test_optimum_proven_when_v_reaches_bound(self):
        instance = instance_with_cardinality()
        # upper = 3: V = 3 > upper - 1 = 2 -> no better solution exists
        cuts, proven = cardinality_cuts(CutGenerator(instance), 3)
        assert proven

    def test_negative_literals_excluded(self):
        instance = PBInstance(
            [Constraint.at_least([-1, 2], 1)], Objective({1: 1, 2: 2, 3: 5})
        )
        cuts, proven = cardinality_cuts(CutGenerator(instance), 10)
        assert cuts == [] and not proven

    def test_disabled(self):
        generator = CutGenerator(instance_with_cardinality(), cardinality_cuts=False)
        cuts, proven = cardinality_cuts(generator, 9)
        assert cuts == [] and not proven

    def test_tautological_cut_skipped(self):
        instance = instance_with_cardinality()
        # huge upper: budget exceeds total outside cost
        cuts, proven = cardinality_cuts(CutGenerator(instance), 100)
        assert cuts == [] and not proven


class TestCutsFor:
    def test_combined(self):
        instance = instance_with_cardinality()
        keyed, proven = CutGenerator(instance).cuts(9)
        assert proven is None
        # knapsack (keyed None) + two cardinality cuts keyed by source
        assert [source for source, _ in keyed] == [None] + list(
            instance.constraints
        )

    def test_cut_soundness_never_removes_better_solutions(self):
        """Any solution strictly cheaper than the incumbent satisfies all
        cuts (exhaustive check)."""
        import itertools

        instance = instance_with_cardinality()
        upper = 9
        keyed, proven = CutGenerator(instance).cuts(upper)
        assert proven is None
        cuts = [cut for _, cut in keyed]
        n = instance.num_variables
        for bits in itertools.product((0, 1), repeat=n):
            assignment = {v: bits[v - 1] for v in range(1, n + 1)}
            if not instance.check(assignment):
                continue
            cost = instance.cost(assignment)
            if cost < upper:
                for cut in cuts:
                    assert cut.is_satisfied_by(assignment), (
                        "cut %r removed solution %r of cost %d" % (cut, assignment, cost)
                    )


# ----------------------------------------------------------------------
# Templates against a from-scratch build
# ----------------------------------------------------------------------
def _reference_cuts(instance, upper):
    """Eq. 10 and eq. 13 cuts normalized from scratch for ``upper``:
    ``(knapsack, [(cut, source)], proven_source)``."""
    costs = instance.objective.costs
    knapsack = None
    if costs:
        knapsack = Constraint.less_equal(
            [(cost, var) for var, cost in costs.items()], upper - 1
        )
        if knapsack.is_tautology:
            knapsack = None
    pairs = []
    for source in instance.constraints:
        if not costs or not source.is_cardinality:
            continue
        if any(lit < 0 for lit in source.literals):
            continue
        threshold = source.cardinality_threshold
        if threshold < 1:
            continue
        value_v = sum(sorted(costs.get(v, 0) for v in source.literals)[:threshold])
        if value_v <= 0:
            continue
        budget = upper - 1 - value_v
        if budget < 0:
            return knapsack, pairs, source
        members = set(source.literals)
        outside = [(c, v) for v, c in costs.items() if v not in members]
        if not outside or sum(c for c, _ in outside) <= budget:
            continue
        pairs.append((Constraint.less_equal(outside, budget), source))
    return knapsack, pairs, None


def _random_cut_instance(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 12)
    constraints = []
    for _ in range(rng.randint(1, 6)):
        arity = rng.randint(1, n)
        members = rng.sample(range(1, n + 1), arity)
        if rng.random() < 0.2:
            members[0] = -members[0]  # not usable by eq. 11
        constraints.append(Constraint.at_least(members, rng.randint(1, arity)))
    costs = {v: rng.randint(1, 9) for v in range(1, n + 1) if rng.random() < 0.8}
    return PBInstance(constraints, Objective(costs), n)


class TestTemplatesMatchScratchBuild:
    @pytest.mark.parametrize("block", range(4))
    def test_every_upper(self, block):
        for seed in range(block * 25, (block + 1) * 25):
            instance = _random_cut_instance(seed)
            generator = CutGenerator(instance)
            uppers = list(range(-1, instance.objective.max_value + 2))
            random.Random(seed).shuffle(uppers)  # incumbents in any order
            for upper in uppers:
                knapsack, pairs, proven = _reference_cuts(instance, upper)
                assert generator.knapsack_cut(upper) == knapsack, (seed, upper)
                keyed, got_proven = generator.cuts(upper)
                assert got_proven is proven, (seed, upper)
                if knapsack is not None:
                    assert keyed[0] == (None, knapsack), (seed, upper)
                    keyed = keyed[1:]
                assert [s for s, _ in keyed] == [s for _, s in pairs]
                for (_, cut), (ref, _) in zip(keyed, pairs):
                    assert (cut.terms, cut.rhs) == (ref.terms, ref.rhs), (seed, upper)

"""Differential harness: every propagation backend must agree.

The counter engine is the reference; watched is checked against it
with two layers of evidence:

* randomized lockstep scripts driving both engines through the same
  decide/propagate/backtrack steps and comparing implied sets,
  conflict outcomes and assignment values at every step — including
  mid-search learned-constraint deletion and row swaps (the Section 5
  cuts' ``replace_constraint``) on seeded ptl, grout and planted
  random instances and coefficients near ``2**40``;
* full solves on small instances from each benchmark family, which
  must reach the same status and the same optimum cost.

Deferred PB reasons are checked against the eager greedy builder they
replaced: on every backend the reason read late from the trail must
equal the one built at implication time.
"""

from __future__ import annotations

import random

import pytest

from repro.benchgen import generate_planted, ptl_suite, routing_suite
from repro.core import OPTIMAL, BsoloSolver, SolverOptions
from repro.engine.assignment import DeferredReason
from repro.engine.conflict import ConflictAnalyzer, RootConflictError
from repro.engine.constraint_db import KIND_GENERAL
from repro.engine.interface import Conflict, make_engine
from repro.pb.constraints import Constraint

BACKENDS = ("counter", "watched")


# ----------------------------------------------------------------------
# Lockstep fuzz
# ----------------------------------------------------------------------
def _random_constraint(rng: random.Random, num_vars: int) -> Constraint:
    kind = rng.randrange(3)
    arity = rng.randint(1, min(6, num_vars))
    variables = rng.sample(range(1, num_vars + 1), arity)
    lits = [v if rng.random() < 0.5 else -v for v in variables]
    if kind == 0:
        return Constraint.clause(lits)
    if kind == 1:
        return Constraint.at_least(lits, rng.randint(1, arity))
    coefs = [rng.randint(1, 7) for _ in lits]
    rhs = rng.randint(1, max(1, sum(coefs) - 1))
    return Constraint.greater_equal(list(zip(coefs, lits)), rhs)


def _lockstep_decide(engines, rng: random.Random, context) -> None:
    """Decide one random free literal on every engine and propagate."""
    num_vars = engines[0].trail.num_variables
    free = [v for v in range(1, num_vars + 1) if engines[0].trail.value(v) < 0]
    if not free:
        return
    var = rng.choice(free)
    lit = var if rng.random() < 0.5 else -var
    for engine in engines:
        engine.decide(lit)
    _lockstep_propagate(engines, rng, context)


def _lockstep_propagate(engines, rng: random.Random, context) -> bool:
    """Propagate every engine; backtrack at random on a conflict.

    A conflict must be reported by all engines or none; after a
    non-conflicting propagate the implied-literal fixpoint must match
    and each backend's own bookkeeping must check out.  Returns True
    on a conflict at level 0, which refutes the rows: no backtrack can
    undo it, so the script ends there.
    """
    results = [engine.propagate() for engine in engines]
    kinds = [isinstance(result, Conflict) for result in results]
    assert len(set(kinds)) == 1, ("conflict mismatch", context, kinds)
    if kinds[0]:
        level = engines[0].trail.decision_level
        if level == 0:
            return True
        target = rng.randint(0, level - 1)
        for engine in engines:
            engine.backtrack(target)
    else:
        # the implied-literal fixpoint of a *non-conflicting* propagate
        # call is part of the equivalence contract
        implied = [set(engine.trail.literals) for engine in engines]
        for backend, other in zip(BACKENDS[1:], implied[1:]):
            assert implied[0] == other, (
                "implied mismatch",
                context,
                backend,
                implied[0] ^ other,
            )
        for engine in engines:
            if engine.name == "counter":
                engine.database.check_slacks()
            else:
                engine.database.check_invariants()
    return False


def _lockstep_backtrack(engines, rng: random.Random) -> None:
    level = engines[0].trail.decision_level
    if level == 0:
        return
    target = rng.randint(0, level - 1)
    for engine in engines:
        engine.backtrack(target)


def _assert_same_values(engines, context) -> None:
    trails = [engine.trail for engine in engines]
    for v in range(1, trails[0].num_variables + 1):
        values = [trail.value(v) for trail in trails]
        assert len(set(values)) == 1, ("value mismatch", context, v, values)


def _run_lockstep_seed(seed: int) -> None:
    rng = random.Random(seed)
    num_vars = rng.randint(4, 14)
    num_cons = rng.randint(2, 20)
    engines = [make_engine(name, num_vars) for name in BACKENDS]
    # interleave adds with decisions to exercise add-under-assignment
    constraints = [_random_constraint(rng, num_vars) for _ in range(num_cons)]
    for step in range(rng.randint(10, 60)):
        op = rng.random()
        if constraints and op < 0.25:
            constraint = constraints.pop()
            results = [engine.add_constraint(constraint) for engine in engines]
            kinds = [isinstance(result, Conflict) for result in results]
            assert len(set(kinds)) == 1, ("add mismatch", seed, step, kinds)
            if kinds[0]:
                return  # both conflicted at add; stop this seed
        elif op < 0.65:
            _lockstep_decide(engines, rng, (seed, step))
        else:
            _lockstep_backtrack(engines, rng)
        _assert_same_values(engines, (seed, step))


class TestLockstepFuzz:
    @pytest.mark.parametrize("block", range(4))
    def test_backends_agree_under_random_scripts(self, block):
        for seed in range(block * 20, (block + 1) * 20):
            _run_lockstep_seed(seed)


# ----------------------------------------------------------------------
# Learned-constraint deletion mid-search
# ----------------------------------------------------------------------
def _random_clause(rng: random.Random, num_vars: int) -> Constraint:
    arity = rng.randint(2, min(5, num_vars))
    variables = rng.sample(range(1, num_vars + 1), arity)
    return Constraint.clause([v if rng.random() < 0.5 else -v for v in variables])


def _tightened(rng: random.Random, constraint: Constraint) -> Constraint:
    """``constraint`` over the same support with a higher rhs, as a new
    incumbent tightens a Section 5 cut.  Mostly the terms tuple itself is
    kept (the in-place path); now and then one coefficient is raised and
    saturates at the new rhs, so the terms change (the re-attach path)."""
    slack = sum(c for c, _ in constraint.terms) - constraint.rhs
    rhs = constraint.rhs + rng.randint(1, max(1, slack // 2))
    if rng.random() < 0.7:
        return Constraint(constraint.terms, rhs)
    terms = list(constraint.terms)
    position = rng.randrange(len(terms))
    terms[position] = (rhs + rng.randint(0, 3), terms[position][1])
    return Constraint.greater_equal(terms, rhs)


def _lockstep_swap(engines, rng: random.Random, context) -> bool:
    """Tighten one to three live general-PB rows (one row may be picked
    twice, so a queued row is swapped again), then propagate.  Returns
    True when the tightened rows are refuted at the root."""
    rows = engines[0].database.constraints
    general = [
        index
        for index, stored in enumerate(rows)
        if stored.kind == KIND_GENERAL
        and stored.constraint.rhs < sum(c for c, _ in stored.constraint.terms)
    ]
    if not general:
        return False
    for _ in range(rng.randint(1, 3)):
        index = rng.choice(general)
        row = rows[index].constraint
        tighter = _tightened(rng, row)
        for engine in engines:
            old = engine.database.constraints[index]
            assert old.constraint is row  # rows line up across backends
            stored = engine.replace_constraint(old, tighter, learned=old.learned)
            assert stored.index == index and stored.constraint is tighter
            if stored is not old:
                assert not engine.database.holds(old)
        if tighter.rhs >= sum(c for c, _ in tighter.terms):
            general.remove(index)
            if not general:
                break
    return _lockstep_propagate(engines, rng, context)


def _run_deletion_lockstep(instance, seed: int) -> None:
    rng = random.Random(seed)
    num_vars = instance.num_variables
    engines = [make_engine(name, num_vars) for name in BACKENDS]
    for constraint in instance.constraints:
        for engine in engines:
            engine.add_constraint(constraint)
    learned: list = []
    for step in range(60):
        op = rng.random()
        if op < 0.1:
            if _lockstep_swap(engines, rng, (seed, step)):
                return
        elif op < 0.25:
            # every engine learns the same object, so deletion can be
            # coordinated by identity
            clause = _random_clause(rng, num_vars)
            learned.append(clause)
            results = [
                engine.add_constraint(clause, learned=True) for engine in engines
            ]
            kinds = [isinstance(result, Conflict) for result in results]
            assert len(set(kinds)) == 1, ("add", seed, step)
        elif op < 0.35 and learned:
            doomed = {id(c) for c in learned if rng.random() < 0.5}
            learned = [c for c in learned if id(c) not in doomed]
            removed = [
                engine.reduce_learned(
                    lambda stored: id(stored.constraint) not in doomed
                )
                for engine in engines
            ]
            assert len(set(removed)) == 1, ("removed", seed, step, removed)
        elif op < 0.75:
            _lockstep_decide(engines, rng, (seed, step))
        else:
            _lockstep_backtrack(engines, rng)
        _assert_same_values(engines, (seed, step))


def family_instances(family: str, count: int, scale: float):
    """Seeded ptl, grout or random instances; ``scale`` shrinks ptl and
    random.  The random ones are planted-satisfiable, so a root conflict
    does not end a walk at its first steps."""
    if family == "ptl":
        nodes = max(6, int(40 * scale))
        return list(
            ptl_suite(count, seed=5, nodes=nodes, extra_edges=max(3, nodes * 3 // 4))
        )
    if family == "grout":
        return list(routing_suite(count, seed=9))
    size = max(8, int(60 * scale))
    return [
        generate_planted(
            num_variables=size,
            num_constraints=size * 3 // 2,
            max_arity=8,
            max_coefficient=6,
            seed=700 + index,
        )[0]
        for index in range(count)
    ]


class TestLearnedDeletion:
    @pytest.mark.parametrize("family", ["ptl", "grout", "random"])
    def test_deletion_keeps_backends_in_lockstep(self, family):
        instances = family_instances(family, count=1, scale=0.2)
        for offset, instance in enumerate(instances):
            for seed in range(4):
                _run_deletion_lockstep(instance, 100 * offset + seed)


# ----------------------------------------------------------------------
# Deferred reasons against the eager reference
# ----------------------------------------------------------------------
def _eager_reason(trail, deferred: DeferredReason):
    """The reason as built at implication time: the implied literal, then
    the constraint's false literals, largest coefficients first (ties in
    term order), until they exceed ``total - rhs - coef``."""
    constraint = deferred.constraint
    false_terms = [
        (coef, lit)
        for coef, lit in constraint.terms
        if trail.literal_is_false(lit)
    ]
    false_terms.sort(key=lambda term: -term[0])
    needed = sum(c for c, _ in constraint.terms) - constraint.rhs - deferred.coef
    chosen = [deferred.literal]
    acc = 0
    for coef, lit in false_terms:
        if acc > needed:
            break
        chosen.append(lit)
        acc += coef
    assert acc > needed
    return tuple(chosen)


class _ReasonRecorder:
    """Records the eager reference reason of every deferred implication
    an engine makes, and compares it with ``trail.reason`` on demand."""

    def __init__(self, engine):
        self.engine = engine
        self.pending = []  # (var, deferred, eager reason)
        self.compared = 0
        #: comparisons where a false literal of the implying constraint
        #: was assigned after the implied one (the position filter bites)
        self.filtered = 0
        imply = engine.imply

        def recording_imply(literal, reason, antecedent=None):
            if isinstance(reason, DeferredReason):
                var = literal if literal > 0 else -literal
                self.pending.append((var, reason, _eager_reason(engine.trail, reason)))
            imply(literal, reason, antecedent)

        engine.imply = recording_imply

    def check(self) -> None:
        """Read every still-deferred reason and compare it with its eager
        reference; call it just before a backtrack, when the trail holds
        everything assigned after the implications."""
        trail = self.engine.trail
        for var, deferred, eager in self.pending:
            if trail._reason[var] is not deferred:
                continue  # backtracked since, or already read
            later_false = [
                lit
                for _, lit in deferred.constraint.terms
                if trail.literal_is_false(lit)
                and trail.literals.index(-lit) > trail.literals.index(deferred.literal)
            ]
            assert trail.reason(var) == eager, (var, deferred.constraint)
            self.compared += 1
            if later_false:
                self.filtered += 1
        self.pending = [
            entry for entry in self.pending if trail._reason[entry[0]] is entry[1]
        ]


def _reason_walk(backend: str, seed: int, recorder_stats: list) -> None:
    """Random decisions with first-UIP analysis on conflicts (which reads
    reasons the way the solver does), checking deferred reasons against
    the eager reference before every backtrack."""
    rng = random.Random(seed)
    num_vars = rng.randint(6, 14)
    engine = make_engine(backend, num_vars)
    for _ in range(rng.randint(4, 18)):
        if isinstance(engine.add_constraint(_random_constraint(rng, num_vars)), Conflict):
            return
    recorder = _ReasonRecorder(engine)
    analyzer = ConflictAnalyzer(num_vars)
    trail = engine.trail
    if isinstance(engine.propagate(), Conflict):
        return
    for _ in range(40):
        free = [v for v in range(1, num_vars + 1) if trail.value(v) < 0]
        if not free:
            recorder.check()
            engine.backtrack(rng.randint(0, trail.decision_level))
            continue
        var = rng.choice(free)
        engine.decide(var if rng.random() < 0.5 else -var)
        conflict = engine.propagate()
        if conflict is None and rng.random() > 0.15:
            continue
        recorder.check()
        if conflict is not None:
            try:
                analyzer.analyze(conflict.literals, trail)
            except RootConflictError:
                break
        engine.backtrack(rng.randint(0, trail.decision_level - 1))
    recorder.check()
    recorder_stats.append((recorder.compared, recorder.filtered))


class TestDeferredReasons:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_late_read_equals_eager_reference(self, backend):
        stats = []
        for seed in range(120):
            _reason_walk(backend, 7000 + seed, stats)
        compared = sum(c for c, _ in stats)
        filtered = sum(f for _, f in stats)
        assert compared > 200
        # the walks must exercise reads where a later falsified literal
        # of the implying constraint is on the trail
        assert filtered > 10

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_later_false_literal_is_not_in_the_reason(self, backend):
        # 3a + 2b + c + d >= 4: c false leaves slack 2 and implies a (3);
        # b (2) falls afterwards and implies d.  The greedy over false
        # literals would pick b first, but b was not false when a was
        # implied: the reason of a must be (a, c).
        engine = make_engine(backend, 4)
        engine.add_constraint(
            Constraint.greater_equal([(3, 1), (2, 2), (1, 3), (1, 4)], 4)
        )
        assert engine.propagate() is None
        engine.decide(-3)
        assert engine.propagate() is None
        assert engine.trail.value(1) == 1
        engine.decide(-2)
        assert engine.propagate() is None
        assert engine.trail.value(4) == 1
        assert engine.trail.reason(1) == (1, 3)
        assert engine.trail.reason(4) == (4, 2, 3)
        # cached in place: a second read returns the same tuple
        assert engine.trail.reason(1) is engine.trail.reason(1)


# ----------------------------------------------------------------------
# Large coefficients
# ----------------------------------------------------------------------
class TestLargeCoefficients:
    def test_near_2_pow_40_propagate_identically(self):
        # slack arithmetic far beyond 32-bit range must stay exact
        for seed in range(8):
            rng = random.Random(900 + seed)
            num_vars = 8
            engines = [make_engine(name, num_vars) for name in BACKENDS]
            for _ in range(6):
                arity = rng.randint(2, 5)
                variables = rng.sample(range(1, num_vars + 1), arity)
                lits = [v if rng.random() < 0.5 else -v for v in variables]
                coefs = [rng.randint(1, 1 << 40) for _ in lits]
                rhs = rng.randint(1, max(1, sum(coefs) - 1))
                constraint = Constraint.greater_equal(list(zip(coefs, lits)), rhs)
                results = [engine.add_constraint(constraint) for engine in engines]
                kinds = [isinstance(result, Conflict) for result in results]
                assert len(set(kinds)) == 1, seed
            for step in range(12):
                _lockstep_decide(engines, rng, (seed, step))
                _assert_same_values(engines, (seed, step))


# ----------------------------------------------------------------------
# Full-solve agreement
# ----------------------------------------------------------------------
def _small_instances():
    instances = []
    instances += [("ptl", inst) for inst in ptl_suite(2, seed=11, nodes=8, extra_edges=4)]
    instances += [("grout", inst) for inst in routing_suite(1, seed=3)]
    instances += [
        (
            "random",
            generate_planted(
                num_variables=12,
                num_constraints=18,
                max_arity=6,
                max_coefficient=5,
                seed=41,
            )[0],
        )
    ]
    return instances


class TestFullSolveAgreement:
    def test_same_status_and_optimum_on_every_family(self):
        for label, instance in _small_instances():
            outcomes = {}
            for backend in BACKENDS:
                options = SolverOptions.plain(
                    propagation=backend, time_limit=30.0
                )
                result = BsoloSolver(instance, options).solve()
                outcomes[backend] = result
            statuses = {backend: r.status for backend, r in outcomes.items()}
            assert len(set(statuses.values())) == 1, (label, statuses)
            if outcomes["counter"].status == OPTIMAL:
                costs = {backend: r.best_cost for backend, r in outcomes.items()}
                assert len(set(costs.values())) == 1, (label, costs)

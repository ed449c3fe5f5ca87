"""Differential harness: the engine against a from-scratch fixed point.

Randomized scripts drive the engine through decide / propagate /
backtrack steps — with constraints added under assignment, mid-search
learned-constraint deletion and row swaps (the Section 5 cuts'
``replace_constraint``) on seeded ptl, grout and planted random
instances, and coefficients near ``2**40``.  After every propagate a
test-local oracle recomputes each live row's slack from the trail alone
and checks the engine's answer against it:

* no conflict: no row is violated, and no unassigned literal has a
  coefficient above its row's slack (the fixed point is reached);
* a conflict: the reported row is live and really violated;
* either way, the engine's own slack counters match (``check_slacks``).

Propagation is demand-driven: a row scanned at a deeper level is not
rescanned by itself after a backtrack.  So, as a session call does, the
scripts re-queue every row (``reschedule_all``) after each backtrack.

Deferred PB reasons are checked against the eager greedy builder they
replaced: the reason read late from the trail must equal the one built
at implication time.
"""

from __future__ import annotations

import random

import pytest

from repro.benchgen import generate_planted, ptl_suite, routing_suite
from repro.engine import Conflict, Propagator
from repro.engine.assignment import DeferredReason
from repro.engine.conflict import ConflictAnalyzer, RootConflictError
from repro.pb.constraints import Constraint


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def _slack(trail, constraint: Constraint) -> int:
    """Supply of the non-false literals minus the rhs, from the trail."""
    supply = sum(
        coef for coef, lit in constraint.terms if not trail.literal_is_false(lit)
    )
    return supply - constraint.rhs


def check_fixed_point(engine: Propagator, conflict, context) -> None:
    """Check one ``propagate`` result against slacks recomputed from
    scratch over every live row."""
    trail = engine.trail
    database = engine.database
    database.check_slacks()
    if conflict is not None:
        assert isinstance(conflict, Conflict), context
        stored = conflict.stored
        assert database.holds(stored), ("dead row reported", context)
        assert _slack(trail, stored.constraint) < 0, ("not violated", context)
        return
    for stored in database.constraints:
        constraint = stored.constraint
        slack = _slack(trail, constraint)
        assert slack >= 0, ("violated row missed", context, constraint)
        for coef, lit in constraint.terms:
            if coef > slack:
                assert trail.is_assigned(abs(lit)), (
                    "implication missed",
                    context,
                    constraint,
                    lit,
                )


def _backtrack(engine: Propagator, rng: random.Random) -> bool:
    """Backtrack to a random lower level and re-queue every row.
    Returns True at level 0, where there is nothing to undo."""
    level = engine.trail.decision_level
    if level == 0:
        return True
    engine.backtrack(rng.randint(0, level - 1))
    engine.reschedule_all()
    return False


def _propagate(engine: Propagator, rng: random.Random, context) -> bool:
    """Propagate and check the result; backtrack at random on a
    conflict.  Returns True on a conflict at level 0, which refutes the
    rows: no backtrack can undo it, so the script ends there."""
    conflict = engine.propagate()
    check_fixed_point(engine, conflict, context)
    return conflict is not None and _backtrack(engine, rng)


def _decide(engine: Propagator, rng: random.Random, context) -> bool:
    """Decide one random free literal and propagate."""
    trail = engine.trail
    free = [v for v in range(1, trail.num_variables + 1) if trail.value(v) < 0]
    if not free:
        return False
    var = rng.choice(free)
    engine.decide(var if rng.random() < 0.5 else -var)
    return _propagate(engine, rng, context)


# ----------------------------------------------------------------------
# Random scripts
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


def _run_script_seed(seed: int) -> None:
    rng = random.Random(seed)
    num_vars = rng.randint(4, 14)
    num_cons = rng.randint(2, 20)
    engine = Propagator(num_vars)
    # interleave adds with decisions to exercise add-under-assignment
    constraints = [_random_constraint(rng, num_vars) for _ in range(num_cons)]
    for step in range(rng.randint(10, 60)):
        op = rng.random()
        if constraints and op < 0.25:
            constraint = constraints.pop()
            conflict = engine.add_constraint(constraint)
            if conflict is not None:
                assert _slack(engine.trail, constraint) < 0, (seed, step)
                return
        elif op < 0.65:
            if _decide(engine, rng, (seed, step)):
                return
        else:
            _backtrack(engine, rng)


class TestFixedPointFuzz:
    @pytest.mark.parametrize("block", range(4))
    def test_random_scripts_reach_the_fixed_point(self, block):
        for seed in range(block * 20, (block + 1) * 20):
            _run_script_seed(seed)


# ----------------------------------------------------------------------
# Learned-constraint deletion and row swaps mid-search
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


def _swap(engine: Propagator, rng: random.Random, context) -> bool:
    """Tighten one to three live general-PB rows (neither clause nor
    cardinality, like the knapsack cuts; one row may be picked twice, so
    a queued row is swapped again), then propagate.  Returns True when
    the tightened rows are refuted at the root."""
    rows = engine.database.constraints
    general = [
        index
        for index, stored in enumerate(rows)
        if not stored.constraint.is_clause
        and not stored.constraint.is_cardinality
        and stored.constraint.rhs < sum(c for c, _ in stored.constraint.terms)
    ]
    if not general:
        return False
    for _ in range(rng.randint(1, 3)):
        index = rng.choice(general)
        old = rows[index]
        tighter = _tightened(rng, old.constraint)
        stored = engine.replace_constraint(old, tighter, learned=old.learned)
        assert stored.index == index and stored.constraint is tighter
        if stored is not old:
            assert not engine.database.holds(old)
        if tighter.rhs >= sum(c for c, _ in tighter.terms):
            general.remove(index)
            if not general:
                break
    return _propagate(engine, rng, context)


def _run_deletion_script(instance, seed: int) -> None:
    rng = random.Random(seed)
    num_vars = instance.num_variables
    engine = Propagator(num_vars)
    for constraint in instance.constraints:
        engine.add_constraint(constraint)
    learned: list = []
    for step in range(60):
        op = rng.random()
        if op < 0.1:
            if _swap(engine, rng, (seed, step)):
                return
        elif op < 0.25:
            clause = _random_clause(rng, num_vars)
            learned.append(clause)
            conflict = engine.add_constraint(clause, learned=True)
            if conflict is not None:
                assert _slack(engine.trail, clause) < 0, (seed, step)
                if _backtrack(engine, rng):
                    return
        elif op < 0.35 and learned:
            doomed = {id(c) for c in learned if rng.random() < 0.5}
            before = engine.database.num_learned()
            removed = engine.reduce_learned(
                lambda stored: id(stored.constraint) not in doomed
            )
            assert removed == before - engine.database.num_learned()
            live = {id(stored.constraint) for stored in engine.database}
            assert not doomed & live, (seed, step)
            learned = [c for c in learned if id(c) not in doomed]
        elif op < 0.75:
            if _decide(engine, rng, (seed, step)):
                return
        else:
            _backtrack(engine, rng)


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
    def test_fixed_point_under_deletion_and_swaps(self, family):
        instances = family_instances(family, count=1, scale=0.2)
        for offset, instance in enumerate(instances):
            for seed in range(4):
                _run_deletion_script(instance, 100 * offset + seed)


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

        def recording_imply(literal, reason):
            if isinstance(reason, DeferredReason):
                var = literal if literal > 0 else -literal
                self.pending.append((var, reason, _eager_reason(engine.trail, reason)))
            imply(literal, reason)

        engine.imply = recording_imply

    def check(self) -> None:
        """Read every still-deferred reason and compare it with its eager
        reference; call it just before a backtrack, when the trail holds
        everything assigned after the implications."""
        trail = self.engine.trail
        for var, deferred, eager in self.pending:
            if trail._reason[var] is not deferred or deferred.clause is not None:
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
            entry
            for entry in self.pending
            if trail._reason[entry[0]] is entry[1] and entry[1].clause is None
        ]


def _reason_walk(seed: int, recorder_stats: list) -> None:
    """Random decisions with first-UIP analysis on conflicts (which reads
    reasons the way the solver does), checking deferred reasons against
    the eager reference before every backtrack."""
    rng = random.Random(seed)
    num_vars = rng.randint(6, 14)
    engine = Propagator(num_vars)
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
    def test_late_read_equals_eager_reference(self):
        stats = []
        for seed in range(120):
            _reason_walk(7000 + seed, stats)
        compared = sum(c for c, _ in stats)
        filtered = sum(f for _, f in stats)
        assert compared > 200
        # the walks must exercise reads where a later falsified literal
        # of the implying constraint is on the trail
        assert filtered > 10

    def test_later_false_literal_is_not_in_the_reason(self):
        # 3a + 2b + c + d >= 4: c false leaves slack 2 and implies a (3);
        # b (2) falls afterwards and implies d.  The greedy over false
        # literals would pick b first, but b was not false when a was
        # implied: the reason of a must be (a, c).
        engine = Propagator(4)
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

    def test_antecedent_survives_the_reason_read(self):
        # the implying constraint stays readable after conflict analysis
        # has built the clausal reason, and leaves with the assignment
        constraint = Constraint.greater_equal([(3, 1), (2, 2), (1, 3), (1, 4)], 4)
        engine = Propagator(4)
        engine.add_constraint(constraint)
        assert engine.propagate() is None
        engine.decide(-3)
        assert engine.propagate() is None
        trail = engine.trail
        assert trail.antecedent(1) is constraint
        assert trail.reason(1) == (1, 3)
        assert trail.antecedent(1) is constraint
        assert trail.antecedent(3) is None  # a decision
        engine.backtrack(0)
        assert trail.antecedent(1) is None
        # a tuple reason names no PB constraint
        engine.imply(2, (2,))
        assert trail.antecedent(2) is None


# ----------------------------------------------------------------------
# Large coefficients
# ----------------------------------------------------------------------
class TestLargeCoefficients:
    def test_near_2_pow_40_propagate_identically(self):
        # slack arithmetic far beyond 32-bit range must stay exact: the
        # engine's propagation must equal the oracle's fixed point
        for seed in range(8):
            rng = random.Random(900 + seed)
            num_vars = 8
            engine = Propagator(num_vars)
            for _ in range(6):
                arity = rng.randint(2, 5)
                variables = rng.sample(range(1, num_vars + 1), arity)
                lits = [v if rng.random() < 0.5 else -v for v in variables]
                coefs = [rng.randint(1, 1 << 40) for _ in lits]
                rhs = rng.randint(1, max(1, sum(coefs) - 1))
                constraint = Constraint.greater_equal(list(zip(coefs, lits)), rhs)
                conflict = engine.add_constraint(constraint)
                assert (conflict is not None) == (
                    _slack(engine.trail, constraint) < 0
                ), seed
                if conflict is not None:
                    break  # refuted at the root
            else:
                for step in range(12):
                    if _decide(engine, rng, (seed, step)):
                        break

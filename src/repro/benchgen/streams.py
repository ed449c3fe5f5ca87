"""Perturbation streams and soft-constraint families for incremental
solving.

A *perturbation stream* is a base :class:`~repro.pb.instance.PBInstance`
plus an ordered list of :class:`StreamStep`\\ s.  Each step describes one
``solve_under`` call on a :class:`~repro.incremental.SolverSession`
together with the session mutations (push a constraint frame, pop,
replace the objective) applied immediately before it.  The same step
list can be replayed *cold* — one fresh solver per step on the
materialised effective instance — which is how ``test_stream_lockstep``
in ``tests/test_incremental.py`` checks that every warm answer equals
the cold one.

Three stream flavours mirror the three reuse paths of a session:

* :func:`assumption_stream` — assumptions only; the instance never
  changes, so retained learned constraints, branching activity and the
  MIS trail cache all carry over between calls.
* :func:`constraint_stream` — pushes and pops constraint frames (with
  occasional assumptions), exercising frame-tagged learned-constraint
  cleanup and bounder rebuilds.
* :func:`objective_stream` — replaces the objective between calls,
  exercising ``set_objective`` and bound-state invalidation.

The soft-constraint family (:func:`generate_random_wbo`,
:func:`wbo_suite`) produces :class:`~repro.wbo.WBOInstance` inputs whose
hard part is planted-satisfiable, so every instance has a finite optimum
for the WBO solver modes to agree on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..pb.constraints import Constraint
from ..pb.instance import PBInstance
from ..pb.objective import Objective
from .random_pb import generate_planted


@dataclass(frozen=True)
class StreamStep:
    """One ``solve_under`` call plus the mutations applied before it.

    Replay order on a session: ``pop`` first (if set), then ``push`` (a
    new frame containing exactly that constraint), then ``objective``
    replacement, then ``solve_under(assumptions)``.  A cold replayer
    applies the same mutations to an explicit frame stack and solves the
    materialised instance with the same assumptions.
    """

    assumptions: Tuple[int, ...] = ()
    push: Optional[Constraint] = None
    pop: bool = False
    objective: Optional[Objective] = None


@dataclass(frozen=True)
class PerturbationStream:
    """A base instance plus the ordered steps replayed against it."""

    name: str
    instance: PBInstance
    steps: Tuple[StreamStep, ...]
    #: planted witness of the base instance (diagnostics only)
    witness: Dict[int, int] = field(default_factory=dict)

    def materialize(self, upto: int) -> Tuple[PBInstance, Tuple[int, ...]]:
        """Effective (instance, assumptions) for a cold solve of step
        ``upto``: base constraints plus the live frame stack after
        replaying the first ``upto + 1`` steps' mutations, under the
        objective in force at that step."""
        frames: List[Constraint] = []
        marks: List[int] = []
        objective = self.instance.objective
        for step in self.steps[: upto + 1]:
            if step.pop and marks:
                del frames[marks.pop():]
            if step.push is not None:
                marks.append(len(frames))
                frames.append(step.push)
            if step.objective is not None:
                objective = step.objective
        effective = PBInstance(
            list(self.instance.constraints) + frames,
            objective,
            num_variables=self.instance.num_variables,
        )
        return effective, self.steps[upto].assumptions


def _assumption_draw(
    rng: random.Random,
    witness: Dict[int, int],
    num_variables: int,
    width: int,
    consistent_bias: float,
) -> Tuple[int, ...]:
    """Draw ``width`` assumption literals over distinct variables,
    biased toward the planted witness polarity so most steps stay
    satisfiable (the occasional contradicted draw exercises the
    assumption-core path)."""
    variables = rng.sample(range(1, num_variables + 1), width)
    literals = []
    for var in variables:
        aligned = var if witness.get(var, 1) == 1 else -var
        literals.append(
            aligned if rng.random() < consistent_bias else -aligned
        )
    return tuple(literals)


def _witness_constraint(
    rng: random.Random,
    witness: Dict[int, int],
    num_variables: int,
    max_arity: int = 4,
    max_coefficient: int = 3,
) -> Constraint:
    """A random >= constraint satisfied by the witness (so pushing it
    keeps the planted base instance satisfiable)."""
    while True:
        arity = rng.randint(2, min(max_arity, num_variables))
        variables = rng.sample(range(1, num_variables + 1), arity)
        terms = []
        true_supply = 0
        for var in variables:
            coef = rng.randint(1, max_coefficient)
            if rng.random() < 0.75:
                lit = var if witness[var] == 1 else -var
            else:
                lit = -var if witness[var] == 1 else var
            if (witness[var] == 1) == (lit > 0):
                true_supply += coef
            terms.append((coef, lit))
        if true_supply == 0:
            continue
        constraint = Constraint.greater_equal(terms, rng.randint(1, true_supply))
        if constraint.is_tautology or constraint.is_unsatisfiable:
            continue
        return constraint


def assumption_stream(
    num_variables: int = 24,
    num_constraints: int = 40,
    steps: int = 12,
    width: int = 3,
    consistent_bias: float = 0.8,
    seed: int = 0,
) -> PerturbationStream:
    """Assumption-only stream: the instance is fixed, every step just
    binds ``width`` fresh assumption literals."""
    rng = random.Random(seed)
    instance, witness = generate_planted(
        num_variables=num_variables,
        num_constraints=num_constraints,
        seed=rng.randrange(1 << 30),
    )
    step_list = tuple(
        StreamStep(
            assumptions=_assumption_draw(
                rng, witness, num_variables, width, consistent_bias
            )
        )
        for _ in range(steps)
    )
    return PerturbationStream("assumption", instance, step_list, witness)


def constraint_stream(
    num_variables: int = 20,
    num_constraints: int = 30,
    steps: int = 10,
    seed: int = 0,
) -> PerturbationStream:
    """Push/pop stream: steps alternately push a witness-consistent
    constraint frame or pop the most recent one, each followed by a
    solve (sometimes under a narrow assumption)."""
    rng = random.Random(seed)
    instance, witness = generate_planted(
        num_variables=num_variables,
        num_constraints=num_constraints,
        seed=rng.randrange(1 << 30),
    )
    step_list: List[StreamStep] = []
    depth = 0
    for _ in range(steps):
        pop = depth > 0 and rng.random() < 0.35
        if pop:
            depth -= 1
        push = None
        if rng.random() < 0.7:
            push = _witness_constraint(rng, witness, num_variables)
            depth += 1
        assumptions: Tuple[int, ...] = ()
        if rng.random() < 0.4:
            assumptions = _assumption_draw(rng, witness, num_variables, 2, 0.9)
        step_list.append(
            StreamStep(assumptions=assumptions, push=push, pop=pop)
        )
    return PerturbationStream(
        "constraint", instance, tuple(step_list), witness
    )


def objective_stream(
    num_variables: int = 20,
    num_constraints: int = 30,
    steps: int = 8,
    max_cost: int = 6,
    seed: int = 0,
) -> PerturbationStream:
    """Objective-perturbation stream: each step re-prices a random
    subset of the cost function, then re-solves (no assumptions)."""
    rng = random.Random(seed)
    instance, witness = generate_planted(
        num_variables=num_variables,
        num_constraints=num_constraints,
        max_cost=max_cost,
        seed=rng.randrange(1 << 30),
    )
    costs = dict(instance.objective.costs)
    step_list: List[StreamStep] = []
    for index in range(steps):
        if index > 0:
            for var in rng.sample(
                range(1, num_variables + 1), max(1, num_variables // 4)
            ):
                costs[var] = rng.randint(0, max_cost)
        step_list.append(
            StreamStep(objective=Objective(dict(costs)))
        )
    return PerturbationStream("objective", instance, tuple(step_list), witness)


STREAM_BUILDERS = {
    "assumption": assumption_stream,
    "constraint": constraint_stream,
    "objective": objective_stream,
}


def generate_random_wbo(
    num_variables: int = 12,
    num_hard: int = 10,
    num_soft: int = 8,
    max_weight: int = 5,
    top_probability: float = 0.0,
    seed: int = 0,
):
    """A random :class:`~repro.wbo.WBOInstance` whose hard part is
    planted-satisfiable; soft constraints are unconstrained random
    clauses/inequalities and may conflict with each other."""
    from ..wbo.model import SoftConstraint, WBOInstance

    rng = random.Random(seed)
    hard, _witness = generate_planted(
        num_variables=num_variables,
        num_constraints=num_hard,
        seed=rng.randrange(1 << 30),
    )
    soft: List[SoftConstraint] = []
    while len(soft) < num_soft:
        arity = rng.randint(1, min(3, num_variables))
        variables = rng.sample(range(1, num_variables + 1), arity)
        terms = [
            (rng.randint(1, 3), var if rng.random() < 0.5 else -var)
            for var in variables
        ]
        total = sum(coef for coef, _ in terms)
        constraint = Constraint.greater_equal(terms, rng.randint(1, total))
        if constraint.is_tautology or constraint.is_unsatisfiable:
            continue
        soft.append(SoftConstraint(constraint, rng.randint(1, max_weight)))
    top = None
    if rng.random() < top_probability:
        top = rng.randint(1, sum(item.weight for item in soft))
    return WBOInstance(
        hard.constraints,
        soft,
        num_variables=num_variables,
        top=top,
    )


def wbo_suite(count: int = 3, scale: float = 1.0, seed: int = 7000) -> List:
    """A small suite of random WBO instances; ``scale`` grows/shrinks the
    variable and constraint counts.  ``tests/test_wbo.py`` solves the
    default suite in both WBO modes and checks they agree."""
    rng = random.Random(seed)
    return [
        generate_random_wbo(
            num_variables=max(6, int(12 * scale)),
            num_hard=max(4, int(10 * scale)),
            num_soft=max(3, int(8 * scale)),
            seed=rng.randrange(1 << 30),
        )
        for _ in range(count)
    ]

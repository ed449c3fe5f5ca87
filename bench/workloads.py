"""Workload definitions, their seeded inputs, reference answers and the answer check.

Inputs come only from the public ``repro.benchgen`` generators.  ``seed``
offsets every generator's base seed (the Table 1 suites' for the solve
families, servebench's for service jobs), so seed 0 starts from the same
generator seeds as ``repro.experiments.table1``.  The number of inputs in a
run follows from ``--seconds`` alone, never from how fast the program runs,
so one seed and one run length give the same work on every commit.

Instances are scaled well below Table 1's sizes so that a run holds a few
hundred of them: solve times vary a lot from instance to instance, the
spread of a suite's total across seeds shrinks only with the square root of
its instance count, and the regression bounds need it to be a few percent.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import OPTIMAL, SATISFIABLE, UNSATISFIABLE, SolverOptions, make_solver, write
from repro.benchgen import (
    generate_covering,
    generate_planted,
    generate_ptl_mapping,
    generate_routing,
    generate_scheduling,
)

#: Distance between the generator seeds of two consecutive ``--seed`` values;
#: larger than any run's instance count, so seeds never share an instance.
SEED_STRIDE = 10 ** 6

#: Per-instance limit for the program's solves (the paper's Table 1 budget).
TIME_LIMIT = 20.0

#: Answer of a solve that hit its limit: a failure, but not a wrong answer.
UNSOLVED = "unsolved within the time limit"

#: Passes a solve run makes over its tasks (see ``bench.solves``).
PASSES = 3


@dataclass(frozen=True)
class SolveSpec:
    """A closed-loop solve workload: one solver over a family mix.

    ``mix`` lists ``(family, scale, instances per round)``; a run's tasks
    are ``round(seconds / (PASSES * round_seconds))`` rounds, where
    ``round_seconds`` is one round's time in a pass at the commit that defined
    the benchmark (2-core x86-64), so its passes measure for about
    ``--seconds``.
    """

    solver: str
    mix: Tuple[Tuple[str, float, int], ...]
    round_seconds: float
    proof: bool = False


#: Table 1's four families, scaled so each instance takes 10-40 ms.
TABLE1_MIX = (("grout", 0.5, 1), ("ptl", 0.3, 1), ("mcnc", 0.4, 1), ("acc", 0.8, 1))

SOLVE_WORKLOADS: Dict[str, SolveSpec] = {
    "table1-lpr": SolveSpec("bsolo-lpr", TABLE1_MIX, 0.069),
    "search-mis": SolveSpec("bsolo-mis", (("ptl", 0.4, 8), ("grout", 0.6, 5)), 0.29),
    "certified": SolveSpec("bsolo-lpr", TABLE1_MIX, 0.093, proof=True),
}

#: Service jobs: those whose index ends in these digits (30%) are renamed
#: resubmissions of an earlier job, drawn from the ``RESUBMIT_WINDOW`` jobs
#: before it but never from the last ``RESUBMIT_GAP`` (those may still be in
#: flight on the other client).  A fixed pattern, not a coin flip, keeps the
#: share of cache hits the same in every stretch of the stream.
RESUBMITTED_DIGITS = (2, 5, 8)
RESUBMIT_WINDOW = 64
RESUBMIT_GAP = 4
WARMUP_JOBS = 4


@dataclass
class Task:
    """One input handed to the program, with what a right answer must be."""

    label: str
    text: str
    #: ``(status, cost)`` of the reference; cost is None when only the
    #: model can be checked (satisfaction rows) or nothing exists (unsat).
    expected: Tuple[str, Optional[int]]
    #: The generated instance (solve workloads hand it to the program).
    instance: object = None


def family_instance(family: str, scale: float, seed: int):
    """One instance of a Table 1 family at ``scale``, or a service job.

    The size rules are ``repro.experiments.table1.family_instances``'s; the
    planted jobs are servebench's 10-variable instances (``scale`` unused).
    """
    if family == "grout":
        side = max(2, round(6 * scale))
        return generate_routing(
            rows=side, cols=side, nets=max(2, round(14 * scale)),
            capacity=2, detours=5, seed=2005 + seed,
        )
    if family == "ptl":
        return generate_ptl_mapping(
            nodes=max(3, round(22 * scale)),
            extra_edges=max(1, round(11 * scale)),
            seed=432 + seed,
        )
    if family == "mcnc":
        return generate_covering(
            minterms=max(4, round(70 * scale)),
            implicants=max(3, round(36 * scale)),
            density=0.11, max_cost=120, seed=1991 + seed,
        )
    if family == "acc":
        return generate_scheduling(teams=max(4, 2 * round(5 * scale)), seed=1997 + seed)
    if family == "planted":
        return generate_planted(
            num_variables=10, num_constraints=16, max_arity=3, seed=9000 + seed
        )[0]
    raise ValueError("unknown family %r" % family)


#: Independent baselines whose answers make the reference: LP branch and
#: bound without SAT techniques, and SAT-based linear search on the cost.
REFERENCE_SOLVERS = ("milp", "cutting-planes")


def reference(instance, text: str,
              solvers: Sequence[str] = REFERENCE_SOLVERS) -> Tuple[str, Optional[int]]:
    """The right answer, from baselines that share no search with bsolo.

    ``milp`` alone is not enough: on a few instances in a thousand it
    claims unsatisfiability or optimality wrongly.  So each baseline's
    model is checked, a valid model refutes another baseline's
    unsatisfiability claim, and the cheapest valid optimum wins.

    Satisfaction-only instances (the acc rows) are skipped: the generator
    pins matches taken from a real round-robin schedule, so they are
    satisfiable by construction and only the returned model is checked.
    """
    if instance.is_satisfaction:
        return SATISFIABLE, None
    checker = Checker(text)
    optima, unsatisfiable = [], False
    for solver in solvers:
        result = make_solver(instance, solver, SolverOptions(time_limit=TIME_LIMIT)).solve()
        if result.status == UNSATISFIABLE:
            unsatisfiable = True
        elif result.status == OPTIMAL and checker.problem(
            (OPTIMAL, None), OPTIMAL, result.best_cost, result.best_assignment
        ) is None:
            optima.append(result.best_cost)
    if optima:
        return OPTIMAL, min(optima)
    if unsatisfiable:
        return UNSATISFIABLE, None
    raise RuntimeError("no baseline of %s answered" % (solvers,))


def solve_tasks(spec: SolveSpec, seed: int, seconds: float) -> Tuple[List[Task], List[Task]]:
    """A solve workload's measured tasks and its warm-up tasks.

    Families interleave round by round, so every family keeps its share of
    the run.  Warm-up takes one instance per family from one round past the
    measured ones, so no measured instance is ever solved twice.
    """
    rounds = max(1, round(seconds / (PASSES * spec.round_seconds)))
    tasks: List[Task] = []
    warmup: List[Task] = []
    for round_index in range(rounds + 1):
        for family, scale, count in spec.mix:
            for k in range(count if round_index < rounds else 1):
                index = round_index * count + k
                instance = family_instance(family, scale, seed * SEED_STRIDE + index)
                text = write(instance)
                task = Task("%s-%d" % (family, index + 1), text, reference(instance, text), instance)
                (tasks if round_index < rounds else warmup).append(task)
    return tasks, warmup


def _planted(seed: int, index: int) -> Task:
    instance = family_instance("planted", 1.0, seed * SEED_STRIDE + index)
    text = write(instance)
    return Task("planted-%d" % (index + 1), text, reference(instance, text, ("brute-force",)))


def service_jobs(seed: int, count: int) -> Tuple[List[Task], List[Task]]:
    """The service job stream (planted instances and renamed resubmissions)
    and ``WARMUP_JOBS`` further planted jobs to warm the server with."""
    rng = random.Random(seed)
    jobs: List[Task] = []
    for k in range(count):
        if k > RESUBMIT_GAP and k % 10 in RESUBMITTED_DIGITS:
            source = jobs[rng.randrange(max(0, k - RESUBMIT_WINDOW), k - RESUBMIT_GAP)]
            jobs.append(Task("%s~%d" % (source.label, k), rename(source.text, rng), source.expected))
        else:
            jobs.append(_planted(seed, k))
    return jobs, [_planted(seed, count + k) for k in range(WARMUP_JOBS)]


_VARIABLE = re.compile(r"x(\d+)")


def rename(text: str, rng: random.Random) -> str:
    """OPB text with its variables permuted and its constraints reordered."""
    used = sorted({int(name) for name in _VARIABLE.findall(text)})
    target = list(used)
    rng.shuffle(target)
    mapping = dict(zip(used, target))
    lines = text.splitlines()
    head = [line for line in lines if line.startswith(("*", "min:"))]
    body = [line for line in lines if not line.startswith(("*", "min:"))]
    rng.shuffle(body)
    return "".join(
        _VARIABLE.sub(lambda m: "x%d" % mapping[int(m.group(1))], line) + "\n"
        for line in head + body
    )


def digest(tasks: Sequence[Task]) -> str:
    """SHA-256 over every input text, in the order the program gets them."""
    hasher = hashlib.sha256()
    for task in tasks:
        hasher.update(task.text.encode("utf-8"))
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# Answer check
# ----------------------------------------------------------------------
_ROW = re.compile(r"^(.*?)(>=|<=|=)\s*(-?\d+)\s*;$")
_TERM = re.compile(r"([+-]?\d+)\s+(~?)x(\d+)")


def _terms(text: str) -> List[Tuple[int, bool, int]]:
    return [(int(coef), bar == "~", int(var)) for coef, bar, var in _TERM.findall(text)]


class Checker:
    """Re-evaluates an answer against the OPB text it answers.

    It reads the text itself instead of asking ``repro.pb``, so a defect
    in the program's own constraint arithmetic cannot hide a wrong model.
    """

    def __init__(self, text: str):
        self.offset = 0
        self.objective: List[Tuple[int, bool, int]] = []
        self.rows: List[Tuple[List[Tuple[int, bool, int]], str, int]] = []
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("* offset="):
                self.offset = int(line.split("=", 1)[1])
            elif line.startswith("min:"):
                self.objective = _terms(line[len("min:"):])
            elif line and not line.startswith("*"):
                match = _ROW.match(line)
                if match is None:
                    raise ValueError("unexpected OPB line %r" % line)
                lhs, relation, rhs = match.groups()
                self.rows.append((_terms(lhs), relation, int(rhs)))
        self.variables = {var for _, _, var in self.objective}
        for terms, _, _ in self.rows:
            self.variables.update(var for _, _, var in terms)

    @staticmethod
    def _sum(terms, model: Mapping[int, int]) -> int:
        return sum(coef * (1 - model[var] if bar else model[var]) for coef, bar, var in terms)

    def problem(
        self,
        expected: Tuple[str, Optional[int]],
        status: str,
        cost: Optional[int],
        model: Optional[Mapping] = None,
    ) -> Optional[str]:
        """Why the answer is not right, or None when it is."""
        want_status, want_cost = expected
        if status not in (OPTIMAL, SATISFIABLE, UNSATISFIABLE):
            return UNSOLVED
        if status != want_status:
            return "status %s, reference %s" % (status, want_status)
        if status == UNSATISFIABLE:
            return None
        if not model:
            return "no model returned"
        values = {int(var): int(value) for var, value in model.items()}
        missing = self.variables.difference(values)
        if missing:
            return "model leaves %d variables unassigned" % len(missing)
        violated = 0
        for terms, relation, rhs in self.rows:
            total = self._sum(terms, values)
            holds = total >= rhs if relation == ">=" else total <= rhs if relation == "<=" else total == rhs
            violated += not holds
        if violated:
            return "model violates %d constraints" % violated
        real = self.offset + self._sum(self.objective, values)
        if cost != real:
            return "reported cost %s, model costs %d" % (cost, real)
        if want_cost is not None and real != want_cost:
            return "cost %d, reference %d" % (real, want_cost)
        return None

"""Independent verification of solver results.

A solver's answer is only as trustworthy as its implementation; this
module re-checks results with machinery independent of the search:

* **feasibility**: the reported assignment satisfies every constraint
  and its cost matches ``best_cost``;
* **optimality certificate**: adding ``sum c_j x_j <= best - 1`` must
  make the instance unsatisfiable — proven by a *different* solver
  configuration (default: the PBS-like linear search, which shares no
  branch-and-bound machinery with bsolo);
* **unsatisfiability**: cross-checked by the independent solver.

:func:`verify_result` returns a structured :class:`VerifyOutcome`
distinguishing *verified* (every applicable certificate was established)
from *unverified* (the checks that ran passed, but the prover's budget
expired before the optimality/unsatisfiability certificate landed).
Outright refutation raises :class:`VerificationError`.  For answers that
must be checkable without trusting *any* solver, see the proof-logging
path instead (:mod:`repro.certify`, ``SolverOptions(proof=...)``).

Used by the test-suite's differential harness and available to users via
:func:`verify_result`.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..pb.instance import PBInstance
from .cuts import CutGenerator
from .options import SolverOptions
from .result import OPTIMAL, SATISFIABLE, SolveResult, UNSATISFIABLE


class VerificationError(AssertionError):
    """The result failed an independent check."""


class VerifyOutcome:
    """Structured verdict of :func:`verify_result`.

    ``status`` is ``"verified"`` when every check applicable to the
    result's claim ran and passed, or ``"unverified"`` when the checks
    that ran all passed but the independent prover exhausted its budget
    before certifying optimality/unsatisfiability — an honest "could not
    confirm", which older callers used to receive as an undistinguished
    ``True``.  A check *failing* never produces an outcome: it raises
    :class:`VerificationError`.

    Instances are always truthy (``assert verify_result(...)`` keeps
    working); branch on :attr:`verified` to treat budget-exhausted runs
    distinctly.
    """

    VERIFIED = "verified"
    UNVERIFIED = "unverified"

    __slots__ = ("status", "checks", "detail")

    def __init__(self, status: str, checks: Tuple[str, ...], detail: str = ""):
        #: ``"verified"`` or ``"unverified"``.
        self.status = status
        #: Names of the checks that ran and passed, in order.
        self.checks = checks
        #: Human-readable note (why the result stayed unverified).
        self.detail = detail

    @property
    def verified(self) -> bool:
        """True when every applicable certificate was established."""
        return self.status == self.VERIFIED

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:
        extra = " (%s)" % self.detail if self.detail else ""
        return "VerifyOutcome(%s: %s%s)" % (
            self.status, "+".join(self.checks) or "none", extra
        )


def _default_prover(instance: PBInstance, time_limit: Optional[float]):
    from ..baselines.linear_search import LinearSearchSolver

    return LinearSearchSolver(instance, SolverOptions(time_limit=time_limit)).solve()


def verify_result(
    instance: PBInstance,
    result: SolveResult,
    prover: Optional[Callable[[PBInstance, Optional[float]], SolveResult]] = None,
    time_limit: Optional[float] = None,
) -> VerifyOutcome:
    """Verify ``result`` against ``instance``.

    Returns a :class:`VerifyOutcome` (always truthy); raises
    :class:`VerificationError` when a check refutes the result.  A
    ``prover`` may be supplied (a callable ``(instance, time_limit) ->
    SolveResult``); when the prover returns without an answer (budget
    exhausted) the outcome's status is ``"unverified"`` rather than a
    silent pass — feasibility is always enforced first.
    """
    prover = prover or _default_prover

    if result.status == UNSATISFIABLE:
        check = prover(instance, time_limit)
        if check.status in (SATISFIABLE, OPTIMAL):
            raise VerificationError(
                "solver said UNSATISFIABLE but the prover found %r" % (check,)
            )
        if check.status != UNSATISFIABLE:
            return VerifyOutcome(
                VerifyOutcome.UNVERIFIED,
                (),
                "prover returned %s before certifying unsatisfiability"
                % check.status,
            )
        return VerifyOutcome(VerifyOutcome.VERIFIED, ("unsatisfiability",))

    checks: Tuple[str, ...] = ()
    if result.status in (OPTIMAL, SATISFIABLE):
        _check_feasibility(instance, result)
        checks = ("feasibility", "cost")
    if result.status != OPTIMAL:
        return VerifyOutcome(VerifyOutcome.VERIFIED, checks)

    # Optimality: no strictly better solution may exist.
    internal_cost = result.best_cost - instance.objective.offset
    cut = CutGenerator(instance).knapsack_cut(internal_cost)
    if cut is None:
        # cost is already the minimum conceivable (0 over costed vars)
        return VerifyOutcome(VerifyOutcome.VERIFIED, checks + ("optimality",))
    try:
        improved = PBInstance(
            list(instance.constraints) + [cut],
            instance.objective,
            num_variables=instance.num_variables,
        )
    except ValueError:
        # the cut is individually unsatisfiable: nothing better exists
        return VerifyOutcome(VerifyOutcome.VERIFIED, checks + ("optimality",))
    check = prover(improved, time_limit)
    if check.status in (SATISFIABLE, OPTIMAL):
        raise VerificationError(
            "claimed optimum %d, but the prover found a better solution %r"
            % (result.best_cost, check.best_cost)
        )
    if check.status == UNSATISFIABLE:
        return VerifyOutcome(VerifyOutcome.VERIFIED, checks + ("optimality",))
    return VerifyOutcome(
        VerifyOutcome.UNVERIFIED,
        checks,
        "prover returned %s before certifying optimality" % check.status,
    )


def _check_feasibility(instance: PBInstance, result: SolveResult) -> None:
    assignment = result.best_assignment
    if assignment is None:
        raise VerificationError("solved status without an assignment")
    missing = [var for var in instance.variables() if var not in assignment]
    if missing:
        raise VerificationError("assignment misses variables %s" % missing[:5])
    for constraint in instance.constraints:
        if not constraint.is_satisfied_by(assignment):
            raise VerificationError("assignment violates %r" % (constraint,))
    if result.best_cost is not None:
        actual = instance.cost(assignment)
        if actual != result.best_cost:
            raise VerificationError(
                "reported cost %d but the assignment costs %d"
                % (result.best_cost, actual)
            )

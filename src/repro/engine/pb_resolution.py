"""Cutting-plane resolution over pseudo-boolean constraints.

The Galena line of solvers (paper reference [4], Chai & Kuehlmann)
learns *pseudo-boolean* facts from conflicts instead of clauses: two
constraints with opposite-polarity occurrences of a variable are combined
with the non-negative multipliers that cancel it (the cutting-plane
rule), then saturated; PB constraints may additionally be weakened to
cardinality constraints (*cardinality reduction*) to keep coefficients
small.

Each derived constraint is a non-negative linear combination of implied
constraints followed by sound weakenings, hence itself implied — so the
learner below can bolt onto the clausal first-UIP analysis: the clause
drives backjumping/assertion as usual, and the cutting-plane resolvent is
stored as an *extra* learned constraint when it is stronger than a
clause.  (Purely-clausal inputs resolve to exactly the clausal resolvent,
which adds nothing; those are filtered out.)
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

from ..pb.constraints import Constraint

#: Guard rails: resolvents beyond these sizes are cardinality-reduced.
MAX_COEFFICIENT = 1 << 40
MAX_LITERALS = 128


def cardinality_reduction(constraint: Constraint) -> Optional[Constraint]:
    """Weaken a PB constraint to a cardinality constraint it implies.

    ``sum a_j l_j >= b`` implies "at least r of the l_j are true" where
    ``r`` is the count needed even using the largest coefficients first.
    Returns None when the reduction is vacuous or the input is already a
    cardinality constraint.
    """
    if constraint.is_cardinality or constraint.rhs == 0:
        return None
    required = constraint.minimum_true_literals()
    if not isinstance(required, int) or required <= 0:
        return None
    reduced = Constraint.at_least(list(constraint.literals), required)
    if reduced.is_tautology:
        return None
    return reduced


def resolve(first: Constraint, second: Constraint, var: int) -> Optional[Constraint]:
    """Cutting-plane resolution on ``var``.

    ``first`` and ``second`` must contain opposite-polarity literals of
    ``var``; the result is their canceling non-negative combination,
    normalized (which folds the cancellation into the rhs and saturates).
    Returns None when the polarities do not oppose.
    """
    a_pos = first.coefficient(var)
    a_neg = first.coefficient(-var)
    b_pos = second.coefficient(var)
    b_neg = second.coefficient(-var)
    if a_pos and b_neg:
        a, b = a_pos, b_neg
    elif a_neg and b_pos:
        a, b = a_neg, b_pos
    else:
        return None
    g = math.gcd(a, b)
    lambda_first = b // g
    lambda_second = a // g
    terms: List[Tuple[int, int]] = [
        (lambda_first * coef, lit) for coef, lit in first.terms
    ]
    terms.extend((lambda_second * coef, lit) for coef, lit in second.terms)
    rhs = lambda_first * first.rhs + lambda_second * second.rhs
    return Constraint.greater_equal(terms, rhs)


def _tame(constraint: Constraint) -> Optional[Constraint]:
    """Keep resolvent sizes in check via cardinality reduction."""
    too_big = (
        len(constraint) > MAX_LITERALS
        or any(coef > MAX_COEFFICIENT for coef, _ in constraint.terms)
    )
    if not too_big:
        return constraint
    return cardinality_reduction(constraint)


class ResolutionScratch:
    """Flat, reusable coefficient buffers for the resolution walk.

    :func:`derive_resolvent` probes the working resolvent once per
    resolved variable; on a fresh :class:`~repro.pb.constraints.Constraint`
    every probe first builds the constraint's lazy literal->coefficient
    dict — an O(n) allocation per resolution step.  The scratchpad
    instead mirrors the working resolvent into two flat lists indexed by
    variable (the literal present and its coefficient), so the
    "already cancelled" test and the cancellation lookup are plain array
    loads.  Buffers are sparsely cleared through a touched-variable
    worklist, exactly like :class:`~repro.engine.conflict.ConflictAnalyzer`,
    so a derivation costs O(resolvent size), never O(num_variables).

    The combination itself still goes through
    :meth:`Constraint.greater_equal` — normalization's output is
    independent of term order, so each intermediate resolvent is
    byte-identical to what :func:`resolve` builds.

    One instance per search; reused across every conflict.
    """

    __slots__ = ("_lit", "_coef", "_touched")

    def __init__(self, num_variables: int = 0):
        self._lit = [0] * (num_variables + 1)  # literal present (0 = absent)
        self._coef = [0] * (num_variables + 1)  # its coefficient
        self._touched: List[int] = []

    def _load(self, constraint: Constraint) -> None:
        lit_of, coef_of, touched = self._lit, self._coef, self._touched
        size = len(lit_of)
        for coef, lit in constraint.terms:
            var = lit if lit > 0 else -lit
            if var >= size:
                grow = var + 1 - size
                lit_of.extend([0] * grow)
                coef_of.extend([0] * grow)
                size = var + 1
            lit_of[var] = lit
            coef_of[var] = coef
            touched.append(var)

    def _clear(self) -> None:
        lit_of = self._lit
        for var in self._touched:
            lit_of[var] = 0
        self._touched.clear()

    def derive(
        self,
        conflict_constraint: Constraint,
        resolved_variables: Sequence[int],
        antecedent_of: Callable[[int], Optional[Constraint]],
    ) -> Optional[Constraint]:
        """See :func:`derive_resolvent` (same contract, reused buffers)."""
        resolvent = conflict_constraint
        lit_of, coef_of = self._lit, self._coef
        self._load(resolvent)
        try:
            for var in resolved_variables:
                if var >= len(lit_of) or not lit_of[var]:
                    continue  # already cancelled along the way
                antecedent = antecedent_of(var)
                if antecedent is None:
                    return None
                a = coef_of[var]
                # The antecedent's lazy coefficient dict persists on the
                # stored constraint, so this lookup amortizes across
                # conflicts (unlike one on the throwaway resolvent).
                b = antecedent.coefficient(-lit_of[var])
                if not b:
                    return None  # polarities do not oppose
                g = math.gcd(a, b)
                lambda_first = b // g
                lambda_second = a // g
                terms: List[Tuple[int, int]] = [
                    (lambda_first * coef, lit) for coef, lit in resolvent.terms
                ]
                terms.extend(
                    (lambda_second * coef, lit) for coef, lit in antecedent.terms
                )
                rhs = lambda_first * resolvent.rhs + lambda_second * antecedent.rhs
                combined = Constraint.greater_equal(terms, rhs)
                if combined.is_tautology:
                    return None
                tamed = _tame(combined)
                if tamed is None:
                    return None
                resolvent = tamed
                self._clear()
                self._load(resolvent)
        finally:
            self._clear()
        if resolvent.is_tautology or resolvent.is_clause:
            return None  # nothing beyond the clausal learner
        return resolvent


def derive_resolvent(
    conflict_constraint: Constraint,
    resolved_variables: Sequence[int],
    antecedent_of: Callable[[int], Optional[Constraint]],
) -> Optional[Constraint]:
    """Replay the first-UIP resolution walk with cutting planes.

    ``resolved_variables`` comes from
    :attr:`~repro.engine.conflict.AnalysisResult.resolved_variables`;
    ``antecedent_of`` maps a variable to the PB constraint that implied
    it (None aborts — e.g. the literal was asserted by the solver, not
    propagation).  Returns the final implied constraint, or None when the
    derivation is impossible or yields nothing beyond a clause.

    Convenience wrapper over :class:`ResolutionScratch`; long-running
    callers (:class:`~repro.baselines.sat_search.DecisionSearch`) hold
    one scratchpad and reuse it instead.
    """
    return ResolutionScratch().derive(
        conflict_constraint, resolved_variables, antecedent_of
    )

"""Constraint generation from improved solutions (paper Section 5).

Two families of cuts are added whenever a better solution (upper bound
``ub``) is found:

* the *knapsack constraint* (eq. 10)::

      sum_j c_j x_j <= ub - 1

  which forces every later solution to improve on the incumbent, and

* *cardinality-derived* constraints (eq. 11-13): for each cardinality
  constraint ``sum_{j in K} x_j >= U`` over positive literals, any
  solution pays at least ``V`` = the sum of the ``U`` smallest costs in
  ``K``, hence::

      sum_{j in N-K} c_j x_j <= ub - 1 - V

A cut whose right-hand side is negative proves that no better solution
exists at all — the caller can declare the incumbent optimal.

Only the right-hand side of a cut depends on ``ub``: its terms are the
objective's (restricted to ``N-K``), negated into ``>=`` form.  Each cut
is therefore normalized once, on the first incumbent, into a
:class:`_CutTemplate`; later incumbents compute the rhs and saturate the
coefficients that exceed it.  The emitted constraint equals
``Constraint.less_equal(terms, rhs)`` built from scratch.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..pb.constraints import Constraint, Term, normalize_terms
from ..pb.instance import PBInstance


class _CutTemplate:
    """``sum c_j x_j <= budget`` in normalized ``>=`` form, for any budget.

    ``terms`` are the unsaturated normalized terms ``c_j ~x_j``.  Costs
    are positive (:class:`~repro.pb.objective.Objective`), so negation
    moves exactly their ``total`` to the rhs: the cut for ``budget`` is
    ``terms >= total - budget`` with coefficients saturated at that rhs.
    """

    __slots__ = ("terms", "total", "max_coef")

    def __init__(self, costs: List[Term]):
        # Normalized at rhs offset 1 so the rhs stays positive and the
        # terms survive (a tautology would normalize to no terms).
        self.terms, rhs = normalize_terms(
            [(-cost, var) for cost, var in costs], 1, saturate=False
        )
        self.total = rhs - 1
        self.max_coef = max((coef for coef, _ in self.terms), default=0)

    def cut(self, budget: int) -> Optional[Constraint]:
        """The cut ``sum c_j x_j <= budget``, or None for a tautology."""
        rhs = self.total - budget
        if rhs <= 0:
            return None
        terms = self.terms
        if self.max_coef > rhs:
            terms = tuple((coef if coef <= rhs else rhs, lit) for coef, lit in terms)
        return Constraint(terms, rhs)


class CutGenerator:
    """Produces eq. 10 / eq. 13 cuts for a given instance."""

    def __init__(self, instance: PBInstance, cardinality_cuts: bool = True):
        self._objective = instance.objective
        # Pre-extract the cardinality constraints usable by eq. 11: all
        # literals positive (the "smallest costs" argument needs x_j = 1
        # to be what pays).  The source constraints themselves are kept
        # so each emitted cut can name the input it was derived from
        # (proof logging references cuts by source id).
        self._cardinalities: List[Constraint] = []
        if cardinality_cuts:
            for constraint in instance.constraints:
                if not constraint.is_cardinality:
                    continue
                if any(lit < 0 for lit in constraint.literals):
                    continue
                if constraint.cardinality_threshold >= 1:
                    self._cardinalities.append(constraint)
        # Built on the first incumbent, so solves that never find one
        # (and solver set-up) pay nothing.
        self._knapsack: Optional[_CutTemplate] = None
        #: ``(source, V, template over N-K)`` per source with ``V > 0``,
        #: in input order.
        self._eq13: Optional[List[Tuple[Constraint, int, _CutTemplate]]] = None

    # ------------------------------------------------------------------
    def knapsack_cut(self, upper: int) -> Optional[Constraint]:
        """Eq. 10: require cost at most ``upper - 1`` (path-cost scale,
        i.e. excluding the objective offset)."""
        costs = self._objective.costs
        if not costs:
            return None
        if self._knapsack is None:
            self._knapsack = _CutTemplate(
                [(cost, var) for var, cost in costs.items()]
            )
        return self._knapsack.cut(upper - 1)

    def _eq13_templates(self) -> List[Tuple[Constraint, int, _CutTemplate]]:
        if self._eq13 is None:
            costs = self._objective.costs
            self._eq13 = []
            for source in self._cardinalities:
                members = source.literals
                threshold = source.cardinality_threshold
                member_costs = sorted(costs.get(var, 0) for var in members)
                value_v = sum(member_costs[:threshold])
                if value_v <= 0:
                    continue  # eq. 12 gives nothing
                member_set = set(members)
                outside = [
                    (cost, var)
                    for var, cost in costs.items()
                    if var not in member_set
                ]
                self._eq13.append((source, value_v, _CutTemplate(outside)))
        return self._eq13

    def cuts(
        self, upper: int
    ) -> Tuple[List[Tuple[Optional[Constraint], Constraint]], Optional[Constraint]]:
        """Every cut for a new incumbent of cost ``upper``, keyed by source.

        Returns ``(keyed, proven_source)``.  ``keyed`` holds
        ``(source, cut)`` pairs: source None for the eq. 10 knapsack cut,
        then each eq. 13 cut with the cardinality input it was derived
        from, in input order.  A source's cut keeps its terms while
        ``upper`` falls unless a coefficient saturates, so the solver
        keeps one engine row per source and tightens it.
        ``proven_source`` is the input whose cut's rhs went negative
        (eq. 12's ``V`` alone reaches the bound, so the incumbent is
        optimal), or None; ``keyed`` then stops before it.
        """
        knapsack = self.knapsack_cut(upper)
        keyed: List[Tuple[Optional[Constraint], Constraint]] = (
            [] if knapsack is None else [(None, knapsack)]
        )
        for source, value_v, template in self._eq13_templates():
            budget = upper - 1 - value_v
            if budget < 0:
                return keyed, source
            cut = template.cut(budget)
            if cut is not None:  # None: no cost outside K can exceed it
                keyed.append((source, cut))
        return keyed, None

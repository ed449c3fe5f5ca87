"""Exact-arithmetic derivation rules shared by logger and checker.

Everything here operates on :class:`repro.pb.constraints.Constraint`
objects with integer (or :class:`fractions.Fraction`) arithmetic — no
floats, no solver state.  The :class:`~repro.certify.logger.ProofLogger`
uses these functions to *self-check* each bound certificate before
emitting it (the solver declines a prune whose certificate fails, which
is sound — it merely searches a little longer), and the
:class:`~repro.certify.checker.ProofChecker` uses the same functions as
the ground truth when replaying a log.  The checker therefore never has
to trust the solver's floating-point bound computations: its `ceil`
arithmetic is exact by construction.

The module deliberately re-implements the Section 5 rows
(:class:`CutReplayer`) instead of importing :mod:`repro.core.cuts`: the
checker's trust base must exclude the solver.  The logger replays each
cut through *this* replica and refuses to log (and the solver drops the
cut) on any divergence, so the two implementations can never silently
disagree inside a proof.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..pb.constraints import Constraint, normalize_terms


# ----------------------------------------------------------------------
# Linear combination (cutting-planes addition) and the implication test
# ----------------------------------------------------------------------
def combine(parts: Sequence[Tuple[Constraint, int]]) -> Constraint:
    """Non-negative integer combination ``sum_i mult_i * C_i``.

    Each part is ``(constraint, multiplier)`` with ``multiplier >= 1``
    (zero multipliers may simply be omitted).  The result is normalized
    — opposite literals cancel into the rhs and coefficients saturate —
    both of which are sound strengthenings over 0/1 assignments, so the
    result is implied by the parts.
    """
    terms: List[Tuple[int, int]] = []
    rhs = 0
    for constraint, mult in parts:
        if mult <= 0:
            raise ValueError("combination multipliers must be positive")
        terms.extend((mult * coef, lit) for coef, lit in constraint.terms)
        rhs += mult * constraint.rhs
    return Constraint.greater_equal(terms, rhs)


def clause_cut_off(combined: Constraint, clause: Iterable[int]) -> bool:
    """Whether falsifying every literal of ``clause`` violates ``combined``.

    True means ``combined`` implies the clause: any assignment with all
    clause literals false leaves ``combined`` a supply strictly below its
    rhs (even granting every *other* literal its coefficient), which is
    impossible for satisfying assignments.
    """
    clause_set = set(clause)
    supply = sum(
        coef for coef, lit in combined.terms if lit not in clause_set
    )
    return supply < combined.rhs


def check_linear_bound(
    clause: Sequence[int], parts: Sequence[Tuple[Constraint, int]]
) -> bool:
    """The ``b l`` rule: the combination must cut off ``~clause``.

    ``parts`` typically pairs the current improvement axiom
    (``sum c_j x_j <= upper - 1``) with LP-dual or Lagrangian multipliers
    rationalized to integers; the test is sound for *any* non-negative
    multipliers over implied constraints, so the checker need not know
    where they came from.
    """
    if not parts:
        return False
    try:
        combined = combine(parts)
    except ValueError:
        return False
    return clause_cut_off(combined, clause)


# ----------------------------------------------------------------------
# MIS bound certificates (paper Section 3.1 / 4, exact rational replay)
# ----------------------------------------------------------------------
def ceil_fraction(value: Fraction) -> int:
    """Exact ceiling of a rational (no float round-off)."""
    return -((-value.numerator) // value.denominator)


def min_cost_to_satisfy(
    constraint: Constraint,
    clause_set: Set[int],
    costs: Mapping[int, int],
    path_vars: Set[int],
) -> Optional[Fraction]:
    """Fractional-knapsack minimum cost of satisfying ``constraint``
    using only literals outside ``clause_set``.

    Literals in the clause are unavailable (the certificate describes
    assignments falsifying the whole clause); every other literal may be
    set true, charging ``costs[var]`` for a positive literal of a costed
    variable not already paid for on the path, and nothing otherwise.
    The fractional relaxation never overestimates the true 0/1 minimum,
    which keeps the resulting lower bound sound.  Returns None when even
    all available literals cannot reach the rhs (the constraint is
    unsatisfiable under ``~clause``: an infinite bound).
    """
    available: List[Tuple[Fraction, int]] = []  # (unit cost, coefficient)
    supply = 0
    for coef, lit in constraint.terms:
        if lit in clause_set:
            continue
        supply += coef
        if lit > 0 and lit not in path_vars:
            charge = costs.get(lit, 0)
        else:
            charge = 0
        available.append((Fraction(charge, coef), coef))
    if supply < constraint.rhs:
        return None
    available.sort(key=lambda item: item[0])
    remaining = constraint.rhs
    total = Fraction(0)
    for unit_cost, coef in available:
        if remaining <= 0:
            break
        take = coef if coef <= remaining else remaining
        total += unit_cost * take
        remaining -= take
    return total


def charged_variables(
    constraint: Constraint,
    clause_set: Set[int],
    costs: Mapping[int, int],
    path_vars: Set[int],
) -> Set[int]:
    """Variables whose cost :func:`min_cost_to_satisfy` may charge."""
    charged: Set[int] = set()
    for _, lit in constraint.terms:
        if lit in clause_set or lit < 0 or lit in path_vars:
            continue
        if costs.get(lit, 0) > 0:
            charged.add(lit)
    return charged


def check_mis_bound(
    clause: Sequence[int],
    path_vars: Sequence[int],
    responsible: Sequence[Constraint],
    costs: Mapping[int, int],
    upper: int,
) -> bool:
    """The ``b m`` rule: exact replay of the MIS lower-bound argument.

    Certifies the clause as implied under ``cost <= upper - 1``: any
    assignment falsifying every clause literal pays the path (each listed
    path variable is costed and pinned to 1 because its negation is in
    the clause) plus, for each responsible constraint, an independent
    minimum satisfaction cost — independence holds because the chargeable
    variable sets are pairwise disjoint and disjoint from the path.  When
    ``path + ceil(sum of minima) >= upper`` no such assignment can beat
    the incumbent, so every improving solution satisfies the clause.
    """
    clause_set = set(clause)
    path_set = set(path_vars)
    if len(path_set) != len(tuple(path_vars)):
        return False
    path = 0
    for var in path_set:
        cost = costs.get(var, 0)
        if cost <= 0 or -var not in clause_set:
            return False
        path += cost
    total = Fraction(0)
    seen_charged: Set[int] = set()
    for constraint in responsible:
        minimum = min_cost_to_satisfy(constraint, clause_set, costs, path_set)
        if minimum is None:
            return True  # unsatisfiable under ~clause: bound is infinite
        if minimum <= 0:
            continue
        charged = charged_variables(constraint, clause_set, costs, path_set)
        if charged & seen_charged:
            return False  # double-charged variable: accounting unsound
        seen_charged |= charged
        total += minimum
    return path + ceil_fraction(total) >= upper


# ----------------------------------------------------------------------
# Section 5 cuts recomputed from the certified incumbent
# ----------------------------------------------------------------------
class _CutTemplate:
    """``sum c_j x_j <= budget`` in normalized ``>=`` form, for any budget.

    ``terms`` are the unsaturated normalized terms ``c_j ~x_j``.  Costs
    are positive, so negation moves exactly their ``total`` to the rhs:
    the row for ``budget`` is ``terms >= total - budget`` with the
    coefficients saturated at that rhs, which equals
    ``Constraint.less_equal(costs, budget)`` built from scratch.
    """

    __slots__ = ("terms", "total", "max_coef")

    def __init__(self, terms: Tuple[Tuple[int, int], ...]):
        self.terms = terms
        self.total = sum(coef for coef, _ in terms)
        self.max_coef = max((coef for coef, _ in terms), default=0)

    @classmethod
    def of_costs(cls, costs: Mapping[int, int]) -> "_CutTemplate":
        """The template of the whole objective."""
        # Normalized at rhs offset 1 so the rhs stays positive and the
        # terms survive (a tautology would normalize to no terms).
        terms, _ = normalize_terms(
            [(-cost, var) for var, cost in costs.items()], 1, saturate=False
        )
        return cls(terms)

    def without(self, variables: Set[int]) -> "_CutTemplate":
        """The template over the costs outside ``variables``: dropping
        terms keeps a normalized row normalized."""
        return _CutTemplate(
            tuple(term for term in self.terms if -term[1] not in variables)
        )

    def row(self, budget: int) -> Optional[Constraint]:
        """The row ``sum c_j x_j <= budget``, or None for a tautology."""
        rhs = self.total - budget
        if rhs <= 0:
            return None
        terms = self.terms
        if self.max_coef > rhs:
            terms = tuple(
                (coef if coef <= rhs else rhs, lit) for coef, lit in terms
            )
        return Constraint(terms, rhs)


class CutReplayer:
    """The Section 5 rows of one proof, re-derived from the objective.

    Only a row's rhs depends on the incumbent, so each row's terms are
    normalized once per proof (the eq. 10 row on construction, an
    eq. 13 row on its source's first use) and saturated for each
    ``upper``.  A checker-side replica of the solver's cut generator:
    the logger self-checks the solver's cuts against it and the checker
    derives the ``o``/``t`` rows with it.  ``upper`` is on the path-cost
    scale (offset excluded).
    """

    def __init__(self, costs: Mapping[int, int]):
        self._costs = costs
        self._objective = _CutTemplate.of_costs(costs) if costs else None
        #: source -> ``(V, template over N-K)``, or None when the source
        #: yields no eq. 13 row at any bound.
        self._eq13: Dict[Constraint, Optional[Tuple[int, _CutTemplate]]] = {}

    def improvement_axiom(self, upper: int) -> Constraint:
        """The ``o`` step's axiom ``sum c_j x_j <= upper - 1``.

        The tautology ``0 >= 0`` when no solution can cost more than
        that (always, for a constant objective: satisfaction runs derive
        nothing from a solution beyond its feasibility).
        """
        if self._objective is not None:
            row = self._objective.row(upper - 1)
            if row is not None:
                return row
        return Constraint((), 0)

    def cardinality_cut(
        self, source: Constraint, upper: int
    ) -> Optional[Constraint]:
        """The ``t`` step: the eq. 13 row of ``source`` at ``upper``.

        ``source`` must be a cardinality constraint over positive
        literals; satisfying it costs at least ``V`` (the sum of its
        ``threshold`` smallest member costs), so under
        ``cost <= upper - 1`` the variables outside it can spend at most
        ``upper - 1 - V``.  A negative budget yields an unsatisfiable row
        (the incumbent is optimal).  Returns None when the row is vacuous
        (V = 0, or no cost outside the members can exceed the budget).
        """
        try:
            entry = self._eq13[source]
        except KeyError:
            entry = self._eq13[source] = self._eq13_template(source)
        if entry is None:
            return None
        value_v, template = entry
        # budget < 0: rhs > total, an unsatisfiable row (normalizing to
        # "0 >= positive" when nothing lies outside the members).
        return template.row(upper - 1 - value_v)

    def _eq13_template(
        self, source: Constraint
    ) -> Optional[Tuple[int, _CutTemplate]]:
        costs = self._costs
        if self._objective is None or not source.is_cardinality:
            return None
        members = source.literals
        if any(lit < 0 for lit in members):
            return None
        threshold = source.cardinality_threshold
        if threshold < 1:
            return None
        member_costs = sorted(costs.get(var, 0) for var in members)
        value_v = sum(member_costs[:threshold])
        if value_v <= 0:
            return None
        return value_v, self._objective.without(set(members))

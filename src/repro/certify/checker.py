"""Independent proof checker (trust base: ``repro.pb`` + this file).

Replays a ``repro`` cutting-planes proof (see :mod:`repro.certify.format`)
against a parsed OPB instance.  Each step must be a sound derivation
from the constraint database built so far — RUP clauses are re-propagated
with an internal slack-counting engine, cuts and bound certificates are
recomputed with the exact arithmetic of :mod:`repro.certify.rules` — and the final claim is checked against the
verified incumbent and contradiction.  Any mismatch raises
:class:`ProofError` carrying the 1-based step number and source line.

Deliberately imports **nothing** from ``repro.core`` or ``repro.engine``:
a bug in the solver or its propagation engine cannot leak into the
judgement of its own proofs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..pb.constraints import Constraint
from ..pb.instance import PBInstance
from . import format as fmt
from . import rules


class ProofError(Exception):
    """A proof step failed verification (or the log is malformed)."""

    def __init__(self, step: int, line: int, message: str):
        location = "proof step %d" % step if step else "proof header"
        if line:
            location += " (line %d)" % line
        super().__init__("%s: %s" % (location, message))
        #: 1-based index of the offending derivation step (0 = header).
        self.step = step
        #: 1-based source line in the proof file (0 when unknown).
        self.line = line


class CheckOutcome:
    """A successfully verified proof's summary."""

    __slots__ = ("status", "cost", "conditional", "steps", "model")

    def __init__(
        self,
        status: str,
        cost: Optional[int],
        conditional: bool,
        steps: int,
        model: Optional[Dict[int, int]],
    ):
        #: The certified claim: ``optimal``/``satisfiable``/
        #: ``unsatisfiable``/``unknown``.
        self.status = status
        #: Certified cost (objective offset included) when applicable.
        self.cost = cost
        #: True when the proof contains assumption axioms: the claim
        #: holds *under those assumptions*, not unconditionally.
        self.conditional = conditional
        #: Number of derivation steps verified.
        self.steps = steps
        #: The verified incumbent model (``optimal``/``satisfiable``).
        self.model = model

    @property
    def certified(self) -> bool:
        """Whether the proof certifies an actual claim (not ``unknown``)."""
        return self.status != "unknown"

    def __repr__(self) -> str:
        return "CheckOutcome(%s, cost=%s, steps=%d%s)" % (
            self.status,
            self.cost,
            self.steps,
            ", conditional" if self.conditional else "",
        )


class _Database:
    """Slack-counting constraint database with persistent root state.

    Keeps, for every row, its slack under the root-implied assignment
    (units, and their propagation closure, discovered as rows are
    added) and propagates with the textbook rule: a literal whose
    coefficient exceeds its row's slack is implied true; negative slack
    is a conflict.  Each row stores its terms once, largest coefficient
    first, so a scan for implications stops at the first coefficient
    the slack covers.  A RUP query asserts the clause's negation on the
    root state itself and undoes its own assignments from their trail.

    A keyed row (one per Section 5 cut source) is tightened in place
    when the key's next constraint has the same terms: its rhs is at
    least as high, so it implies the old row, and dropping the old row
    loses no propagation.
    """

    def __init__(self):
        #: Per row: its terms by descending coefficient, and its slack.
        self._terms: List[Tuple[Tuple[int, int], ...]] = []
        self._slack: List[int] = []
        #: literal -> [(row index, coefficient)] occurrences.
        self._occ: Dict[int, List[Tuple[int, int]]] = {}
        #: literal -> truth value, for both literals of every assigned
        #: variable (an unassigned literal is absent).
        self._value: Dict[int, bool] = {}
        #: key -> (row index, the constraint the row holds).
        self._live: Dict[object, Tuple[int, Constraint]] = {}
        #: The root state itself derives a violated constraint.
        self.root_conflict = False

    def add(self, constraint: Constraint, key: object = None) -> None:
        """Add a row (or tighten ``key``'s live row) and fold its
        implications into the root state."""
        if self.root_conflict:
            return  # every clause is RUP from here on
        if key is not None:
            live = self._live.get(key)
            if live is not None:
                index, held = live
                # A key's bound only falls, so its rhs only rises.
                if held.terms == constraint.terms:
                    self._live[key] = (index, constraint)
                    self._slack[index] -= constraint.rhs - held.rhs
                    self._root_implications(index)
                    return
        if constraint.rhs <= 0:
            return  # a tautology implies nothing
        index = len(self._terms)
        terms = tuple(sorted(constraint.terms, reverse=True))
        value = self._value
        slack = -constraint.rhs
        for coef, lit in terms:
            self._occ.setdefault(lit, []).append((index, coef))
            if value.get(lit, True):
                slack += coef
        self._terms.append(terms)
        self._slack.append(slack)
        if key is not None:
            self._live[key] = (index, constraint)
        self._root_implications(index)

    def _root_implications(self, index: int) -> None:
        """Propagate row ``index``'s root implications permanently."""
        slack = self._slack[index]
        if slack < 0:
            self.root_conflict = True
            return
        value = self._value
        trail: List[int] = []
        for coef, lit in self._terms[index]:
            if coef <= slack:
                break
            if lit not in value:
                value[lit] = True
                value[-lit] = False
                trail.append(lit)
        if trail and self._propagate(trail)[1]:
            self.root_conflict = True

    def rup(self, literals: Sequence[int]) -> bool:
        """Whether the clause over ``literals`` is RUP for the database."""
        if self.root_conflict:
            return True
        value = self._value
        trail: List[int] = []
        processed, conflict = 0, False
        for lit in literals:
            known = value.get(lit)
            if known is None:
                value[-lit] = True
                value[lit] = False
                trail.append(-lit)
            elif known:
                conflict = True  # ~lit contradicts the root (or ~clause)
                break
        if not conflict:
            processed, conflict = self._propagate(trail)
        slack = self._slack
        occ = self._occ
        for lit in trail[:processed]:
            for index, coef in occ.get(-lit, ()):
                slack[index] += coef
        for lit in trail:
            del value[lit]
            del value[-lit]
        return conflict

    def _propagate(self, trail: List[int]) -> Tuple[int, bool]:
        """Drive the assigned literals of ``trail`` to a fixed point.

        Appends each implied literal to ``trail`` as it assigns it.
        Returns ``(processed, conflict)``: the first ``processed`` trail
        literals have had every occurrence of their complement charged
        to its row's slack (what an undo must give back), and whether a
        row went below slack 0.
        """
        value = self._value
        slack = self._slack
        occ = self._occ
        terms_of = self._terms
        head = 0
        while head < len(trail):
            lit = trail[head]
            head += 1
            # The complement just became false: its occurrences lose
            # supply, which may violate or tighten them.
            rows = occ.get(-lit)
            if rows is None:
                continue
            conflict = False
            for index, coef in rows:
                remaining = slack[index] - coef
                slack[index] = remaining
                if remaining < 0:
                    conflict = True  # keep charging: the undo is exact
                elif not conflict:
                    for coef2, lit2 in terms_of[index]:
                        if coef2 <= remaining:
                            break
                        if lit2 not in value:
                            value[lit2] = True
                            value[-lit2] = False
                            trail.append(lit2)
            if conflict:
                return head, True
        return head, False


#: The database key of the ``o`` steps' row (``t`` rows are keyed by
#: their source's id, and ids start at 1).
_OBJECTIVE = 0


class ProofChecker:
    """Replays a proof log against ``instance`` (and nothing else)."""

    def __init__(self, instance: PBInstance):
        self._instance = instance
        self._costs = instance.objective.costs
        self._offset = instance.objective.offset
        self._cuts = rules.CutReplayer(self._costs)

    # ------------------------------------------------------------------
    def check_file(self, path: str) -> CheckOutcome:
        """Check a proof file from disk; see :meth:`check_text`."""
        with open(path, "r") as handle:
            return self.check_text(handle.read())

    def check_text(self, text: str) -> CheckOutcome:
        """Verify a whole proof; raises :class:`ProofError` on the first
        unsound, malformed or missing step."""
        try:
            num_inputs, steps = fmt.parse_proof(text)
        except fmt.ProofSyntaxError as exc:
            raise ProofError(0, exc.line, str(exc)) from exc
        constraints = self._instance.constraints
        if num_inputs != len(constraints):
            raise ProofError(
                0,
                0,
                "proof is for %d input constraints, instance has %d"
                % (num_inputs, len(constraints)),
            )
        database = _Database()
        by_id: Dict[int, Constraint] = {}
        for cid, constraint in enumerate(constraints, 1):
            by_id[cid] = constraint
            database.add(constraint)
        next_id = num_inputs + 1

        upper: Optional[int] = None  # path-cost scale
        best_model: Optional[Dict[int, int]] = None
        conditional = False
        contradiction = database.root_conflict
        ended: Optional[fmt.Step] = None

        for number, step in enumerate(steps, 1):
            if ended is not None:
                raise ProofError(
                    number, step.line, "step after the final 'e' claim"
                )
            derived: Optional[Constraint] = None
            key: object = None
            if step.kind == fmt.ASSUMPTION:
                conditional = True
                derived = Constraint.clause(step.literals)
            elif step.kind == fmt.RUP:
                if not database.rup(step.literals):
                    raise ProofError(
                        number,
                        step.line,
                        "clause %s is not RUP for the database"
                        % (list(step.literals),),
                    )
                derived = Constraint.clause(step.literals)
            elif step.kind == fmt.SOLUTION:
                cost, model = self._check_solution(number, step)
                if upper is None or cost < upper:
                    upper = cost
                    best_model = model
                derived = self._cuts.improvement_axiom(upper)
                key = _OBJECTIVE
            elif step.kind == fmt.CARD_CUT:
                derived = self._check_card_cut(number, step, by_id, upper)
                key = step.ids[0]
            elif step.kind == fmt.BOUND_MIS:
                self._check_bound_mis(number, step, by_id, upper)
                derived = Constraint.clause(step.literals)
            elif step.kind == fmt.BOUND_LIN:
                self._check_bound_lin(number, step, by_id)
                derived = Constraint.clause(step.literals)
            elif step.kind == fmt.CONTRADICTION:
                if not database.root_conflict:
                    raise ProofError(
                        number,
                        step.line,
                        "database does not propagate to a contradiction",
                    )
                contradiction = True
            elif step.kind == fmt.END:
                self._check_end(
                    number, step, upper, best_model, contradiction
                )
                ended = step
            if derived is not None:
                by_id[next_id] = derived
                next_id += 1
                database.add(derived, key)

        if ended is None:
            raise ProofError(
                len(steps) + 1, 0, "truncated proof: missing final 'e' claim"
            )
        cost = None
        if ended.status in ("optimal", "satisfiable"):
            cost = ended.cost
        return CheckOutcome(
            ended.status, cost, conditional, len(steps), best_model
        )

    # ------------------------------------------------------------------
    def _check_solution(
        self, number: int, step: fmt.Step
    ) -> Tuple[int, Dict[int, int]]:
        """Verify an ``o`` step's model; returns its path-scale cost."""
        model: Dict[int, int] = {}
        for lit in step.literals:
            var = lit if lit > 0 else -lit
            value = 1 if lit > 0 else 0
            if model.get(var, value) != value:
                raise ProofError(
                    number, step.line, "model assigns variable %d twice" % var
                )
            model[var] = value
        for constraint in self._instance.constraints:
            try:
                satisfied = constraint.is_satisfied_by(model)
            except ValueError as exc:
                raise ProofError(number, step.line, "incomplete model: %s" % exc)
            if not satisfied:
                raise ProofError(
                    number, step.line, "model violates %r" % (constraint,)
                )
        cost = 0
        for var, var_cost in self._costs.items():
            value = model.get(var)
            if value is None:
                raise ProofError(
                    number,
                    step.line,
                    "model leaves costed variable %d unassigned" % var,
                )
            cost += var_cost * value
        return cost, model

    def _check_card_cut(
        self,
        number: int,
        step: fmt.Step,
        by_id: Dict[int, Constraint],
        upper: Optional[int],
    ) -> Constraint:
        if upper is None:
            raise ProofError(
                number, step.line, "'t' cut before any verified solution"
            )
        source = by_id.get(step.ids[0])
        if source is None:
            raise ProofError(
                number, step.line, "unknown constraint id %d" % step.ids[0]
            )
        cut = self._cuts.cardinality_cut(source, upper)
        if cut is None:
            raise ProofError(
                number,
                step.line,
                "constraint %d yields no cardinality cut at upper=%d"
                % (step.ids[0], upper),
            )
        return cut

    def _check_bound_mis(
        self,
        number: int,
        step: fmt.Step,
        by_id: Dict[int, Constraint],
        upper: Optional[int],
    ) -> None:
        if upper is None:
            raise ProofError(
                number, step.line, "'b m' before any verified solution"
            )
        responsible = []
        for cid in step.ids:
            constraint = by_id.get(cid)
            if constraint is None:
                raise ProofError(
                    number, step.line, "unknown constraint id %d" % cid
                )
            responsible.append(constraint)
        if not rules.check_mis_bound(
            step.literals, step.variables, responsible, self._costs, upper
        ):
            raise ProofError(
                number,
                step.line,
                "MIS accounting does not justify the bound clause",
            )

    def _check_bound_lin(
        self, number: int, step: fmt.Step, by_id: Dict[int, Constraint]
    ) -> None:
        parts = []
        for cid, mult in zip(step.ids, step.multipliers):
            constraint = by_id.get(cid)
            if constraint is None:
                raise ProofError(
                    number, step.line, "unknown constraint id %d" % cid
                )
            if mult <= 0:
                raise ProofError(
                    number, step.line, "non-positive multiplier %d" % mult
                )
            parts.append((constraint, mult))
        if not rules.check_linear_bound(step.literals, parts):
            raise ProofError(
                number,
                step.line,
                "linear combination does not cut off the bound clause",
            )

    def _check_end(
        self,
        number: int,
        step: fmt.Step,
        upper: Optional[int],
        best_model: Optional[Dict[int, int]],
        contradiction: bool,
    ) -> None:
        status = step.status
        if status == "unknown":
            return
        if status == "unsatisfiable":
            if not contradiction:
                raise ProofError(
                    number,
                    step.line,
                    "unsatisfiability claimed without a contradiction step",
                )
            if best_model is not None:
                raise ProofError(
                    number,
                    step.line,
                    "unsatisfiability claimed but the proof verified a model",
                )
            return
        # optimal / satisfiable both need a verified incumbent of the
        # claimed cost.
        if best_model is None or upper is None:
            raise ProofError(
                number, step.line, "'%s' claimed without a verified model" % status
            )
        claimed = step.cost
        if claimed != upper + self._offset:
            raise ProofError(
                number,
                step.line,
                "claimed cost %d but the verified incumbent costs %d"
                % (claimed, upper + self._offset),
            )
        if status == "optimal" and not contradiction:
            raise ProofError(
                number,
                step.line,
                "optimality claimed without a contradiction under "
                "cost <= best - 1",
            )

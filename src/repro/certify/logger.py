"""Solver-side proof logger with self-checking emission gates.

The :class:`ProofLogger` is handed to the solver through
``SolverOptions(proof=...)``.  It maintains the same constraint-id space
the checker will reconstruct (inputs ``1..m`` in parse order, then one id
per derivation step) and serializes steps via
:mod:`repro.certify.format`.

Every step whose soundness depends on solver-computed data — bound
certificates, Section-5 cuts — is **replayed through the exact
arithmetic of** :mod:`repro.certify.rules` *before* being written.  The
``log_*`` method returns False instead of emitting when the replay
fails, and the solver reacts by declining the prune (or dropping the
cut), which costs search effort but never soundness: a proof that reaches the disk always verifies, and a solver
bug surfaces as an unexplained certification failure rather than a bogus
certificate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..pb.constraints import Constraint
from ..pb.instance import PBInstance
from . import format as fmt
from . import rules

#: ``limit_denominator`` ceilings tried when rationalizing LP/Lagrangian
#: multipliers.  Coarse first: small multipliers keep the emitted
#: combination short and the checker's arithmetic cheap.
_DENOMINATOR_LADDER = (1, 10, 100, 10 ** 4, 10 ** 6)


class ProofLogger:
    """Records a checkable derivation log during one solver run."""

    def __init__(self, sink: Union[str, "object"]):
        if hasattr(sink, "write"):
            self._file = sink
            self._owns_file = False
        else:
            self._file = open(str(sink), "w")
            self._owns_file = True
        self._started = False
        self._closed = False
        self._ids: Dict[Constraint, int] = {}
        self._next_id = 1
        self._costs: Dict[int, int] = {}
        self._cuts: Optional[rules.CutReplayer] = None
        self._upper: Optional[int] = None  # path-cost scale
        #: The improvement axiom at ``_upper`` and the id it is bound to.
        self._axiom: Optional[Constraint] = None
        self._axiom_id: Optional[int] = None
        #: Derivation steps written so far (for stats/tests).
        self.steps_logged = 0

    # ------------------------------------------------------------------
    def start(self, instance: PBInstance) -> None:
        """Write the header and claim ids ``1..m`` for the inputs."""
        if self._started:
            raise RuntimeError("ProofLogger cannot be reused across runs")
        self._started = True
        self._costs = dict(instance.objective.costs)
        self._cuts = rules.CutReplayer(self._costs)
        constraints = instance.constraints
        self._write(fmt.HEADER)
        self._write("f %d" % len(constraints))
        for constraint in constraints:
            self._ids.setdefault(constraint, self._next_id)
            self._next_id += 1

    def id_of(self, constraint: Constraint) -> Optional[int]:
        """The id later steps may use to reference ``constraint``."""
        return self._ids.get(constraint)

    @property
    def upper(self) -> Optional[int]:
        """Best verified incumbent cost so far (path scale)."""
        return self._upper

    # ------------------------------------------------------------------
    # Axioms and RUP steps (no self-check: RUP holds by construction for
    # first-UIP clauses and propagation-derived units/implications).
    # ------------------------------------------------------------------
    def log_assumption(self, literal: int) -> None:
        """An externally imposed unit; makes the final claim conditional."""
        step = fmt.Step(fmt.ASSUMPTION, literals=(literal,))
        self._emit(step, Constraint.clause((literal,)))

    def log_rup(self, literals: Sequence[int]) -> None:
        """A clause the checker can re-derive by unit propagation."""
        step = fmt.Step(fmt.RUP, literals=tuple(literals))
        self._emit(step, Constraint.clause(literals))

    def log_solution(self, literals: Sequence[int]) -> None:
        """A complete model; derives the improvement axiom at its cost."""
        cost = sum(self._costs.get(lit, 0) for lit in literals if lit > 0)
        if self._upper is None or cost < self._upper:
            self._upper = cost
        step = fmt.Step(fmt.SOLUTION, literals=tuple(literals))
        self._axiom = self._cuts.improvement_axiom(self._upper)
        self._axiom_id = self._emit(step, self._axiom)

    # ------------------------------------------------------------------
    # Self-checked derivations.
    # ------------------------------------------------------------------
    def log_cardinality_cut(self, source: Constraint, cut: Constraint) -> bool:
        """A Section-5 cardinality-derived cut (eq. 13) from ``source``.

        Recomputes the cut from the certified incumbent; refuses when the
        recomputation disagrees with what the solver wants to add.
        """
        source_id = self._ids.get(source)
        if source_id is None or self._upper is None:
            return False
        replayed = self._cuts.cardinality_cut(source, self._upper)
        if replayed is None or replayed != cut:
            return False
        self._emit(fmt.Step(fmt.CARD_CUT, ids=(source_id,)), cut)
        return True

    def log_proven_cut(self, source: Constraint) -> bool:
        """An eq. 13 cut whose rhs went negative: the members of
        ``source`` alone must spend more than the incumbent allows, so
        the derived constraint is unsatisfiable and the incumbent is
        optimal.  The checker's database propagates it to a root
        contradiction."""
        source_id = self._ids.get(source)
        if source_id is None or self._upper is None:
            return False
        replayed = self._cuts.cardinality_cut(source, self._upper)
        if replayed is None or not replayed.is_unsatisfiable:
            return False
        self._emit(fmt.Step(fmt.CARD_CUT, ids=(source_id,)), replayed)
        return True

    def log_bound_mis(
        self,
        literals: Sequence[int],
        path_vars: Sequence[int],
        responsible: Sequence[Constraint],
    ) -> bool:
        """A bound-conflict clause certified by MIS cost accounting."""
        if self._upper is None:
            return False
        ids: List[int] = []
        for constraint in responsible:
            cid = self._ids.get(constraint)
            if cid is None:
                return False
            ids.append(cid)
        if not rules.check_mis_bound(
            literals, path_vars, responsible, self._costs, self._upper
        ):
            return False
        step = fmt.Step(
            fmt.BOUND_MIS,
            variables=tuple(path_vars),
            ids=tuple(ids),
            literals=tuple(literals),
        )
        self._emit(step, Constraint.clause(literals))
        return True

    def log_bound_linear(
        self,
        literals: Sequence[int],
        weights: Sequence[Tuple[Constraint, Union[int, float, Fraction]]],
        with_axiom: bool = True,
    ) -> bool:
        """A bound-conflict clause certified by a dual linear combination.

        ``weights`` pairs constraints with non-negative (possibly
        floating-point) multipliers: LP row duals or Lagrangian weights
        of a value prune, with the current improvement axiom appended;
        or, ``with_axiom=False``, the Farkas ray of an infeasible
        relaxation, whose rows alone cut off the clause.  The
        multipliers are rationalized through a coarse-to-fine
        denominator ladder until some integer scaling passes the exact
        implication check; returns False when none does.
        """
        if with_axiom and self._upper is None:
            return False
        weighted: List[Tuple[Constraint, int, Union[int, float, Fraction]]] = []
        for constraint, weight in weights:
            if weight <= 0:
                continue
            cid = self._ids.get(constraint)
            if cid is None:
                return False
            weighted.append((constraint, cid, weight))
        for limit in _DENOMINATOR_LADDER:
            fractions = [
                Fraction(weight).limit_denominator(limit)
                for _, _, weight in weighted
            ]
            scale = 1
            for fraction in fractions:
                scale = scale * fraction.denominator // gcd(
                    scale, fraction.denominator
                )
            parts: List[Tuple[Constraint, int]] = []
            ids: List[int] = []
            multipliers: List[int] = []
            for (constraint, cid, _), fraction in zip(weighted, fractions):
                multiplier = int(fraction * scale)
                if multiplier <= 0:
                    continue
                parts.append((constraint, multiplier))
                ids.append(cid)
                multipliers.append(multiplier)
            if with_axiom:
                parts.append((self._axiom, scale))
                ids.append(self._axiom_id)
                multipliers.append(scale)
            if rules.check_linear_bound(literals, parts):
                step = fmt.Step(
                    fmt.BOUND_LIN,
                    ids=tuple(ids),
                    multipliers=tuple(multipliers),
                    literals=tuple(literals),
                )
                self._emit(step, Constraint.clause(literals))
                return True
        return False

    # ------------------------------------------------------------------
    # Terminal steps.
    # ------------------------------------------------------------------
    def log_contradiction(self) -> None:
        """The database now propagates to a violation at the root."""
        self._write(fmt.format_step(fmt.Step(fmt.CONTRADICTION)))
        self.steps_logged += 1

    def log_end(self, status: str, cost: Optional[int] = None) -> None:
        """The run's final claim (``cost`` includes the objective offset)."""
        self._write(fmt.format_step(fmt.Step(fmt.END, status=status, cost=cost)))
        self.steps_logged += 1

    def comment(self, text: str) -> None:
        """A ``*`` comment line (ignored by the checker)."""
        self._write("* " + text)

    def close(self) -> None:
        """Flush (and close, when the logger opened the sink itself)."""
        if self._closed:
            return
        self._closed = True
        if self._owns_file:
            self._file.close()
        else:
            try:
                self._file.flush()
            except (AttributeError, ValueError):
                pass

    # ------------------------------------------------------------------
    def _emit(self, step: fmt.Step, derived: Constraint) -> int:
        """Write a derivation step and bind its constraint to the next id;
        returns the id later steps use for ``derived`` (the first step
        that derived an equal constraint keeps it)."""
        self._write(fmt.format_step(step))
        cid = self._ids.setdefault(derived, self._next_id)
        self._next_id += 1
        self.steps_logged += 1
        return cid

    def _write(self, line: str) -> None:
        if not self._started and not line.startswith("*"):
            raise RuntimeError("ProofLogger.start() must be called first")
        self._file.write(line + "\n")

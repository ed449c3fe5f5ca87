"""WBO solving: direct PBO compilation and unsat-core-guided search.

Two modes, both exact:

``direct``
    Compile to PBO (:func:`repro.wbo.model.compile_to_pbo`) and run one
    branch-and-bound solve.  The relaxation variables ride the paper's
    full lower-bounding machinery — cost pruning on the relaxation
    variables *is* the violation-cost bound.

``core-guided``
    The Fu&Malik-style loop of "Algorithms for Weighted Boolean
    Optimization", driven by :class:`repro.incremental.SolverSession`:
    assume every relaxation variable false and call ``solve_under``;
    each UNSAT answer returns an assumption core, whose soft constraints
    get relaxed while the minimum core weight accrues to a lower bound
    (cores are disjoint, so the bound is sound).  Once a model exists,
    the bound either certifies it optimal or a final exact solve —
    warm-started with the incumbent cost — closes the gap.  Learned
    constraints, activity and bound caches persist across the loop's
    calls, which is precisely the session workload.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.options import SolverOptions, UnsupportedOptionError
from ..core.result import (
    OPTIMAL,
    SATISFIABLE,
    SolveResult,
    UNKNOWN,
    UNSATISFIABLE,
)
from ..core.solver import BsoloSolver
from ..core.stats import SolverStats
from ..incremental import SolverSession
from .model import CompiledWBO, WBOInstance, compile_to_pbo, decode

#: Recognized ``mode=`` values.
MODES = ("direct", "core-guided")


class WBOSolver:
    """Exact solver for a :class:`~repro.wbo.model.WBOInstance`."""

    name = "wbo"

    def __init__(
        self,
        wbo: WBOInstance,
        options: Optional[SolverOptions] = None,
        mode: str = "direct",
    ):
        if mode not in MODES:
            raise ValueError(
                "unknown WBO mode %r (choose from %s)" % (mode, ", ".join(MODES))
            )
        self._wbo = wbo
        self._options = options or SolverOptions()
        self._mode = mode
        self._compiled: CompiledWBO = compile_to_pbo(wbo)
        self.name = "wbo-" + ("core" if mode == "core-guided" else "direct")
        #: Unsat cores found by the core-guided loop (soft index tuples).
        self.cores: List[Tuple[int, ...]] = []

    # ------------------------------------------------------------------
    def solve(self) -> SolveResult:
        """Minimize the total violation weight; see the module docstring
        for the two strategies."""
        if self._mode == "direct":
            return self._solve_direct()
        return self._solve_core_guided()

    # ------------------------------------------------------------------
    def _solve_direct(self) -> SolveResult:
        result = BsoloSolver(self._compiled.instance, self._options).solve()
        return self._package(result, result.stats)

    def _solve_core_guided(self) -> SolveResult:
        compiled = self._compiled
        session = SolverSession(compiled.instance, self._options)
        soft_of = {relax: index for index, relax in compiled.relax_var.items()}
        active: Set[int] = set(compiled.relax_var)  # not-yet-relaxed softs
        lower = compiled.base_cost
        stats = SolverStats()
        best: Optional[SolveResult] = None
        while True:
            assumptions = [
                -compiled.relax_var[index] for index in sorted(active)
            ]
            result = session.solve_under(assumptions)
            stats.add(result.stats.as_dict())
            if result.status == UNKNOWN:
                # Budget expired mid-loop: report the incumbent if any.
                return self._package(best if best is not None else result, stats)
            if result.status == UNSATISFIABLE:
                core = result.core or ()
                core_softs = tuple(
                    soft_of[-literal] for literal in core if -literal in soft_of
                )
                if not core_softs:
                    # Contradiction independent of the softs: the hard
                    # part (or the top bound) is infeasible.
                    return SolveResult(
                        UNSATISFIABLE, stats=stats, solver_name=self.name
                    )
                self.cores.append(core_softs)
                active.difference_update(core_softs)
                # Disjoint cores: each one forces at least its cheapest
                # member to be violated.
                lower += min(
                    self._wbo.soft[index].weight for index in core_softs
                )
                continue
            # A model satisfying every still-active soft constraint.
            best = result
            cost = result.best_cost
            if cost is not None and cost <= lower:
                return self._package(best, stats)  # bound certifies it
            final = session.solve_under((), upper_bound=cost)
            stats.add(final.stats.as_dict())
            if final.best_assignment is None:
                # The exact pass only *confirmed* the incumbent (its
                # witnessing model is the one we already hold).
                final = SolveResult(
                    final.status if final.status != UNSATISFIABLE else OPTIMAL,
                    best_cost=cost,
                    best_assignment=best.best_assignment,
                    stats=final.stats,
                    solver_name=final.solver_name,
                )
            return self._package(final, stats)

    # ------------------------------------------------------------------
    def _package(self, result: SolveResult, stats: SolverStats) -> SolveResult:
        """Translate a PBO result on the compiled instance to WBO shape:
        model projected to the original variables, ``cost`` re-checked
        against the original softs, ``violated_soft`` filled in."""
        if result.best_assignment is None:
            return SolveResult(
                result.status,
                best_cost=result.best_cost,
                stats=stats,
                solver_name=self.name,
            )
        model, cost, violated = decode(self._compiled, result.best_assignment)
        status = result.status
        if status == SATISFIABLE:
            status = OPTIMAL  # constant compiled objective: cost 0 proven
        return SolveResult(
            status,
            best_cost=cost,
            best_assignment=model,
            stats=stats,
            solver_name=self.name,
            violated_soft=violated,
        )


def solve_wbo(
    wbo: WBOInstance,
    options: Optional[SolverOptions] = None,
    mode: str = "direct",
) -> SolveResult:
    """Convenience wrapper: build a :class:`WBOSolver` and run it."""
    return WBOSolver(wbo, options, mode=mode).solve()

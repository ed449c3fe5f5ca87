"""Worker specifications for the parallel portfolio.

A worker is just ``(solver_name, options)`` — a name resolved through
:mod:`repro.api` plus a picklable :class:`SolverOptions`.  The default
portfolio diversifies along the axes the paper shows to be
complementary: the lower-bound method (MIS / LGR / LPR / none) and
entirely different search paradigms (SAT linear search, cutting planes,
MILP branch & bound).
"""

from __future__ import annotations

from typing import List, Optional

from ..core.options import SolverOptions

#: Option fields that carry process-local callables or sinks; worker
#: specs must leave them unset — the portfolio runner installs its own
#: incumbent/interrupt hooks inside each worker process.
_PROCESS_LOCAL_FIELDS = (
    "tracer",
    "metrics",
    "on_progress",
    "on_incumbent",
    "external_bound",
    "should_stop",
)


class WorkerSpec:
    """One portfolio worker: a registered solver name plus its options."""

    __slots__ = ("solver", "options", "label")

    def __init__(self, solver: str, options: Optional[SolverOptions] = None,
                 label: Optional[str] = None):
        self.solver = solver
        self.options = options
        self.label = label if label is not None else solver
        self.validate()

    def validate(self) -> None:
        """Reject specs that cannot cross a process boundary."""
        if self.options is None:
            return
        for field in _PROCESS_LOCAL_FIELDS:
            if getattr(self.options, field) is not None:
                raise ValueError(
                    "WorkerSpec options must leave %r unset: it cannot be "
                    "pickled into a worker process (the portfolio installs "
                    "its own hooks)" % field
                )

    def __repr__(self) -> str:
        return "WorkerSpec(%r, label=%r)" % (self.solver, self.label)


#: The diversification ladder: one registered solver per rung.
_DEFAULT_LADDER = (
    "bsolo-lpr",
    "bsolo-mis",
    "linear-search",
    "bsolo-lgr",
    "cutting-planes",
    "bsolo-plain",
    "milp",
)

#: The rungs a repeat lap revisits: every rung that reads ``vsids_decay``
#: (``milp`` has no VSIDS, so a repeat would rerun its first search).
_REPEAT_LADDER = tuple(solver for solver in _DEFAULT_LADDER if solver != "milp")


def default_specs(
    workers: int = 4, base: Optional[SolverOptions] = None
) -> List[WorkerSpec]:
    """The default diversified portfolio of ``workers`` members.

    The first rungs of the ladder cover the paper's complementary
    bounding strategies plus the comparator paradigms.  Beyond the
    ladder the rungs repeat with a VSIDS decay lowered by 0.05 per lap
    (floor 0.5), which every repeated rung reads (bsolo's branching,
    linear-search's and cutting-planes' decision search), so a repeat
    searches differently from its first visit; ``milp`` has no VSIDS and
    runs on the first lap only.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    template = base if base is not None else SolverOptions()
    specs: List[WorkerSpec] = []
    for index in range(workers):
        if index < len(_DEFAULT_LADDER):
            solver, lap = _DEFAULT_LADDER[index], 0
        else:
            lap, rung = divmod(index - len(_DEFAULT_LADDER), len(_REPEAT_LADDER))
            solver, lap = _REPEAT_LADDER[rung], lap + 1
        options = template
        if lap:
            # repeat visits get perturbed heuristics for diversity
            options = template.replace(
                vsids_decay=max(0.5, template.vsids_decay - 0.05 * lap)
            )
        specs.append(
            WorkerSpec(solver, options, label="%s@%d" % (solver, index))
        )
    return specs

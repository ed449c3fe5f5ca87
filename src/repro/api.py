"""Unified solver API: the registry and the :func:`solve` façade.

Every solver in the repository — the paper's bsolo in all its
lower-bounding configurations, the Table 1 comparators, the classical
covering solver, the brute-force oracle and the multiprocessing
portfolio — registers here under a string name with one uniform
constructor shape ``factory(instance, options) -> solver`` where the
solver exposes ``.solve() -> SolveResult`` and ``.name``.

Typical use::

    from repro.api import solve

    result = solve(instance, solver="bsolo", timeout=10.0)
    print(result.status, result.best_cost, result.model)

The registry is what the CLI's ``--solver`` flag, the experiment
harness, and the portfolio's worker specs all resolve names through, so
``("bsolo-mis", options)`` means the same solver everywhere.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .baselines.brute_force import BruteForceSolver
from .baselines.covering_bnb import CoveringBnBSolver
from .baselines.cutting_planes import CuttingPlanesSolver
from .baselines.linear_search import LinearSearchSolver
from .baselines.milp import MILPSolver
from .core.options import (
    LGR,
    LPR,
    MIS,
    PLAIN,
    SolverOptions,
    UnsupportedOptionError,
)
from .core.result import SolveResult
from .core.solver import BsoloSolver
from .incremental import SolverSession, make_session
from .pb.instance import PBInstance

#: name -> (factory, canonical_name, description)
_Factory = Callable[[PBInstance, Optional[SolverOptions]], object]
_REGISTRY: Dict[str, Tuple[_Factory, str, str]] = {}


class UnknownSolverError(ValueError):
    """The requested solver name is not in the registry."""


def register_solver(
    name: str,
    factory: _Factory,
    description: str = "",
    aliases: Tuple[str, ...] = (),
) -> None:
    """Register ``factory(instance, options) -> solver`` under ``name``.

    ``aliases`` resolve to the same factory but are not listed among the
    canonical names.  Re-registering a name replaces it (tests use this
    to inject deliberately broken solvers).
    """
    _REGISTRY[name] = (factory, name, description)
    for alias in aliases:
        _REGISTRY[alias] = (factory, name, description)


def available_solvers(include_aliases: bool = False) -> List[str]:
    """Registered solver names, sorted; canonical names only unless
    ``include_aliases``."""
    if include_aliases:
        return sorted(_REGISTRY)
    return sorted(
        name for name, (_, canonical, _desc) in _REGISTRY.items()
        if name == canonical
    )


def solver_descriptions() -> Dict[str, str]:
    """Canonical name -> one-line description (for ``--help`` output)."""
    return {
        name: desc
        for name, (_, canonical, desc) in sorted(_REGISTRY.items())
        if name == canonical
    }


def canonical_name(name: str) -> str:
    """Resolve an alias to its canonical registry name."""
    try:
        return _REGISTRY[name][1]
    except KeyError:
        raise UnknownSolverError(
            "unknown solver %r (choose from %s)"
            % (name, ", ".join(available_solvers(include_aliases=True)))
        ) from None


def make_solver(
    instance: PBInstance,
    solver: str = "bsolo",
    options: Optional[SolverOptions] = None,
    *,
    assumptions: Optional[Sequence[int]] = None,
):
    """Instantiate a registered solver for one instance.

    ``assumptions`` binds literals the solve must respect (see
    :meth:`repro.core.solver.BsoloSolver.solve`).  Solvers advertise
    support via a truthy ``supports_assumptions`` attribute plus a
    ``set_assumptions`` method; requesting assumptions from any other
    solver raises :class:`UnsupportedOptionError` — never a silent
    unconditioned solve.
    """
    try:
        factory = _REGISTRY[solver][0]
    except KeyError:
        raise UnknownSolverError(
            "unknown solver %r (choose from %s)"
            % (solver, ", ".join(available_solvers(include_aliases=True)))
        ) from None
    built = factory(instance, options)
    if assumptions is not None:
        if not getattr(built, "supports_assumptions", False) or not hasattr(
            built, "set_assumptions"
        ):
            raise UnsupportedOptionError(
                "solver %r does not support assumptions=" % solver
            )
        built.set_assumptions(list(assumptions))
    return built


def solve(
    instance: PBInstance,
    solver: str = "bsolo",
    options: Optional[SolverOptions] = None,
    *,
    assumptions: Optional[Sequence[int]] = None,
    timeout: Optional[float] = None,
    tracer=None,
    profile: Optional[bool] = None,
    metrics=None,
) -> SolveResult:
    """Solve ``instance`` with any registered solver; the façade.

    ``assumptions`` are literals the reported result must respect
    (solvers without assumption support raise
    :class:`UnsupportedOptionError`).  ``timeout`` (seconds) overrides
    ``options.time_limit`` when given.  The observability
    instruments — ``tracer`` (a :class:`repro.obs.Tracer`), ``profile``
    (phase timing on/off) and ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`) — likewise override the
    corresponding options fields when given, so instrumented one-off
    runs need no explicit :class:`SolverOptions`.

    All of the above are keyword-only.  For backward compatibility with
    the original ``solve(instance, options)`` signature, a
    :class:`SolverOptions` passed as the second positional argument
    selects the default bsolo solver with those options.
    """
    if isinstance(solver, SolverOptions):
        if options is not None:
            raise TypeError("options passed twice")
        solver, options = "bsolo", solver
    overrides = {}
    if timeout is not None:
        overrides["time_limit"] = timeout
    if tracer is not None:
        overrides["tracer"] = tracer
    if profile is not None:
        overrides["profile"] = profile
    if metrics is not None:
        overrides["metrics"] = metrics
    if overrides:
        options = (options or SolverOptions()).replace(**overrides)
    return make_solver(
        instance, solver, options, assumptions=assumptions
    ).solve()


# ----------------------------------------------------------------------
# Built-in registrations
# ----------------------------------------------------------------------
def _bsolo_factory(lower_bound: Optional[str]) -> _Factory:
    def factory(instance: PBInstance, options: Optional[SolverOptions]):
        opts = options or SolverOptions()
        if lower_bound is not None and opts.lower_bound != lower_bound:
            opts = opts.replace(lower_bound=lower_bound)
        return BsoloSolver(instance, opts)

    return factory


register_solver(
    "bsolo", _bsolo_factory(None),
    "the paper's hybrid solver; lower bound from options (default lpr)",
)
register_solver(
    "bsolo-plain", _bsolo_factory(PLAIN),
    "bsolo without lower bounding (Table 1 'plain')",
)
register_solver(
    "bsolo-mis", _bsolo_factory(MIS),
    "bsolo with the MIS lower bound (Section 3.1)",
)
register_solver(
    "bsolo-lgr", _bsolo_factory(LGR),
    "bsolo with the Lagrangian-relaxation bound (Section 3.2)",
)
register_solver(
    "bsolo-lpr", _bsolo_factory(LPR),
    "bsolo with the LP-relaxation bound (Section 3.3)",
)
register_solver(
    "linear-search", LinearSearchSolver,
    "SAT-based linear search on the cost function (PBS-like)",
    aliases=("pbs",),
)
register_solver(
    "cutting-planes", CuttingPlanesSolver,
    "incremental linear search with cardinality strengthening (Galena-like)",
    aliases=("galena",),
)
register_solver(
    "milp", MILPSolver,
    "LP branch & bound without SAT techniques (CPLEX stand-in)",
    aliases=("cplex",),
)
register_solver(
    "covering-bnb", CoveringBnBSolver,
    "classical covering branch & bound (scherzo-like; clause-only instances)",
    aliases=("scherzo",),
)
register_solver(
    "brute-force", BruteForceSolver,
    "exhaustive enumeration oracle (small instances only)",
)

# Alias audit: "pbs", "galena", "cplex" and "scherzo" are the paper's
# tool names for the corresponding baselines — supported on purpose, not
# deprecated.  The repository's only *deprecated* alias
# (repro.lp.integer_floor_bound) finished its window and was removed.


def _portfolio_factory(instance: PBInstance, options: Optional[SolverOptions]):
    # imported lazily: repro.portfolio builds its workers through this
    # registry, so importing it at module load would be circular
    from .portfolio import PortfolioSolver

    return PortfolioSolver(instance, options=options)


register_solver(
    "portfolio", _portfolio_factory,
    "process-parallel portfolio of diversified solvers with incumbent exchange",
)

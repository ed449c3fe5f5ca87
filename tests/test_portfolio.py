"""Tests for the parallel portfolio (``repro.portfolio``).

The cooperative-interrupt and incumbent-import protocol is tested
in-process (deterministically, no forking); the process-parallel runner
is tested end-to-end on small instances with generous time budgets.
"""

import time

import pytest

from repro import make_solver, solve, solve_portfolio
from repro.api import available_solvers, register_solver
from repro.benchgen import generate_routing
from repro.benchgen.ptl import ptl_suite
from repro.benchgen.synthesis import covering_suite
from repro.core import (
    OPTIMAL,
    SATISFIABLE,
    SolverOptions,
    SolverStats,
    UNKNOWN,
)
from repro.core import solver as solver_module
from repro.pb import Constraint, Objective, PBInstance
from repro.portfolio import (
    PortfolioSolver,
    PortfolioStats,
    WorkerSpec,
    default_specs,
)
from repro.portfolio.specs import _DEFAULT_LADDER


def covering_instance():
    """min 3a + 2b + 2c, clauses (a|b), (b|c), (a|c); optimum 4."""
    return PBInstance(
        [
            Constraint.clause([1, 2]),
            Constraint.clause([2, 3]),
            Constraint.clause([1, 3]),
        ],
        Objective({1: 3, 2: 2, 3: 2}),
    )


def non_covering_instance():
    """Cardinality constraint makes this invalid for covering-bnb."""
    return PBInstance(
        [
            Constraint.at_least([1, 2, 3], 2),
            Constraint.clause([1, 3]),
        ],
        Objective({1: 3, 2: 2, 3: 2}),
    )


# ----------------------------------------------------------------------
# Cooperative hooks, in-process (deterministic)
# ----------------------------------------------------------------------
#: Every registered solver but the portfolio, which runs them.
SOLVERS = [name for name in available_solvers() if name != "portfolio"]
#: The brute-force oracle imports no bound.
IMPORTERS = [name for name in SOLVERS if name != "brute-force"]


class TestCooperativeHooks:
    """The envelope every registered solver reports through: the hooks,
    the budgets and the answer rule."""

    @pytest.fixture(autouse=True)
    def poll_every_step(self, monkeypatch):
        monkeypatch.setattr(solver_module, "_POLL_INTERVAL", 1)

    @pytest.mark.parametrize("solver", IMPORTERS)
    def test_external_bound_gives_optimal_without_model(self, solver):
        # another worker already holds a cost-4 incumbent; this solver
        # exhausts its search under the imported bound and reports the
        # proven optimum — the witnessing model lives with the publisher
        options = SolverOptions(external_bound=lambda: 4)
        result = make_solver(covering_instance(), solver, options).solve()
        assert result.status == OPTIMAL
        assert result.best_cost == 4
        assert result.model is None
        assert result.stats.external_bounds >= 1

    @pytest.mark.parametrize("solver", IMPORTERS)
    def test_loose_external_bound_keeps_local_model(self, solver):
        # an imported bound above the optimum must not steal the witness
        options = SolverOptions(external_bound=lambda: 6)
        result = make_solver(covering_instance(), solver, options).solve()
        assert result.status == OPTIMAL
        assert result.best_cost == 4
        assert covering_instance().check(result.model)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_should_stop_interrupts(self, solver):
        options = SolverOptions(should_stop=lambda: True)
        result = make_solver(covering_instance(), solver, options).solve()
        assert result.status == UNKNOWN
        assert result.stats.interrupted

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_expired_deadline_stops_before_the_search(self, solver):
        options = SolverOptions(time_limit=0)
        result = make_solver(covering_instance(), solver, options).solve()
        assert result.status == UNKNOWN
        assert not result.stats.interrupted

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_on_incumbent_reports_improving_costs(self, solver):
        seen = []
        options = SolverOptions(
            on_incumbent=lambda cost, model: seen.append((cost, model))
        )
        result = make_solver(covering_instance(), solver, options).solve()
        assert result.status == OPTIMAL
        costs = [cost for cost, _ in seen]
        assert costs == sorted(set(costs), reverse=True)  # strictly improving
        assert costs[-1] == 4
        for cost, model in seen:
            assert covering_instance().check(model)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_constant_objective_is_satisfiable_at_its_offset(self, solver):
        instance = PBInstance(
            covering_instance().constraints, Objective({}, offset=7)
        )
        result = make_solver(instance, solver).solve()
        assert result.status == SATISFIABLE
        assert result.best_cost == 7
        assert instance.check(result.model)

    @pytest.mark.parametrize(
        "solver", ["linear-search", "cutting-planes", "bsolo-plain"]
    )
    @pytest.mark.parametrize(
        "budget, count, cap",
        [("max_conflicts", "conflicts", 51), ("max_decisions", "decisions", 6)],
        ids=["conflicts", "decisions"],
    )
    def test_budgets_cover_the_whole_solve(self, solver, budget, count, cap):
        # the linear searches restart or resume their SAT search once per
        # incumbent; the budget still counts from the start of the solve
        instance = generate_routing(5, 5, 10, 2, 3, seed=9)
        options = SolverOptions(**{budget: cap - 1})
        result = make_solver(instance, solver, options).solve()
        assert result.status == UNKNOWN
        assert getattr(result.stats, count) <= cap


# ----------------------------------------------------------------------
# Worker specs
# ----------------------------------------------------------------------
class TestWorkerSpecs:
    def test_default_specs_sized_and_unique(self):
        specs = default_specs(4)
        assert len(specs) == 4
        labels = [spec.label for spec in specs]
        assert len(set(labels)) == 4

    def test_default_specs_cycle_with_perturbation(self):
        rungs = len(_DEFAULT_LADDER)
        specs = default_specs(rungs + 2)
        assert len(specs) == rungs + 2
        # the rungs of one lap are pairwise distinct configurations
        lap = {
            (spec.solver, tuple(sorted(spec.options.describe().items())))
            for spec in specs[:rungs]
        }
        assert len(lap) == rungs
        # rung 0 and its second-lap repeat use the same solver but
        # perturbed heuristics, so the searches diverge
        assert specs[rungs].solver == specs[0].solver
        base = specs[0].options or SolverOptions()
        assert specs[rungs].options.vsids_decay < base.vsids_decay

    def test_repeat_laps_skip_milp(self):
        # every repeated rung reads the perturbed decay; milp reads none,
        # so it runs on the first lap only
        specs = default_specs(21)
        assert [spec.solver for spec in specs].count("milp") == 1
        configs = {
            (spec.solver, tuple(sorted(spec.options.describe().items())))
            for spec in specs
        }
        assert len(configs) == len(specs)

    @pytest.mark.parametrize("solver", ["linear-search", "cutting-planes"])
    def test_baselines_read_the_perturbed_decay(self, solver):
        instance = generate_routing(5, 5, 10, 2, 3, seed=9)
        decisions = {
            decay: solve(
                instance, solver, SolverOptions(vsids_decay=decay)
            ).stats.decisions
            for decay in (0.95, 0.9)
        }
        assert decisions[0.95] != decisions[0.9], decisions

    def test_default_specs_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            default_specs(0)

    @pytest.mark.parametrize("field", ["tracer", "should_stop", "on_incumbent"])
    def test_spec_rejects_process_local_options(self, field):
        with pytest.raises(ValueError):
            WorkerSpec("bsolo", SolverOptions(**{field: lambda *a: None}))

    def test_spec_accepts_plain_options(self):
        spec = WorkerSpec("bsolo-mis", SolverOptions(vsids_decay=0.9), label="w0")
        assert spec.solver == "bsolo-mis"
        assert spec.label == "w0"


# ----------------------------------------------------------------------
# Portfolio stats aggregation
# ----------------------------------------------------------------------
class TestPortfolioStats:
    def test_counters_sum_over_workers(self):
        stats = PortfolioStats()
        one, two = SolverStats(), SolverStats()
        one.decisions, two.decisions = 10, 32
        one.external_bounds = 2
        one.backjump_max, two.backjump_max = 5, 3
        two.uncertified_prunes = 4
        stats.add_worker_result("a@0", "bsolo", OPTIMAL, 4, 0.5, one.as_dict())
        stats.add_worker_result("b@1", "milp", UNKNOWN, None, 0.7, two.as_dict())
        assert stats.decisions == 42
        assert stats.external_bounds == 2
        assert stats.backjump_max == 5
        assert stats.uncertified_prunes == 4
        assert len(stats.workers) == 2

    def test_failures_and_dict_shape(self):
        stats = PortfolioStats()
        stats.add_worker_failure("c@2", "milp", "boom")
        stats.winner = "a@0"
        data = stats.as_dict()
        assert stats.failures == 1
        assert data["portfolio"]["failures"] == 1
        assert data["portfolio"]["winner"] == "a@0"
        assert data["portfolio"]["workers"][0]["status"] == "failed"


# ----------------------------------------------------------------------
# End-to-end process-parallel runs
# ----------------------------------------------------------------------
class TestPortfolioRuns:
    def test_matches_sequential_bsolo_on_seed_instances(self):
        instances = [covering_instance()]
        instances += covering_suite(
            count=2, minterms=30, implicants=16, density=0.2, max_cost=60
        )
        for instance in instances:
            reference = solve(instance, solver="bsolo-lpr", timeout=60.0)
            assert reference.status == OPTIMAL
            result = solve_portfolio(instance, workers=4, time_limit=60.0)
            assert result.status == OPTIMAL
            assert result.best_cost == reference.best_cost
            assert instance.check(result.model)
            assert result.stats.winner is not None

    def test_portfolio_through_facade(self):
        result = solve(covering_instance(), solver="portfolio", timeout=60.0)
        assert result.status == OPTIMAL and result.best_cost == 4

    def test_incumbent_exchange_happens(self):
        instance = covering_suite(
            count=1, minterms=30, implicants=16, density=0.2, max_cost=60
        )[0]
        solver = PortfolioSolver(instance, workers=4, time_limit=60.0)
        result = solver.solve()
        assert result.status == OPTIMAL
        assert solver.stats.incumbents_shared > 0

    def test_worker_crash_at_construction_is_tolerated(self):
        # covering-bnb refuses non-covering instances; the portfolio
        # records the failure and degrades to the surviving worker
        instance = non_covering_instance()
        specs = [WorkerSpec("covering-bnb"), WorkerSpec("bsolo-lpr")]
        solver = PortfolioSolver(instance, specs=specs, time_limit=60.0)
        result = solver.solve()
        assert result.status == OPTIMAL
        assert instance.check(result.model)
        assert solver.stats.failures == 1
        failed = [w for w in solver.stats.workers if w["status"] == "failed"]
        assert len(failed) == 1 and failed[0]["solver"] == "covering-bnb"

    def test_worker_crash_mid_run_is_tolerated(self):
        class _MidRunCrasher:
            name = "crasher"
            stats = SolverStats()

            def __init__(self, instance, options=None):
                pass

            def solve(self):
                time.sleep(0.1)
                raise RuntimeError("deliberate mid-run crash")

        # fork start method inherits the parent's registry, so the
        # test-only registration is visible inside the worker process
        register_solver("test-midrun-crasher", _MidRunCrasher)
        try:
            specs = [WorkerSpec("test-midrun-crasher"), WorkerSpec("bsolo-lpr")]
            solver = PortfolioSolver(
                covering_instance(), specs=specs, time_limit=60.0
            )
            result = solver.solve()
            assert result.status == OPTIMAL
            assert result.best_cost == 4
            assert solver.stats.failures == 1
        finally:
            from repro.api import _REGISTRY

            _REGISTRY.pop("test-midrun-crasher", None)

    def test_all_workers_failing_degrades_to_unknown(self):
        instance = non_covering_instance()
        specs = [WorkerSpec("covering-bnb", label="a"),
                 WorkerSpec("covering-bnb", label="b")]
        solver = PortfolioSolver(instance, specs=specs, time_limit=60.0)
        result = solver.solve()
        assert result.status == UNKNOWN
        assert solver.stats.failures == 2

    def test_deadline_respected(self):
        # hard enough that no worker finishes; the portfolio must come
        # back at its deadline plus the wind-down grace, not at the
        # workers' convenience
        instance = ptl_suite(count=1, nodes=40, extra_edges=20)[0]
        start = time.monotonic()
        solver = PortfolioSolver(
            instance, workers=4, time_limit=1.0, grace=1.0
        )
        result = solver.solve()
        wall = time.monotonic() - start
        assert wall < 8.0  # 1s budget + 1s grace + fork/terminate slack
        assert result.status == UNKNOWN
        # incumbents found before the deadline still surface as an ub
        if result.best_cost is not None:
            assert instance.check(result.model)

    def test_faster_than_slowest_member_alone(self):
        # acceptance demo: on the ptl family bsolo-plain (no lower
        # bounding) cannot prove optimality in the time the 4-worker
        # portfolio needs to finish the whole job
        instance = ptl_suite(count=1, nodes=18, extra_edges=9)[0]
        specs = [
            WorkerSpec("bsolo-plain"),
            WorkerSpec("bsolo-lpr"),
            WorkerSpec("linear-search"),
            WorkerSpec("bsolo-mis"),
        ]
        start = time.monotonic()
        solver = PortfolioSolver(instance, specs=specs, time_limit=60.0)
        result = solver.solve()
        portfolio_seconds = time.monotonic() - start
        assert result.status == OPTIMAL
        assert instance.check(result.model)
        assert portfolio_seconds < 60.0
        alone = solve(
            instance, solver="bsolo-plain", timeout=portfolio_seconds
        )
        assert alone.status != OPTIMAL

"""Tests for the metrics registry (repro.obs.metrics).

Covers instrument semantics (counter/gauge/histogram), family labeling
rules, deterministic exposition, cross-process snapshot/merge, and
solver integration: every counter family equals its SolverStats or
lb_stats source, counts reach the registry once, when a solve ends, and
a solve with no instrument reads no clock but its elapsed time.  The
layering tests pin that the search's lower layers (``repro.pb``,
``repro.engine``, ``repro.lp``, ``repro.mis``, ``repro.lagrangian``)
import neither ``time`` nor ``repro.obs``, and that the solvers leave
their clock, run records and counts to the one solve envelope.
"""

import ast
import pathlib
import threading
import time

import pytest

import repro
from repro import SolverOptions, make_solver, solve
from repro.api import available_solvers
from repro.baselines.covering_bnb import CoveringBnBSolver
from repro.benchgen import generate_covering, generate_ptl_mapping, generate_routing
from repro.core.solver import BsoloSolver
from repro.incremental import SolverSession
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.portfolio import PortfolioSolver, WorkerSpec


class TestInstruments:
    """Raw instrument semantics."""

    def test_counter_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_counter_rejects_negative(self):
        counter = Counter()
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10.0)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == 11.5

    def test_histogram_buckets_and_sum(self):
        hist = Histogram(buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(100.0)  # lands in the +Inf tail
        assert hist.count == 3
        assert hist.sum == 105.5
        assert hist.counts == [1, 1, 1]

    def test_histogram_cumulative_rendering(self):
        hist = Histogram(buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(100.0)
        assert hist.cumulative() == [("1", 1), ("10", 2), ("+Inf", 3)]

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(10.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=())


class TestRegistry:
    """Family registration, labels, and lookup."""

    def test_unlabeled_counter_returns_instrument(self):
        registry = MetricsRegistry()
        counter = registry.counter("decisions", "decisions made")
        counter.inc(3)
        assert registry.get_value("decisions") == 3

    def test_labeled_family_children_are_distinct(self):
        registry = MetricsRegistry()
        family = registry.counter("conflicts", labels=("type",))
        family.labels(type="logic").inc(2)
        family.labels(type="bound").inc(1)
        assert registry.get_value("conflicts", type="logic") == 2
        assert registry.get_value("conflicts", type="bound") == 1

    def test_labels_must_match_declaration(self):
        registry = MetricsRegistry()
        family = registry.counter("conflicts", labels=("type",))
        with pytest.raises(ValueError):
            family.labels(wrong="x")
        with pytest.raises(ValueError):
            family.labels()

    def test_reregistration_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("hits", labels=("outcome",))
        second = registry.counter("hits", labels=("outcome",))
        first.labels(outcome="hit").inc()
        second.labels(outcome="hit").inc()
        assert registry.get_value("hits", outcome="hit") == 2

    def test_conflicting_reregistration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.counter("x", labels=("a",))

    def test_get_value_missing_returns_none(self):
        registry = MetricsRegistry()
        assert registry.get_value("nothing") is None
        registry.counter("present", labels=("k",))
        assert registry.get_value("present", k="never-touched") is None

    def test_get_value_histogram_shape(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency")
        hist.observe(0.25)
        assert registry.get_value("latency") == {"sum": 0.25, "count": 1}


class TestExposition:
    """render_text / as_dict determinism."""

    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("b_counter", "second family").inc(2)
        family = registry.counter("a_counter", "first family", labels=("kind",))
        family.labels(kind="z").inc()
        family.labels(kind="a").inc(3)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        return registry

    def test_render_text_is_deterministic_and_sorted(self):
        text_a = self._populated().render_text()
        text_b = self._populated().render_text()
        assert text_a == text_b
        # families lexicographic, label values lexicographic within
        assert text_a.index("a_counter") < text_a.index("b_counter")
        assert text_a.index('kind="a"') < text_a.index('kind="z"')

    def test_render_text_prometheus_shapes(self):
        text = self._populated().render_text()
        assert "# TYPE a_counter counter" in text
        assert '# HELP a_counter first family' in text
        assert 'a_counter{kind="a"} 3' in text
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_sum 0.5" in text
        assert "h_count 1" in text
        assert text.endswith("\n")

    def test_as_dict_round_trips_values(self):
        data = self._populated().as_dict()
        assert data["b_counter"]["samples"][0]["value"] == 2
        kinds = {
            sample["labels"]["kind"]: sample["value"]
            for sample in data["a_counter"]["samples"]
        }
        assert kinds == {"a": 3, "z": 1}
        hist = data["h"]["samples"][0]
        assert hist["count"] == 1
        assert hist["buckets"][-1] == {"le": "+Inf", "count": 1}

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_text() == ""
        assert MetricsRegistry().as_dict() == {}


class TestSnapshotMerge:
    """Cross-process aggregation: snapshot() -> merge_snapshot()."""

    def test_counters_add(self):
        worker = MetricsRegistry()
        worker.counter("decisions").inc(4)
        coordinator = MetricsRegistry()
        coordinator.counter("decisions").inc(1)
        coordinator.merge_snapshot(worker.snapshot())
        assert coordinator.get_value("decisions") == 5

    def test_gauges_take_last_write(self):
        worker = MetricsRegistry()
        worker.gauge("depth").set(7)
        coordinator = MetricsRegistry()
        coordinator.gauge("depth").set(3)
        coordinator.merge_snapshot(worker.snapshot())
        assert coordinator.get_value("depth") == 7

    def test_histograms_add_binwise(self):
        worker = MetricsRegistry()
        worker.histogram("lat", buckets=(1.0,)).observe(0.5)
        coordinator = MetricsRegistry()
        coordinator.histogram("lat", buckets=(1.0,)).observe(2.0)
        coordinator.merge_snapshot(worker.snapshot())
        value = coordinator.get_value("lat")
        assert value == {"sum": 2.5, "count": 2}

    def test_merge_creates_missing_families(self):
        worker = MetricsRegistry()
        worker.counter("only_in_worker", "w", labels=("k",)).labels(k="x").inc(2)
        coordinator = MetricsRegistry()
        coordinator.merge_snapshot(worker.snapshot())
        assert coordinator.get_value("only_in_worker", k="x") == 2
        # metadata travelled too: re-registration must agree
        coordinator.counter("only_in_worker", labels=("k",))

    def test_merge_is_associative_over_workers(self):
        snaps = []
        for amount in (1, 2, 3):
            registry = MetricsRegistry()
            registry.counter("n").inc(amount)
            snaps.append(registry.snapshot())
        left = MetricsRegistry()
        for snap in snaps:
            left.merge_snapshot(snap)
        right = MetricsRegistry()
        for snap in reversed(snaps):
            right.merge_snapshot(snap)
        assert left.render_text() == right.render_text()
        assert left.get_value("n") == 6

    def test_histogram_bucket_mismatch_rejected(self):
        worker = MetricsRegistry()
        worker.histogram("lat", buckets=(1.0,)).observe(0.5)
        coordinator = MetricsRegistry()
        coordinator.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
        with pytest.raises(ValueError):
            coordinator.merge_snapshot(worker.snapshot())

    def test_snapshot_is_plain_data(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c", labels=("k",)).labels(k="v").inc()
        registry.histogram("h").observe(0.1)
        json.dumps(registry.snapshot())  # must be JSON/pickle-safe


def expected_counters(stats):
    """The counter samples a solve with ``stats`` (a ``SolverStats.as_dict()``)
    must record, keyed by family name and label values; the engine's
    ``engine_propagate_calls`` has no ``SolverStats`` source and is left out."""
    expected = {
        ("solver_conflicts", "logic"): stats["logic_conflicts"],
        ("solver_conflicts", "bound"): stats["bound_conflicts"],
        ("solver_decisions",): stats["decisions"],
        ("solver_cuts",): stats["cuts_added"],
        ("solver_prunings",): stats["prunings"],
        ("solver_uncertified_prunes",): stats["uncertified_prunes"],
        ("solver_incumbents",): stats["solutions_found"],
        ("engine_propagations",): stats["propagations"],
    }
    lb_stats = stats["lb_stats"]
    mis = lb_stats.get("mis")
    if mis is not None:
        expected[("mis_cache", "hit")] = mis["cache_hits"]
        expected[("mis_cache", "miss")] = mis["cache_misses"]
    if "lpr" in lb_stats:
        expected[("lp_pivots",)] = lb_stats["lpr"]["iterations"]
    return expected


def recorded_counters(registry):
    """Every counter sample of ``registry``, keyed like expected_counters."""
    samples = {}
    for name, family in registry.as_dict().items():
        if family["type"] == "counter":
            for sample in family["samples"]:
                key = (name,) + tuple(sample["labels"].values())
                samples[key] = sample["value"]
    return samples


def summed(counters):
    """Add up per-run counter samples."""
    total = {}
    for samples in counters:
        for key, value in samples.items():
            total[key] = total.get(key, 0) + value
    return total


class TestSolverIntegration:
    """Metrics recorded during a real solve agree with SolverStats."""

    def test_solve_records_consistent_counters(self):
        ptl = generate_ptl_mapping(seed=3)
        cases = [(ptl, dict(lower_bound=method)) for method in ("mis", "lpr")]
        # without the eq. 10 cut bsolo also reaches non-improving
        # solutions, which solver_incumbents must not count
        cases.append(
            (
                generate_routing(3, 3, 7, 2, 5, seed=11),
                dict(lower_bound="plain", upper_bound_cuts=False),
            )
        )
        for instance, options in cases:
            registry = MetricsRegistry()
            solver = BsoloSolver(
                instance, SolverOptions(metrics=registry, **options)
            )
            result = solver.solve()
            assert result.status == "optimal"
            recorded = recorded_counters(registry)
            calls = recorded.pop(("engine_propagate_calls",))
            assert calls == solver._propagator.num_propagate_calls > 0
            assert recorded == expected_counters(result.stats.as_dict()), options

    def test_session_calls_add_up(self):
        registry = MetricsRegistry()
        session = SolverSession(
            generate_ptl_mapping(seed=3),
            SolverOptions(lower_bound="mis", metrics=registry),
        )
        per_call = []
        for assumptions in ([], [1], [-2], [3, -4]):
            stats = session.solve_under(assumptions).stats.as_dict()
            # the MIS bounder persists: its lb_stats are session totals
            lb_stats, stats["lb_stats"] = stats["lb_stats"], {}
            per_call.append(expected_counters(stats))
        expected = summed(per_call)
        expected[("mis_cache", "hit")] = lb_stats["mis"]["cache_hits"]
        expected[("mis_cache", "miss")] = lb_stats["mis"]["cache_misses"]
        recorded = recorded_counters(registry)
        engine = session.propagator
        assert recorded.pop(("engine_propagate_calls",)) == (
            engine.num_propagate_calls
        )
        assert recorded == expected

    def test_covering_bnb_records_its_mis_cache(self):
        registry = MetricsRegistry()
        solver = CoveringBnBSolver(
            generate_covering(minterms=30, implicants=20, seed=4),
            SolverOptions(metrics=registry),
        )
        result = solver.solve()
        assert result.status == "optimal"
        mis = solver._mis.stats_dict()
        assert mis["cache_misses"] > 0
        expected = expected_counters(result.stats.as_dict())
        del expected[("engine_propagations",)]  # it runs no engine
        expected[("mis_cache", "hit")] = mis["cache_hits"]
        expected[("mis_cache", "miss")] = mis["cache_misses"]
        assert recorded_counters(registry) == expected

    @pytest.mark.parametrize(
        "name", [name for name in available_solvers() if name != "portfolio"]
    )
    def test_every_solver_records_its_counts(self, name):
        registry = MetricsRegistry()
        instance = generate_covering(
            minterms=12, implicants=8, density=0.2, max_cost=9, seed=3
        )
        result = solve(instance, name, metrics=registry)
        assert result.status == "optimal"
        recorded = recorded_counters(registry)
        assert recorded[("solver_decisions",)] == result.stats.decisions
        assert recorded[("solver_conflicts", "logic")] == (
            result.stats.logic_conflicts
        )

    def test_portfolio_registry_sums_worker_stats(self):
        registry = MetricsRegistry()
        specs = [WorkerSpec("bsolo-mis"), WorkerSpec("bsolo-lpr")]
        result = PortfolioSolver(
            generate_ptl_mapping(seed=3),
            specs=specs,
            time_limit=60.0,
            metrics=registry,
        ).solve()
        assert result.status == "optimal"
        workers = result.stats.workers
        assert len(workers) == 2
        recorded = recorded_counters(registry)
        assert recorded.pop(("engine_propagate_calls",)) > 0
        assert recorded == summed(
            expected_counters(entry["stats"]) for entry in workers
        )

    def test_hot_path_touches_no_counter(self):
        # Counts reach the registry once, when solve() ends: a snapshot
        # taken mid-search is empty.
        registry = MetricsRegistry()
        snapshots = []
        options = SolverOptions(
            lower_bound="mis",
            metrics=registry,
            on_incumbent=lambda cost, model: snapshots.append(registry.as_dict()),
        )
        result = solve(generate_ptl_mapping(seed=3), options=options)
        assert result.status == "optimal"
        assert snapshots
        assert all(snapshot == {} for snapshot in snapshots)
        assert recorded_counters(registry)[("solver_decisions",)] == (
            result.stats.decisions
        )

    def test_hot_path_reads_no_clock(self, monkeypatch):
        # With no instrument passed, a solve reads the clock for
        # stats.elapsed only: no bounder, engine or registry times itself.
        # A deadline is read on the poll cadence, not every iteration.
        # Reads are counted on this thread only, so a thread an earlier
        # test left behind cannot add to them.
        main = threading.get_ident()
        reads = {"perf_counter": 0, "monotonic": 0}
        for name in reads:

            def counted(clock=getattr(time, name), name=name):
                if threading.get_ident() == main:
                    reads[name] += 1
                return clock()

            monkeypatch.setattr(time, name, counted)
        instance = generate_routing(5, 5, 10, 2, 3, seed=9)
        for solver in ("bsolo-lpr", "bsolo-mis", "bsolo-lgr"):
            reads.update(perf_counter=0, monotonic=0)
            result = make_solver(instance, solver).solve()
            assert result.status == "optimal"
            assert result.stats.lower_bound_calls > 0
            assert reads == {"perf_counter": 0, "monotonic": 2}, solver
            reads.update(perf_counter=0, monotonic=0)
            options = SolverOptions(time_limit=60)
            result = make_solver(instance, solver, options).solve()
            assert result.status == "optimal"
            assert reads["perf_counter"] == 0, solver
            assert reads["monotonic"] <= 20, (solver, reads)

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestLayering:
    """The search's lower layers hold no clock and no instrument, and
    the solvers hold no envelope of their own."""

    LOWER_LAYERS = ("pb", "engine", "lp", "mis", "lagrangian")

    @staticmethod
    def _imported(module: str, is_package: bool, node) -> list:
        """Absolute names an import statement of ``module`` binds."""
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        base = node.module or ""
        if node.level:
            package = module.split(".")
            if not is_package:
                package = package[:-1]
            package = package[: len(package) - (node.level - 1)]
            base = ".".join(package + ([node.module] if node.module else []))
        return [base] + [base + "." + alias.name for alias in node.names]

    def test_lower_layers_import_no_clock_or_obs(self):
        root = pathlib.Path(repro.__file__).parent
        leaked = []
        for layer in self.LOWER_LAYERS:
            for path in sorted((root / layer).rglob("*.py")):
                parts = path.relative_to(root).with_suffix("").parts
                is_package = parts[-1] == "__init__"
                module = ".".join(("repro",) + (parts[:-1] if is_package else parts))
                tree = ast.parse(path.read_text(), filename=str(path))
                for node in ast.walk(tree):
                    if not isinstance(node, (ast.Import, ast.ImportFrom)):
                        continue
                    for name in self._imported(module, is_package, node):
                        if name in ("time", "repro.obs") or name.startswith(
                            ("time.", "repro.obs.")
                        ):
                            leaked.append((module, name))
        assert not leaked, leaked

    #: What only the solve envelope (``repro.core.result.SolveRun``) may
    #: import: the run clock, the run's trace records and its counts.
    ENVELOPE = (
        "time",
        "RunHeaderEvent",
        "IncumbentEvent",
        "ResultEvent",
        "record_metrics",
        "SolverStats",
        "PhaseTimer",
    )

    def test_one_solve_envelope(self):
        # Every solver keeps its incumbent, hooks, clock and answer rule
        # in the one SolveRun; the solvers themselves import none of it.
        root = pathlib.Path(repro.__file__).parent
        paths = [root / "core" / "solver.py"]
        paths += sorted((root / "baselines").glob("*.py"))
        leaked = []
        for path in paths:
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [alias.name for alias in node.names]
                else:
                    continue
                leaked += [
                    (path.name, name) for name in names if name in self.ENVELOPE
                ]
        assert not leaked, leaked

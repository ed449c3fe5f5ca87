"""Process-parallel portfolio solving with incumbent exchange.

Architecture (ParLS-PBO-style sharing on top of the repo's solvers):

* the coordinator forks one process per :class:`WorkerSpec`; every
  worker builds its solver through the :mod:`repro.api` registry, so a
  spec is nothing more than ``(solver_name, options)``;
* a shared integer (``multiprocessing.Value``) holds the best cost
  published by any worker; workers poll it through the
  ``external_bound`` hook and tighten their own upper bound mid-search
  (bsolo additionally regenerates its Section 5 cuts from the imported
  bound), and publish improvements through ``on_incumbent``;
* full incumbents (cost + model) flow to the coordinator over a queue,
  so the final result carries a witnessing model even when the worker
  that *proved* optimality never found one itself;
* a shared event implements cooperative interruption: the first proof
  (or the deadline) stops the remaining workers at their next poll;
  workers that ignore it past the grace period are terminated;
* a worker that crashes — or dies without reporting — is recorded in
  :class:`PortfolioStats` and the portfolio degrades to the survivors.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.options import SolverOptions
from ..core.result import (
    OPTIMAL,
    SATISFIABLE,
    SolveResult,
    UNKNOWN,
    UNSATISFIABLE,
)
from ..pb.instance import PBInstance
from .specs import WorkerSpec, default_specs
from .stats import PortfolioStats

#: Sentinel stored in the shared best-cost cell before any incumbent.
_NO_BOUND = 2 ** 62


def _worker_trace_path(trace_path: str, worker_id: int) -> str:
    """Per-worker trace file name (``<merged>.w<id>``)."""
    return "%s.w%d" % (trace_path, worker_id)


def _worker_main(worker_id, spec, instance, time_limit, best_value,
                 stop_event, channel, trace_path=None, collect_metrics=False):
    """Worker-process entry point: build the spec's solver with the
    exchange hooks installed and ship the result (or the error) back.

    With ``trace_path`` the worker writes its own crash-safe
    :class:`~repro.obs.trace.JsonlTracer` file (profiling forced on so
    phase times reach the merged report); with ``collect_metrics`` it
    runs a private :class:`~repro.obs.metrics.MetricsRegistry` whose
    snapshot travels back with the result for coordinator-side merging.
    """
    try:
        from ..api import make_solver

        base = spec.options if spec.options is not None else SolverOptions()
        limit = base.time_limit
        if time_limit is not None:
            limit = time_limit if limit is None else min(limit, time_limit)

        def publish(cost, model):
            with best_value.get_lock():
                if cost < best_value.value:
                    best_value.value = cost
            channel.put(("incumbent", worker_id, cost, model))

        def imported():
            cost = best_value.value
            return cost if cost < _NO_BOUND else None

        overrides: Dict[str, Any] = dict(
            time_limit=limit,
            on_incumbent=publish,
            external_bound=imported,
            should_stop=stop_event.is_set,
        )
        tracer = None
        registry = None
        if trace_path is not None:
            from ..obs.trace import JsonlTracer

            tracer = JsonlTracer(trace_path)
            tracer.instance_label = spec.label
            overrides.update(tracer=tracer, profile=True)
        if collect_metrics:
            from ..obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
            overrides["metrics"] = registry
        options = base.replace(**overrides)
        solver = make_solver(instance, spec.solver, options)
        result = solver.solve()
        if tracer is not None:
            tracer.close()
        obs: Optional[Dict[str, Any]] = None
        if tracer is not None or registry is not None:
            obs = {
                "trace_path": trace_path,
                "trace_events": tracer.events_emitted if tracer else 0,
                "metrics": registry.snapshot() if registry is not None else None,
            }
        channel.put(("result", worker_id, result, obs))
    except BaseException as exc:  # report *any* failure, then exit
        try:
            channel.put(
                ("error", worker_id, "%s: %s" % (type(exc).__name__, exc))
            )
        except Exception:
            os._exit(1)


class PortfolioSolver:
    """Run N diversified solvers in parallel; return the best result.

    Constructor shape matches the registry convention
    ``(instance, options)``; ``options.time_limit`` is the whole
    portfolio's deadline.  ``specs`` overrides the default diversified
    portfolio; ``workers`` sizes the default one.
    """

    name = "portfolio"

    def __init__(
        self,
        instance: PBInstance,
        options: Optional[SolverOptions] = None,
        *,
        specs: Optional[Sequence[WorkerSpec]] = None,
        workers: int = 4,
        time_limit: Optional[float] = None,
        grace: float = 2.0,
        stop_on_proof: bool = True,
        start_method: Optional[str] = None,
        trace_path: Optional[str] = None,
        metrics=None,
    ):
        self._instance = instance
        self._options = options if options is not None else SolverOptions()
        self._time_limit = (
            time_limit if time_limit is not None else self._options.time_limit
        )
        if specs is not None:
            self._specs = list(specs)
            for spec in self._specs:
                spec.validate()
        else:
            self._specs = default_specs(workers)
        if not self._specs:
            raise ValueError("portfolio needs at least one worker spec")
        self._grace = grace
        self._stop_on_proof = stop_on_proof
        self._start_method = start_method
        #: Merged-timeline output: workers write ``<trace_path>.w<id>``
        #: and the coordinator merges them into ``trace_path`` with
        #: aligned timestamps (see :mod:`repro.obs.merge`).
        self._trace_path = trace_path
        #: Coordinator-side metrics registry; worker snapshots are merged
        #: into it.  Falls back to ``options.metrics`` (the options
        #: object never crosses the process boundary, so a live registry
        #: there belongs to the coordinator by construction).
        self._metrics = metrics if metrics is not None else self._options.metrics
        self.stats = PortfolioStats()

    # ------------------------------------------------------------------
    def solve(self) -> SolveResult:
        """Run the worker processes and return the best combined result."""
        start = time.monotonic()
        ctx = multiprocessing.get_context(self._start_method)
        best_value = ctx.Value("q", _NO_BOUND)
        stop_event = ctx.Event()
        channel = ctx.Queue()
        deadline = (
            start + self._time_limit if self._time_limit is not None else None
        )

        processes: List = []
        for worker_id, spec in enumerate(self._specs):
            worker_trace = (
                _worker_trace_path(self._trace_path, worker_id)
                if self._trace_path is not None
                else None
            )
            process = ctx.Process(
                target=_worker_main,
                args=(worker_id, spec, self._instance, self._time_limit,
                      best_value, stop_event, channel, worker_trace,
                      self._metrics is not None),
                daemon=True,
                name="portfolio-%s" % spec.label,
            )
            process.start()
            processes.append(process)

        results: Dict[int, SolveResult] = {}
        errors: Dict[int, str] = {}
        obs_meta: Dict[int, Dict[str, Any]] = {}
        best_shared: Optional[Tuple[int, Dict[int, int]]] = None
        pending = set(range(len(self._specs)))

        def handle(message) -> None:
            nonlocal best_shared
            kind = message[0]
            if kind == "incumbent":
                _, _worker_id, cost, model = message
                self.stats.incumbents_shared += 1
                if best_shared is None or cost < best_shared[0]:
                    best_shared = (cost, model)
            elif kind == "result":
                _, worker_id, result, obs = message
                results[worker_id] = result
                if obs is not None:
                    obs_meta[worker_id] = obs
                pending.discard(worker_id)
                if self._stop_on_proof and result.solved:
                    stop_event.set()
            else:  # "error"
                _, worker_id, text = message
                errors[worker_id] = text
                pending.discard(worker_id)

        # Main collection loop: until everyone reported, the deadline
        # passed, an external cancel arrived, or every process died
        # without a word.
        should_stop = self._options.should_stop
        while pending:
            if deadline is not None and time.monotonic() > deadline:
                break
            if should_stop is not None and should_stop():
                # External cancellation (e.g. the solve service's stop
                # event): enter the same wind-down as a deadline, so the
                # caller still gets the best result collected so far.
                break
            try:
                handle(channel.get(timeout=0.05))
                continue
            except queue_module.Empty:
                pass
            # a worker can die without reporting (hard crash, oom-kill):
            # drop it from pending once it is dead *and* the queue is dry
            for worker_id in sorted(pending):
                process = processes[worker_id]
                if not process.is_alive() and channel.empty():
                    errors[worker_id] = (
                        "worker died without reporting (exitcode %s)"
                        % process.exitcode
                    )
                    pending.discard(worker_id)

        # Wind-down: ask stragglers to stop, give them the grace period,
        # then terminate whoever is left.
        stop_event.set()
        grace_end = time.monotonic() + self._grace
        while pending and time.monotonic() < grace_end:
            try:
                handle(channel.get(timeout=0.05))
            except queue_module.Empty:
                if all(not processes[w].is_alive() for w in pending) and channel.empty():
                    break
        for worker_id in sorted(pending):
            process = processes[worker_id]
            if process.is_alive():
                process.terminate()
                errors[worker_id] = "terminated at deadline"
            elif worker_id not in errors:
                errors[worker_id] = (
                    "worker died without reporting (exitcode %s)"
                    % process.exitcode
                )
        for process in processes:
            process.join(timeout=1.0)

        self._merge_observability(results, obs_meta)
        return self._assemble(results, errors, best_shared, obs_meta, start)

    # ------------------------------------------------------------------
    def _merge_observability(
        self,
        results: Dict[int, SolveResult],
        obs_meta: Dict[int, Dict[str, Any]],
    ) -> None:
        """Coordinator-side aggregation after the workers are gone.

        Worker metrics snapshots are merged into the coordinator's
        registry; per-worker trace files (including those of crashed
        workers — the crash-safe tracer leaves valid JSONL behind) are
        merged into ``self._trace_path`` as one worker-tagged,
        clock-aligned timeline.
        """
        if self._metrics is not None:
            for obs in obs_meta.values():
                snapshot = obs.get("metrics")
                if snapshot:
                    self._metrics.merge_snapshot(snapshot)
        if self._trace_path is None:
            return
        from ..obs.merge import merge_traces, write_records
        from ..obs.trace import read_trace

        traces: List[Tuple[int, List[Dict[str, Any]]]] = []
        summaries: Dict[int, Dict[str, Any]] = {}
        for worker_id, spec in enumerate(self._specs):
            path = _worker_trace_path(self._trace_path, worker_id)
            try:
                records = read_trace(path)
            except (OSError, ValueError):
                continue
            traces.append((worker_id, records))
            summary: Dict[str, Any] = {
                "label": spec.label,
                "solver": spec.solver,
            }
            result = results.get(worker_id)
            if result is not None:
                summary["status"] = result.status
                summary["cost"] = result.best_cost
                summary["elapsed"] = result.stats.elapsed
                summary["phase_times"] = dict(result.stats.phase_times)
            summaries[worker_id] = summary
        if traces:
            write_records(self._trace_path, merge_traces(traces, summaries))

    # ------------------------------------------------------------------
    def _assemble(
        self,
        results: Dict[int, SolveResult],
        errors: Dict[int, str],
        best_shared: Optional[Tuple[int, Dict[int, int]]],
        obs_meta: Dict[int, Dict[str, Any]],
        start: float,
    ) -> SolveResult:
        stats = self.stats
        for worker_id, spec in enumerate(self._specs):
            if worker_id in results:
                result = results[worker_id]
                stats.add_worker_result(
                    spec.label, spec.solver, result.status, result.best_cost,
                    result.stats.elapsed, result.stats.as_dict(),
                    obs=obs_meta.get(worker_id),
                )
            elif worker_id in errors:
                stats.add_worker_failure(spec.label, spec.solver,
                                         errors[worker_id])
        stats.elapsed = time.monotonic() - start

        # Pick the strongest worker outcome: a proof beats everything,
        # then the lowest upper bound among the timeouts.
        winner_id: Optional[int] = None
        for worker_id, result in results.items():
            if not result.solved:
                continue
            if winner_id is None:
                winner_id = worker_id
                continue
            best = results[winner_id]
            if (
                result.best_cost is not None
                and (best.best_cost is None or result.best_cost < best.best_cost)
            ):
                winner_id = worker_id
        if winner_id is None:
            for worker_id, result in results.items():
                if result.best_cost is None:
                    continue
                if (
                    winner_id is None
                    or result.best_cost < results[winner_id].best_cost
                ):
                    winner_id = worker_id

        if winner_id is not None:
            winner = results[winner_id]
            stats.winner = self._specs[winner_id].label
            status = winner.status
            best_cost = winner.best_cost
            model = winner.best_assignment
        else:
            status = UNKNOWN
            best_cost = None
            model = None

        # The coordinator's incumbent store can both supply a missing
        # witnessing model and improve a timeout's upper bound.
        if best_shared is not None:
            shared_cost, shared_model = best_shared
            if best_cost is None or shared_cost < best_cost:
                if status not in (OPTIMAL, SATISFIABLE, UNSATISFIABLE):
                    best_cost = shared_cost
                    model = shared_model
            if model is None and best_cost is not None and shared_cost == best_cost:
                model = shared_model
        return SolveResult(
            status,
            best_cost=best_cost,
            best_assignment=model,
            stats=stats,
            solver_name=self.name,
        )


def solve_portfolio(
    instance: PBInstance,
    workers: int = 4,
    time_limit: Optional[float] = None,
    specs: Optional[Sequence[WorkerSpec]] = None,
    options: Optional[SolverOptions] = None,
    trace_path: Optional[str] = None,
    metrics=None,
) -> SolveResult:
    """Convenience wrapper: build a :class:`PortfolioSolver` and run it."""
    return PortfolioSolver(
        instance, options, specs=specs, workers=workers, time_limit=time_limit,
        trace_path=trace_path, metrics=metrics,
    ).solve()

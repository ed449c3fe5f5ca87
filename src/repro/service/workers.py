"""Per-job solver processes for the solve service.

Each admitted job runs in its own worker *process* (the portfolio
pattern: no shared GIL, crash isolation), launched with three pieces of
shared state created before the fork: a stop :class:`multiprocessing.Event`
(the cooperative cancel signal, wired to the solver's ``should_stop``
hook), a message :class:`multiprocessing.Queue` (progress, incumbents,
the final result), and the job payload itself.

A *pump* thread on the coordinator side drains the message queue and
forwards every record onto the service's asyncio loop with
``call_soon_threadsafe`` — the only place worker state crosses into the
async world.  A worker that dies without reporting (hard crash,
oom-kill) is detected by the pump and surfaced as a synthesized error
message, mirroring the portfolio runner's crash tolerance.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import threading
import queue as queue_module
from typing import Any, Callable, Dict, Optional

from ..core.options import SolverOptions


def _solve_worker(channel, stop_event, instance_text, solver, options_kwargs,
                  proof, progress_interval, deadline):
    """Worker-process entry point: parse, solve, report.

    Runs in the child.  Progress and incumbent callbacks forward
    through ``channel`` as they fire; the final message is either
    ``("result", payload)`` or ``("error", text)``.  The solver's
    ``should_stop`` hook polls ``stop_event``, so a coordinator-side
    cancel makes the solve return its best-so-far result instead of
    being killed mid-write.
    """
    try:
        import io

        from ..api import solve
        from ..pb.opb import parse

        instance = parse(io.StringIO(instance_text))

        def report_progress(stats, best, lower):
            channel.put(
                (
                    "progress",
                    {
                        "conflicts": stats.conflicts,
                        "decisions": stats.decisions,
                        "best": best,
                        "lower": lower,
                    },
                )
            )

        def report_incumbent(cost, model):
            channel.put(("incumbent", {"cost": cost}))

        overrides: Dict[str, Any] = dict(
            options_kwargs,
            should_stop=stop_event.is_set,
            on_progress=report_progress,
            progress_interval=progress_interval,
            on_incumbent=report_incumbent,
        )
        limit = overrides.get("time_limit")
        if deadline is not None:
            limit = deadline if limit is None else min(limit, deadline)
        overrides["time_limit"] = limit

        proof_text: Optional[str] = None
        if proof:
            from ..certify import ProofLogger

            handle, proof_path = tempfile.mkstemp(suffix=".pbp")
            os.close(handle)
            logger = ProofLogger(proof_path)
            try:
                result = solve(
                    instance,
                    solver,
                    SolverOptions(**dict(overrides, proof=logger)),
                )
            finally:
                logger.close()
            try:
                with open(proof_path, "r") as source:
                    proof_text = source.read()
            finally:
                os.unlink(proof_path)
        else:
            result = solve(instance, solver, SolverOptions(**overrides))

        payload: Dict[str, Any] = {
            "status": result.status,
            "cost": result.best_cost,
            "model": (
                {str(var): value
                 for var, value in sorted(result.best_assignment.items())}
                if result.best_assignment
                else None
            ),
            "stats": {
                "conflicts": getattr(result.stats, "conflicts", 0),
                "decisions": getattr(result.stats, "decisions", 0),
                "elapsed": getattr(result.stats, "elapsed", 0.0),
            },
        }
        if proof_text is not None:
            payload["proof"] = proof_text
        channel.put(("result", payload))
    except BaseException as exc:  # ship *any* failure, then exit
        try:
            channel.put(("error", "%s: %s" % (type(exc).__name__, exc)))
        except Exception:
            os._exit(1)


class WorkerHandle:
    """Coordinator-side handle on one job's worker process.

    Owns the process, the stop event and the pump thread.  Messages
    reach ``on_message(kind, data)`` on the service loop;
    the pump exits after forwarding a terminal message (``result`` /
    ``error``) or after synthesizing one for a silent death.
    """

    def __init__(self, process, stop_event, channel, pump):
        self._process = process
        self._stop_event = stop_event
        self._channel = channel
        self._pump = pump

    # ------------------------------------------------------------------
    @property
    def pid(self) -> Optional[int]:
        """The worker process id (None before start)."""
        return self._process.pid

    def cancel(self) -> None:
        """Ask the solver to stop cooperatively (``should_stop``)."""
        self._stop_event.set()

    def alive(self) -> bool:
        """Whether the worker process is still running."""
        return self._process.is_alive()

    def terminate(self) -> None:
        """Hard-kill the worker (after the cooperative grace expired)."""
        if self._process.is_alive():
            self._process.terminate()

    def join(self, timeout: Optional[float] = None) -> None:
        """Join the process and the pump thread."""
        self._process.join(timeout=timeout)
        self._pump.join(timeout=timeout)


def launch_worker(
    loop,
    on_message: Callable[[str, Any], None],
    instance_text: str,
    solver: str,
    options_kwargs: Dict[str, Any],
    proof: bool,
    progress_interval: int,
    deadline: Optional[float],
    start_method: Optional[str] = None,
) -> WorkerHandle:
    """Fork a worker process for one job and start its pump thread.

    ``on_message`` is invoked on ``loop`` (via ``call_soon_threadsafe``)
    for every worker record, terminal ones included, so the service
    never blocks on multiprocessing primitives.
    """
    ctx = multiprocessing.get_context(start_method)
    stop_event = ctx.Event()
    channel = ctx.Queue()
    process = ctx.Process(
        target=_solve_worker,
        args=(channel, stop_event, instance_text, solver, options_kwargs,
              proof, progress_interval, deadline),
        daemon=True,
        name="service-%s" % solver,
    )
    process.start()

    def pump() -> None:
        """Drain the channel until a terminal message (or silent death)."""
        while True:
            try:
                kind, data = channel.get(timeout=0.1)
            except queue_module.Empty:
                if not process.is_alive():
                    # flush any message racing the exit, then give up
                    try:
                        kind, data = channel.get(timeout=0.2)
                    except queue_module.Empty:
                        loop.call_soon_threadsafe(
                            on_message,
                            "error",
                            "worker died without reporting (exitcode %s)"
                            % process.exitcode,
                        )
                        return
                else:
                    continue
            loop.call_soon_threadsafe(on_message, kind, data)
            if kind in ("result", "error"):
                return

    pump_thread = threading.Thread(target=pump, daemon=True)
    pump_thread.start()
    return WorkerHandle(process, stop_event, channel, pump_thread)

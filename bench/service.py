"""The service workload: ``python -m repro serve`` under a two-phase load.

The server runs as its own process with one worker per CPU, so the client
threads never share its interpreter lock.  Each client thread keeps one
connection at a time: it submits a job, then waits for the job's SSE
``result`` event (never the 50 ms polling ``ServiceClient.wait``).  Models
are fetched with ``GET /jobs/{id}`` after a phase ends and checked outside
every timed interval.

* closed phase — one client sends its next job as soon as the previous one
  is answered; ``suite_s`` is the phase's wall time.  One client, because
  on a machine whose cores are shared with other tenants a loop that keeps
  both CPUs busy swung by 46% between slow and fast spells, one client by 12%.
* paced phase — open schedule: jobs are due at ``PACED_RATE`` per second in
  total over ``CLIENTS`` clients, each keeping its share of the schedule,
  and a job's latency runs from its due time, so a stall also counts
  against the jobs behind it.

A run alternates the phases over ``ROUNDS`` rounds and reports its best
round: the machines this runs on share cores with other tenants, which
slows everything by up to half for seconds at a time.
"""

from __future__ import annotations

import os
import select
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro import ServiceClient, SolverOptions, canonical_form, make_solver, parse
from repro.service import ServiceError

from .ledger import Ledger, nproc, peak_rss_mb, percentile, subprocess_env
from .workloads import TIME_LIMIT, Checker, Task

#: Jobs per second of the paced phase, all clients together.
PACED_RATE = 40.0
#: Closed-loop jobs per second at the commit that defined the benchmark
#: (2-core x86-64); with ``CLOSED_SHARE`` it sizes the closed phase.
CLOSED_RATE = 120.0
#: Share of ``--seconds`` the closed phases take; the paced phases get the rest.
CLOSED_SHARE = 1.0 / 3.0
#: A run alternates the two phases this many times, each round with its
#: own jobs, and reports its best round (see ``run_service``).
ROUNDS = 4
SERVER_STARTS = 5
#: Paced client threads, each with one connection at a time (never more
#: than nproc).
CLIENTS = 2
#: Named in every request, so the in-process comparison runs the same solver.
SOLVER = "bsolo-lpr"
TERMINAL_EVENTS = ("result", "failed", "cancelled")


class Server:
    """One ``python -m repro serve`` process group, stopped on exit."""

    def __init__(self, src: Path, workers: int):
        self._argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                      "--workers", str(workers)]
        self._env = subprocess_env(src)
        self._process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> float:
        """Launch the server; returns seconds until it printed its port."""
        start = time.perf_counter()
        self._process = subprocess.Popen(
            self._argv, env=self._env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        stdout = self._process.stdout
        deadline = start + timeout
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([stdout], [], [], remaining)[0]:
                raise RuntimeError("server printed no port within %.0f s" % timeout)
            line = stdout.readline()
            if not line:
                raise RuntimeError("server exited with code %s" % self._process.wait())
            if line.startswith("c serve") and "port=" in line:
                self.port = int(line.split("port=", 1)[1].split()[0])
                return time.perf_counter() - start

    def stop(self) -> None:
        """Interrupt the server, wait for it, then clear its process group."""
        process, self._process = self._process, None
        if process is None:
            return
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGINT)
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            # The workers are the server's children, in its process group:
            # kill whatever is left of the group and wait for it to empty.
            deadline = time.monotonic() + 5.0
            try:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
                while time.monotonic() < deadline:
                    os.killpg(process.pid, 0)
                    time.sleep(0.05)
            except ProcessLookupError:
                pass
            process.wait()
            process.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def _one_job(client: ServiceClient, task: Task, record: Dict[str, Any]) -> None:
    """Submit one job and wait for its terminal SSE event."""
    record["send"] = time.perf_counter()
    try:
        job = client.submit(task.text, solver=SOLVER, timeout=TIME_LIMIT)
    except ServiceError as exc:
        record["error"] = "rejected" if exc.status == 503 else exc.code
        record["posted"] = record["done"] = time.perf_counter()
        return
    record["posted"] = time.perf_counter()
    record["id"] = job["id"]
    record["event"] = "result" if job["state"] == "done" else None
    if record["event"] is None:
        events = client.events(job["id"])
        try:
            for event, _ in events:
                if event in TERMINAL_EVENTS:
                    record["event"] = event
                    break
        finally:
            events.close()
    record["done"] = time.perf_counter()


def _drive(client: ServiceClient, tasks: List[Task], clients: int,
           rate: Optional[float]) -> List[Dict[str, Any]]:
    """Run ``tasks`` over ``clients`` threads; client ``c`` takes every
    ``clients``-th job.  ``rate`` None is the closed loop; otherwise job
    ``i`` is due ``i / rate`` seconds after the phase starts."""
    records: List[Dict[str, Any]] = [{} for _ in tasks]
    start = time.perf_counter()

    def client_loop(first: int) -> None:
        free = start
        for index in range(first, len(tasks), clients):
            record = records[index]
            if rate is None:
                _one_job(client, tasks[index], record)
                record["due"] = record["send"]
                continue
            due = start + index / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            _one_job(client, tasks[index], record)
            record["due"] = due
            # How late the generator itself sent the job: after it was
            # both due and free to send.
            record["late"] = record["send"] - max(due, free)
            free = record["done"]

    with ThreadPoolExecutor(max_workers=clients) as pool:
        for future in [pool.submit(client_loop, c) for c in range(clients)]:
            future.result()
    return records


def _fetch_and_check(client: ServiceClient, tasks: List[Task],
                     records: List[Dict[str, Any]]) -> List[str]:
    """Fetch every finished job after the phase and check its answer."""
    problems = []
    for task, record in zip(tasks, records):
        if "id" in record:
            record["get_start"] = time.perf_counter()
            record["resource"] = client.get(record["id"])
            record["get_end"] = time.perf_counter()
        if "error" in record:
            problem = "submit failed: %s" % record["error"]
        elif record["event"] != "result" or record["resource"]["state"] != "done":
            problem = "job ended %s" % record["resource"]["state"]
        else:
            result = record["resource"]["result"]
            problem = Checker(task.text).problem(
                task.expected, result["status"], result["cost"], result.get("model")
            )
        if problem is not None:
            record["problem"] = problem
            problems.append("%s: %s" % (task.label, problem))
    return problems


def _rounds(port: int, warmup: List[Task], tasks: List[Task], counts: Dict[str, int],
            clients: int):
    """Warm-up, then ``ROUNDS`` rounds of both phases against one server.

    Returns each round's closed-loop wall time and paced latencies, every
    job's record in task order, the problems and the cache counters' movement.
    """
    client = ServiceClient(port=port, timeout=TIME_LIMIT + 30.0)
    _drive(client, warmup, clients, None)
    cache_before = client.health()["cache"]
    rounds, records, problems = [], [], []
    size = counts["closed"] + counts["paced"]
    for first in range(0, len(tasks), size):
        closed_tasks = tasks[first:first + counts["closed"]]
        paced_tasks = tasks[first + counts["closed"]:first + size]
        start = time.perf_counter()
        closed = _drive(client, closed_tasks, 1, None)
        wall = max(record["done"] for record in closed) - start
        problems += _fetch_and_check(client, closed_tasks, closed)
        opened = _drive(client, paced_tasks, clients, PACED_RATE)
        problems += _fetch_and_check(client, paced_tasks, opened)
        rounds.append({"wall": wall, "paced": _latencies(opened)})
        records += closed + opened
    cache_after = client.health()["cache"]
    cache = {key: cache_after[key] - cache_before[key] for key in ("hits", "misses")}
    return rounds, records, problems, cache


def _latencies(records: List[Dict[str, Any]]) -> List[float]:
    """Latencies of the answered jobs, from the time each was due."""
    return [r["done"] - r["due"] for r in records if "problem" not in r]


def _in_process(tasks: List[Task]) -> Dict[str, Dict[str, float]]:
    """Parse, canonicalize and solve each job text here, timed per step."""
    timings: Dict[str, Dict[str, float]] = {}
    for task in tasks:
        if task.text in timings:
            continue
        start = time.perf_counter()
        instance = parse(task.text)
        parsed = time.perf_counter()
        canonical_form(instance)
        canonical = time.perf_counter()
        make_solver(instance, SOLVER, SolverOptions(time_limit=TIME_LIMIT)).solve()
        solved = time.perf_counter()
        timings[task.text] = {
            "parse": parsed - start,
            "canonical": canonical - parsed,
            "solve": solved - canonical,
        }
    return timings


def _service_layers(tasks: List[Task], records: List[Dict[str, Any]],
                    cache: Dict[str, int], ledger: Ledger) -> Dict[str, float]:
    """Per-layer service metrics of a traced run.

    Timings are medians over the paced jobs that ran a worker (cache hits
    never do); counts cover every job.
    """
    timings = _in_process(tasks)
    submit, queue, run, notify, overhead = [], [], [], [], []
    for trace, (task, record) in enumerate(zip(tasks, records)):
        if "resource" not in record:
            continue
        resource = record["resource"]
        ledger.span(trace, "job", record["due"], record["done"])
        ledger.span(trace, "submit", record["send"], record["posted"], "job")
        ledger.span(trace, "wait", record["posted"], record["done"], "job")
        ledger.span(trace, "get", record["get_start"], record["get_end"], "job")
        if resource.get("result", {}).get("cached") or "queue_seconds" not in resource:
            continue
        ledger.phase(trace, "wait", "queue", resource["queue_seconds"])
        ledger.phase(trace, "wait", "run", resource["elapsed_seconds"])
        if "late" not in record:
            continue
        step = timings[task.text]
        submit.append(record["posted"] - record["send"])
        queue.append(resource["queue_seconds"])
        run.append(resource["elapsed_seconds"])
        # The server admits the job before its POST answer is written, so
        # this residual may be slightly negative.
        notify.append(record["done"] - record["posted"]
                      - resource["queue_seconds"] - resource["elapsed_seconds"])
        overhead.append(resource["elapsed_seconds"] - step["parse"] - step["solve"])
    paced = [record for record in records if "late" in record]
    lookups = cache["hits"] + cache["misses"]

    def median_ms(values: List[float]) -> float:
        return 1000.0 * statistics.median(values) if values else 0.0

    return {
        "pb.parse_ms": median_ms([t["parse"] for t in timings.values()]),
        "pb.canonical_ms": median_ms([t["canonical"] for t in timings.values()]),
        "service.submit_ms": median_ms(submit),
        "service.queue_ms": median_ms(queue),
        "service.run_ms": median_ms(run),
        "service.notify_ms": median_ms(notify),
        "service.worker_overhead_ms": median_ms(overhead),
        "service.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "service.rejected": sum(r.get("error") == "rejected" for r in records),
        "bench.gen_late_ms_p99": 1000.0 * percentile([r["late"] for r in paced], 99),
        "bench.latency_ms_p99": 1000.0 * percentile(_latencies(paced), 99),
    }


def service_counts(seconds: float) -> Dict[str, int]:
    """Jobs per round in each phase of a run of ``seconds``."""
    return {
        "closed": max(1, round(CLOSED_RATE * CLOSED_SHARE * seconds / ROUNDS)),
        "paced": max(2, round(PACED_RATE * (1.0 - CLOSED_SHARE) * seconds / ROUNDS)),
    }


def run_service(tasks: List[Task], warmup: List[Task], seconds: float, src: Path,
                traced: bool) -> Dict[str, Any]:
    """One run of the service workload: set-up, then the rounds (traced,
    the rounds again against a fresh server, so its cache starts empty).

    Each end-to-end metric is the best round's, as a solve run keeps each
    task's best pass.
    """
    counts = service_counts(seconds)
    clients = min(CLIENTS, nproc())
    with Server(src, nproc()) as server:
        startup = []
        for attempt in range(1 if traced else SERVER_STARTS):
            if attempt:
                server.stop()
            startup.append(server.start())
        rounds, _, problems, _ = _rounds(server.port, warmup, tasks, counts, clients)
    best_wall = min(one["wall"] for one in rounds)
    report: Dict[str, Any] = {"attempted": len(tasks), "problems": problems}
    if not traced:
        report["end_to_end"] = {
            "suite_s": best_wall,
            "latency_ms_p50": 1000.0 * min(statistics.median(one["paced"]) for one in rounds),
            "latency_ms_p90": 1000.0 * min(percentile(one["paced"], 90) for one in rounds),
            "setup_s": statistics.median(startup),
            "peak_rss_mb": peak_rss_mb(),
        }
        return report
    with Server(src, nproc()) as server:
        server.start()
        traced_rounds, records, traced_problems, cache = _rounds(
            server.port, warmup, tasks, counts, clients
        )
    ledger = Ledger()
    layers = _service_layers(tasks, records, cache, ledger)
    layers["bench.trace_overhead_pct"] = 100.0 * (
        min(one["wall"] for one in traced_rounds) / best_wall - 1.0
    )
    report["attempted"] += len(tasks)
    report["problems"] += traced_problems
    report.update(per_layer=layers, ledger=ledger)
    return report

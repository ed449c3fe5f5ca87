"""``python -m bench``: run the benchmark's workloads and check every answer.

Usage::

    python -m bench [--workload W ...] [--seed S] [--seconds N] [--trace 0|1] [--out DIR]

Without ``--workload`` every workload runs, each in a fresh interpreter.
A run prints the environment fingerprint, every metric as ``name value
unit``, and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer
metrics (from a second, profiled pass; layers a workload does not exercise
read 0).  ``--out DIR`` also writes ``DIR/<workload>.json`` with the
fingerprint, the failures and, traced, every span.

Exit status: 0 when every answer is right, 1 when one is wrong, 2 when
the benchmark cannot run (for instance without the ``src/`` tree).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _arguments(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="measured seconds per run (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a profiled pass")
    parser.add_argument("--out", help="directory for one JSON report per workload")
    return parser.parse_args(argv)


def _metrics(kind: str, values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """``values`` in BENCHMARK.json's order and units.

    End-to-end metrics must all be measured; a per-layer metric the
    workload's layers never reached reads 0.
    """
    listed = SPEC[kind]
    unknown = set(values) - {metric["name"] for metric in listed}
    if unknown:
        raise KeyError("metrics missing from BENCHMARK.json: %s" % sorted(unknown))
    return {
        metric["name"]: {
            "value": values[metric["name"]] if kind == "end_to_end" else values.get(metric["name"], 0),
            "unit": metric["unit"],
        }
        for metric in listed
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 out: Optional[str]) -> int:
    """Run one workload in this interpreter and print its result."""
    from .ledger import fingerprint, nproc
    from .service import CLIENTS, PACED_RATE, ROUNDS, run_service, service_counts
    from .solves import run_solves
    from .workloads import SOLVE_WORKLOADS, UNSOLVED, digest, service_jobs, solve_tasks

    if name in SOLVE_WORKLOADS:
        spec = SOLVE_WORKLOADS[name]
        tasks, warmup = solve_tasks(spec, seed, seconds)
        loops = {"solve": "closed loop, 1 client, %d instances" % len(tasks)}
        env = fingerprint(ROOT, name, seed, seconds, digest(warmup + tasks), loops)
        report = run_solves(spec, tasks, warmup, SRC, traced)
    else:
        counts = service_counts(seconds)
        tasks, warmup = service_jobs(seed, ROUNDS * (counts["closed"] + counts["paced"]))
        loops = {
            "closed": "closed loop, 1 client, %d rounds of %d jobs" % (ROUNDS, counts["closed"]),
            "paced": "open schedule, %g jobs/s over %d clients, %d rounds of %d jobs"
                     % (PACED_RATE, min(CLIENTS, nproc()), ROUNDS, counts["paced"]),
        }
        env = fingerprint(ROOT, name, seed, seconds, digest(warmup + tasks), loops)
        report = run_service(tasks, warmup, seconds, SRC, traced)
    env["loadavg_end"] = list(os.getloadavg())

    problems = report["problems"]
    wrong = [problem for problem in problems if not problem.endswith(UNSOLVED)]
    metrics = _metrics("per_layer", report["per_layer"]) if traced else _metrics(
        "end_to_end", report["end_to_end"]
    )
    result = {
        "correct": not wrong,
        "attempted": report["attempted"],
        "failed": len(problems),
        "metrics": metrics,
    }
    print("fingerprint " + json.dumps(env, sort_keys=True))
    for problem in problems[:20]:
        print("problem " + problem)
    print("failed_frac %r" % (len(problems) / report["attempted"]))
    for metric, entry in metrics.items():
        print("%s %r %s" % (metric, entry["value"], entry["unit"]))
    if out is not None:
        os.makedirs(out, exist_ok=True)
        document = {"fingerprint": env, "result": result, "problems": problems}
        if traced:
            document.update(report["ledger"].as_json())
        with open(os.path.join(out, "%s.json" % name), "w") as handle:
            json.dump(document, handle)
    print(json.dumps(result), flush=True)
    return 1 if wrong else 0


def _run_all(args: argparse.Namespace, workloads: List[str]) -> int:
    """Each workload in a fresh interpreter; one combined result line."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads:
        argv = [sys.executable, "-m", "bench", "--workload", name, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.out is not None:
            argv += ["--out", os.path.abspath(args.out)]
        child = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("workload %s" % name)
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode not in (0, 1) or not lines:
            print("workload %s exited with code %d" % (name, child.returncode), file=sys.stderr)
            return 2
        status = max(status, child.returncode)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = entry
    print(json.dumps(combined), flush=True)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the exit status."""
    args = _arguments(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("bench: no repro sources at %s" % SRC, file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print("bench: imported repro from %s, not %s" % (repro.__file__, SRC), file=sys.stderr)
        return 2
    workloads = args.workload or WORKLOADS
    if len(workloads) > 1:
        return _run_all(args, workloads)
    try:
        return run_workload(workloads[0], args.seed, args.seconds, bool(args.trace), args.out)
    except Exception:
        # a crashed run has no result; keep exit status 1 for wrong answers
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The bench's bookkeeping: spans, percentiles and the run's environment."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence


class Ledger:
    """Spans and phase records of one traced pass, kept in memory.

    A span is a named interval the bench timed around a public call, with
    its parent's name and the trace (one instance or job) it belongs to;
    names are unique within a trace.  A phase record attaches a duration
    the program measured itself (the solver's PhaseTimer) below a span.
    """

    def __init__(self):
        self.spans: List[Dict[str, Any]] = []
        self.phases: List[Dict[str, Any]] = []

    def span(self, trace: int, name: str, start: float, end: float,
             parent: Optional[str] = None) -> None:
        """Record the interval ``[start, end]`` (``perf_counter`` seconds)."""
        self.spans.append(
            {"trace": trace, "name": name, "parent": parent, "start": start, "end": end}
        )

    def phase(self, trace: int, parent: str, name: str, seconds: float,
              counts: Optional[Dict[str, float]] = None) -> None:
        """Record a program-measured duration below span ``parent``."""
        record = {"trace": trace, "parent": parent, "name": name, "seconds": seconds}
        if counts:
            record["counts"] = counts
        self.phases.append(record)

    def as_json(self) -> Dict[str, Any]:
        """Everything recorded, for ``--out``."""
        return {"spans": self.spans, "phases": self.phases}


def percentile(values: Sequence[float], percent: int) -> float:
    """The ``percent``-th percentile (inclusive method; one value is its own)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def subprocess_env(src: Path) -> Dict[str, str]:
    """The environment for a child interpreter that imports ``src``."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))


def fresh_start_seconds(argv: Sequence[str], env: Dict[str, str], stdin: str,
                        starts: int) -> float:
    """Median wall time of ``starts`` runs of ``argv`` to exit."""
    times = []
    for _ in range(starts):
        start = time.perf_counter()
        subprocess.run(argv, input=stdin, env=env, check=True, text=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Largest resident set of this process and every child it reaped."""
    kilobytes = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kilobytes / 1024.0


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _git(root: Path) -> Dict[str, Any]:
    # Only a checkout with its own .git: elsewhere git would search the
    # parent directories, outside the tree the bench may read.
    if not (root / ".git").exists():
        return {"rev": None, "dirty": None}
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                                capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {"rev": None, "dirty": None}
    return {"rev": rev or None, "dirty": bool(status.strip())}


def fingerprint(root: Path, workload: str, seed: int, seconds: float, input_digest: str,
                loops: Dict[str, str]) -> Dict[str, Any]:
    """What a reader needs to judge a result: code, machine, inputs, load shape."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "input_digest": input_digest,
        "git": _git(root),
        "nproc": nproc(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        # OpenBLAS starts one thread per CPU unless told otherwise.
        "blas_threads": int(
            os.environ.get("OPENBLAS_NUM_THREADS")
            or os.environ.get("OMP_NUM_THREADS")
            or nproc()
        ),
        "loops": loops,
    }

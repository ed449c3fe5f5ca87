"""Propagation microbenchmark: counter vs watched backends.

Two complementary measurements per (family, backend):

drive mode (apples to apples)
    A seeded decision walk replayed *identically* on every backend:
    decide variables in a shuffled order, propagate after each decision,
    step one level back on conflict, rewind to the root between rounds.
    Because all engines close the same implication rule, every backend
    sees the same trail, the same conflicts and the same implication
    count — so the propagations/sec ratio is a pure propagation-cost
    ratio.  The whole decide/propagate/backtrack transaction is timed:
    the counter backend pays its occurrence-list sweeps inside
    ``decide`` and ``backtrack``, and leaving those out would flatter
    it.

solve mode (end to end)
    A full :class:`~repro.core.solver.BsoloSolver` run with
    ``profile=True``, reporting the per-phase wall times collected by
    :mod:`repro.obs` (the ``propagate`` phase in particular) plus
    conflicts/sec.  Search trajectories may diverge between backends —
    trail *order* is not part of the equivalence contract — so these
    numbers measure realized solver throughput, not per-implication
    cost.

``run_propbench`` writes everything to ``BENCH_propagation.json``.
"""

from __future__ import annotations

import json
import random
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..benchgen import generate_planted, ptl_suite, routing_suite
from ..core.options import SolverOptions
from ..core.solver import BsoloSolver
from ..engine.interface import Conflict, make_engine
from ..pb.instance import PBInstance

#: Families benchmarked by default (paper Section 6 instance classes).
FAMILIES = ("ptl", "grout", "random")

#: Backends raced by default.
BACKENDS = ("counter", "watched")


def family_instances(
    family: str, count: int = 3, scale: float = 1.0
) -> List[PBInstance]:
    """Deterministic benchmark instances for one family.

    ``scale`` grows/shrinks the instances (CI smoke runs use a small
    scale so the job finishes in seconds).
    """
    if family == "ptl":
        nodes = max(6, int(40 * scale))
        return list(
            ptl_suite(count, seed=5, nodes=nodes, extra_edges=max(3, nodes * 3 // 4))
        )
    if family == "grout":
        return list(routing_suite(count, seed=9))
    if family == "random":
        # planted-satisfiable: root-level conflicts would cut the drive
        # replay short and leave nothing for the solve runs to optimize
        size = max(8, int(60 * scale))
        return [
            generate_planted(
                num_variables=size,
                num_constraints=size * 3 // 2,
                max_arity=8,
                max_coefficient=6,
                seed=700 + index,
            )[0]
            for index in range(count)
        ]
    raise ValueError("unknown family %r (expected one of %s)" % (family, FAMILIES))


# ----------------------------------------------------------------------
# Drive mode
# ----------------------------------------------------------------------
def drive_replay(
    instance: PBInstance, backend: str, seed: int, rounds: int
) -> Dict[str, Any]:
    """Replay one seeded decision walk on ``backend``.

    Returns the implication count and the wall time of the timed region
    (everything after constraint loading).
    """
    engine = make_engine(backend, instance.num_variables)
    for constraint in instance.constraints:
        engine.add_constraint(constraint)
    engine.propagate()
    rng = random.Random(seed)
    order = list(range(1, instance.num_variables + 1))
    trail = engine.trail
    values = trail._value
    decide, propagate = engine.decide, engine.propagate
    coin = rng.random
    # Count implications from *non-conflicting* propagate calls only:
    # those are identical across backends (the shared fixpoint), whereas
    # the partial implications wiped by a conflict may differ — engines
    # are free to discover the same conflict through different trails.
    propagations = 0
    started = time.perf_counter()
    for _ in range(rounds):
        rng.shuffle(order)
        for variable in order:
            if values[variable] >= 0:
                continue
            decide(variable if coin() < 0.5 else -variable)
            before = engine.num_propagations
            if isinstance(propagate(), Conflict):
                level = trail.decision_level
                if level == 0:
                    # root conflict: the post-conflict queue state is
                    # outside the equivalence contract, so end the
                    # replay here (identically on every backend)
                    seconds = time.perf_counter() - started
                    return {"propagations": propagations, "seconds": seconds}
                engine.backtrack(level - 1)
            else:
                propagations += engine.num_propagations - before
        engine.backtrack(0)
    seconds = time.perf_counter() - started
    return {"propagations": propagations, "seconds": seconds}


def bench_drive(
    instances: Sequence[PBInstance],
    backends: Sequence[str] = BACKENDS,
    rounds: int = 120,
    trials: int = 3,
    seed: int = 1000,
) -> Dict[str, Any]:
    """Race the backends over identical replays; best-of-``trials``.

    The per-backend propagation counts must agree (the replay is
    deterministic and the engines are equivalent); the result records
    whether they did under ``"lockstep_props_equal"``.
    """
    per_backend: Dict[str, Dict[str, Any]] = {}
    for backend in backends:
        best: Optional[Tuple[int, float]] = None
        for _ in range(max(1, trials)):
            props = 0
            seconds = 0.0
            for index, instance in enumerate(instances):
                outcome = drive_replay(instance, backend, seed + index, rounds)
                props += outcome["propagations"]
                seconds += outcome["seconds"]
            if best is None or seconds < best[1]:
                best = (props, seconds)
        props, seconds = best
        per_backend[backend] = {
            "propagations": props,
            "seconds": round(seconds, 6),
            "props_per_sec": round(props / seconds, 1) if seconds > 0 else None,
        }
    counts = {entry["propagations"] for entry in per_backend.values()}
    result: Dict[str, Any] = dict(per_backend)
    result["lockstep_props_equal"] = len(counts) == 1
    baseline = per_backend.get("counter")
    for backend, entry in per_backend.items():
        if backend == "counter" or not baseline:
            continue
        if entry["props_per_sec"] and baseline["props_per_sec"]:
            result["speedup_%s_props_per_sec" % backend] = round(
                entry["props_per_sec"] / baseline["props_per_sec"], 3
            )
    return result


# ----------------------------------------------------------------------
# Solve mode
# ----------------------------------------------------------------------
def solve_run(
    instance: PBInstance,
    backend: str,
    max_conflicts: Optional[int] = 800,
    time_limit: Optional[float] = 60.0,
) -> Dict[str, Any]:
    """One profiled :class:`BsoloSolver` run; per-phase times from
    :mod:`repro.obs`."""
    options = SolverOptions.plain(
        propagation=backend,
        max_conflicts=max_conflicts,
        time_limit=time_limit,
        profile=True,
    )
    solver = BsoloSolver(instance, options)
    started = time.perf_counter()
    result = solver.solve()
    seconds = time.perf_counter() - started
    stats = result.stats
    phase_times = dict(stats.phase_times or {})
    return {
        "status": result.status,
        "conflicts": stats.conflicts,
        "propagations": stats.propagations,
        "seconds": round(seconds, 6),
        "phase_times": {name: round(value, 6) for name, value in phase_times.items()},
    }


def bench_solve(
    instances: Sequence[PBInstance],
    backends: Sequence[str] = BACKENDS,
    max_conflicts: Optional[int] = 800,
    time_limit: Optional[float] = 60.0,
) -> Dict[str, Any]:
    """End-to-end solver throughput per backend (summed over instances)."""
    per_backend: Dict[str, Dict[str, Any]] = {}
    for backend in backends:
        conflicts = props = 0
        seconds = propagate_seconds = 0.0
        statuses: List[str] = []
        for instance in instances:
            outcome = solve_run(
                instance, backend, max_conflicts=max_conflicts, time_limit=time_limit
            )
            conflicts += outcome["conflicts"]
            props += outcome["propagations"]
            seconds += outcome["seconds"]
            propagate_seconds += outcome["phase_times"].get("propagate", 0.0)
            statuses.append(outcome["status"])
        per_backend[backend] = {
            "conflicts": conflicts,
            "propagations": props,
            "seconds": round(seconds, 6),
            "propagate_seconds": round(propagate_seconds, 6),
            "conflicts_per_sec": round(conflicts / seconds, 1) if seconds > 0 else None,
            "props_per_sec": (
                round(props / propagate_seconds, 1) if propagate_seconds > 0 else None
            ),
            "statuses": statuses,
        }
    result: Dict[str, Any] = dict(per_backend)
    baseline = per_backend.get("counter")
    for backend, entry in per_backend.items():
        if backend == "counter" or not baseline:
            continue
        if entry["conflicts_per_sec"] and baseline["conflicts_per_sec"]:
            result["speedup_%s_conflicts_per_sec" % backend] = round(
                entry["conflicts_per_sec"] / baseline["conflicts_per_sec"], 3
            )
        if entry["seconds"] and baseline["seconds"]:
            # end-to-end wall-clock speedup over the counter baseline
            # (> 1 means this backend solved the family faster)
            result["speedup_%s_wall" % backend] = round(
                baseline["seconds"] / entry["seconds"], 3
            )
    return result


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_propbench(
    families: Iterable[str] = FAMILIES,
    count: int = 3,
    scale: float = 1.0,
    rounds: int = 120,
    trials: int = 3,
    max_conflicts: Optional[int] = 800,
    time_limit: Optional[float] = 60.0,
    backends: Sequence[str] = BACKENDS,
    solve: bool = True,
) -> Dict[str, Any]:
    """Run the full microbenchmark; returns the report payload."""
    report: Dict[str, Any] = {
        "benchmark": "propagation",
        "backends": list(backends),
        "config": {
            "count": count,
            "scale": scale,
            "rounds": rounds,
            "trials": trials,
            "max_conflicts": max_conflicts,
            "time_limit": time_limit,
        },
        "families": {},
    }
    for family in families:
        instances = family_instances(family, count=count, scale=scale)
        entry: Dict[str, Any] = {
            "instances": len(instances),
            "variables": sum(inst.num_variables for inst in instances),
            "drive": bench_drive(instances, backends, rounds=rounds, trials=trials),
        }
        if solve:
            entry["solve"] = bench_solve(
                instances, backends, max_conflicts=max_conflicts, time_limit=time_limit
            )
        report["families"][family] = entry
    return report


def write_report(report: Dict[str, Any], path: str = "BENCH_propagation.json") -> str:
    """Persist the benchmark report as pretty-printed JSON."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def format_summary(report: Dict[str, Any]) -> str:
    """Console table: one drive and one solve line per family."""
    lines = ["propagation microbenchmark (baseline: counter)"]
    for family, entry in report["families"].items():
        drive = entry["drive"]
        for backend in report["backends"]:
            stats = drive[backend]
            lines.append(
                "  %-7s drive  %-8s %8d props %8.3fs %10s props/sec"
                % (
                    family,
                    backend,
                    stats["propagations"],
                    stats["seconds"],
                    stats["props_per_sec"],
                )
            )
        for key, value in sorted(drive.items()):
            if key.startswith("speedup_"):
                lines.append("  %-7s drive  %s = %.3fx" % (family, key, value))
        if not drive["lockstep_props_equal"]:
            lines.append(
                "  %-7s drive  WARNING: propagation counts diverged" % family
            )
        solve = entry.get("solve")
        if solve:
            for backend in report["backends"]:
                stats = solve[backend]
                lines.append(
                    "  %-7s solve  %-8s %8d conflicts %8.3fs %10s conflicts/sec"
                    % (
                        family,
                        backend,
                        stats["conflicts"],
                        stats["seconds"],
                        stats["conflicts_per_sec"],
                    )
                )
            for key, value in sorted(solve.items()):
                if key.startswith("speedup_"):
                    lines.append("  %-7s solve  %s = %.3fx" % (family, key, value))
    return "\n".join(lines)

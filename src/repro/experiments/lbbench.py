"""Lower-bounding microbenchmark: the incremental MIS cache and bound
scheduling.

Two complementary measurements per family:

drive mode (apples to apples, lockstep)
    A seeded decision walk (decide / propagate / backtrack, exactly like
    :mod:`.propbench`) during which every non-conflicting node is bounded
    twice over the same trail: by an incremental
    :class:`~repro.mis.independent_set.MISBound` (trail-delta cache) and
    a cold one.  The pair sees identical ``fixed`` mappings at identical
    nodes, so

    * ``(value, infeasible)`` must agree at every node — the report
      records this under ``lockstep_mis_equal`` and the CI smoke job
      asserts it; and
    * the calls/sec ratio is the pure cost of the incremental machinery,
      not of divergent search trees.

solve mode (end to end)
    Full :class:`~repro.core.solver.BsoloSolver` runs per configuration
    (static and adaptive schedules) reporting realized conflicts/sec,
    the per-bounder stats from ``stats.lb_stats`` and the adaptive
    scheduler's skip counters.
    Search trajectories may diverge between schedules (bounding fewer
    nodes changes the tree), so these numbers measure realized solver
    throughput.

``run_lbbench`` writes everything to ``BENCH_lowerbound.json``.
"""

from __future__ import annotations

import json
import random
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.options import SolverOptions
from ..core.solver import BsoloSolver
from ..engine.interface import Conflict, make_engine
from ..mis.independent_set import MISBound
from ..pb.instance import PBInstance
from .table1 import family_instances as _table1_instances

#: Families benchmarked by default (acc is constant-objective: no bounds).
FAMILIES = ("mcnc", "ptl", "grout")

#: Solve-mode configurations, one per ``lb_schedule``.  Speedups are
#: reported relative to ``static``.
CONFIGS = ("static", "adaptive")

#: Headline target the report grades itself against.
TARGET_MIS_SPEEDUP = 2.0


def family_instances(
    family: str, count: int = 3, scale: float = 1.0
) -> Tuple[List[PBInstance], List[str]]:
    """Deterministic Table-1-family instances for one benchmark family."""
    return _table1_instances(family, count=count, scale=scale)


# ----------------------------------------------------------------------
# Drive mode
# ----------------------------------------------------------------------
def drive_walk(instance: PBInstance, seed: int, max_nodes: int) -> Dict[str, Any]:
    """Bound ``max_nodes`` nodes of one seeded walk with both MIS bounders.

    Returns per-bounder call counts and wall times, and the lockstep
    equality flag.
    """
    engine = make_engine("counter", instance.num_variables)
    for constraint in instance.constraints:
        engine.add_constraint(constraint)
    engine.propagate()
    trail = engine.trail

    mis_inc = MISBound(instance)
    mis_inc.attach_trail(trail)
    mis_cold = MISBound(instance)

    rng = random.Random(seed)
    order = list(range(1, instance.num_variables + 1))
    values = trail._value
    coin = rng.random
    nodes = 0
    mis_equal = True

    def bound_node() -> None:
        nonlocal mis_equal
        fixed = trail.assignment()
        a = mis_inc.compute(fixed)
        b = mis_cold.compute(fixed)
        if (a.value, a.infeasible) != (b.value, b.infeasible):
            mis_equal = False

    bound_node()
    nodes += 1
    while nodes < max_nodes:
        progressed = False
        rng.shuffle(order)
        for variable in order:
            if nodes >= max_nodes:
                break
            if values[variable] >= 0:
                continue
            engine.decide(variable if coin() < 0.5 else -variable)
            progressed = True
            if isinstance(engine.propagate(), Conflict):
                level = trail.decision_level
                if level == 0:
                    nodes = max_nodes  # root conflict: walk is over
                    break
                engine.backtrack(level - 1)
                continue
            bound_node()
            nodes += 1
        if not progressed:
            break
        engine.backtrack(0)

    return {
        "nodes": nodes,
        "mis_equal": mis_equal,
        "mis_incremental": mis_inc.stats_dict(),
        "mis_cold": mis_cold.stats_dict(),
    }


def bench_drive(
    instances: Sequence[PBInstance],
    seed: int = 1000,
    max_nodes: int = 120,
) -> Dict[str, Any]:
    """Lockstep drive results summed over ``instances``."""
    totals = {
        "mis_incremental": {"calls": 0, "seconds": 0.0},
        "mis_cold": {"calls": 0, "seconds": 0.0},
    }
    nodes = 0
    mis_equal = True
    for index, instance in enumerate(instances):
        outcome = drive_walk(instance, seed + index, max_nodes)
        nodes += outcome["nodes"]
        mis_equal = mis_equal and outcome["mis_equal"]
        for key, sums in totals.items():
            for field in sums:
                sums[field] += outcome[key][field]
    result: Dict[str, Any] = {"nodes": nodes}
    for key, sums in totals.items():
        entry = dict(sums)
        entry["seconds"] = round(entry["seconds"], 6)
        seconds = sums["seconds"]
        entry["calls_per_sec"] = (
            round(sums["calls"] / seconds, 1) if seconds > 0 else None
        )
        result[key] = entry
    result["lockstep_mis_equal"] = mis_equal
    inc = result["mis_incremental"]["calls_per_sec"]
    cold = result["mis_cold"]["calls_per_sec"]
    if inc and cold:
        result["speedup_mis_calls_per_sec"] = round(inc / cold, 3)
    return result


# ----------------------------------------------------------------------
# Solve mode
# ----------------------------------------------------------------------
def solve_run(
    instance: PBInstance,
    schedule: str,
    lower_bound: str = "hybrid",
    max_conflicts: Optional[int] = 2000,
    time_limit: Optional[float] = 30.0,
) -> Dict[str, Any]:
    """One profiled solver run for one bound schedule."""
    options = SolverOptions(
        lower_bound=lower_bound,
        lb_schedule=schedule,
        max_conflicts=max_conflicts,
        time_limit=time_limit,
        profile=True,
    )
    solver = BsoloSolver(instance, options)
    started = time.perf_counter()
    result = solver.solve()
    seconds = time.perf_counter() - started
    stats = result.stats
    return {
        "status": result.status,
        "cost": result.best_cost,
        "conflicts": stats.conflicts,
        "decisions": stats.decisions,
        "lower_bound_calls": stats.lower_bound_calls,
        "prunings": stats.prunings,
        "seconds": round(seconds, 6),
        "lb_stats": stats.lb_stats,
    }


def bench_solve(
    instances: Sequence[PBInstance],
    lower_bound: str = "hybrid",
    max_conflicts: Optional[int] = 2000,
    time_limit: Optional[float] = 30.0,
) -> Dict[str, Any]:
    """End-to-end runs per configuration (summed over instances)."""
    per_config: Dict[str, Dict[str, Any]] = {}
    for schedule in CONFIGS:
        conflicts = decisions = lb_calls = prunings = skipped_nodes = 0
        seconds = lpr_iterations = 0.0
        statuses: List[str] = []
        costs: List[Optional[int]] = []
        for instance in instances:
            outcome = solve_run(
                instance,
                schedule,
                lower_bound=lower_bound,
                max_conflicts=max_conflicts,
                time_limit=time_limit,
            )
            conflicts += outcome["conflicts"]
            decisions += outcome["decisions"]
            lb_calls += outcome["lower_bound_calls"]
            prunings += outcome["prunings"]
            seconds += outcome["seconds"]
            statuses.append(outcome["status"])
            costs.append(outcome["cost"])
            lpr = outcome["lb_stats"].get("lpr", {})
            lpr_iterations += lpr.get("iterations", 0)
            scheduler = outcome["lb_stats"].get("scheduler", {})
            skipped_nodes += scheduler.get("skipped_nodes", 0)
        per_config[schedule] = {
            "conflicts": conflicts,
            "decisions": decisions,
            "lower_bound_calls": lb_calls,
            "prunings": prunings,
            "seconds": round(seconds, 6),
            "conflicts_per_sec": (
                round(conflicts / seconds, 1) if seconds > 0 else None
            ),
            "simplex_iterations": int(lpr_iterations),
            "skipped_nodes": skipped_nodes,
            "statuses": statuses,
            "costs": costs,
        }
    result: Dict[str, Any] = dict(per_config)
    baseline = per_config.get("static")
    for label, entry in per_config.items():
        if label == "static" or not baseline:
            continue
        if entry["seconds"] > 0 and baseline["seconds"] > 0:
            result["speedup_%s_wall" % label] = round(
                baseline["seconds"] / entry["seconds"], 3
            )
    # Configs may exhaust different budgets on different instances, but
    # wherever two of them both proved optimality on the *same* instance
    # their costs must match — checked position-by-position so a config
    # that timed out somewhere doesn't silence the comparison entirely.
    num_instances = min(
        len(entry["statuses"]) for entry in per_config.values()
    )
    agree = True
    for position in range(num_instances):
        optima = {
            entry["costs"][position]
            for entry in per_config.values()
            if entry["statuses"][position] == "optimal"
        }
        if len(optima) > 1:
            agree = False
    result["optimal_costs_agree"] = agree
    return result


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_lbbench(
    families: Iterable[str] = FAMILIES,
    count: int = 3,
    scale: float = 1.0,
    seed: int = 1000,
    max_nodes: int = 120,
    max_conflicts: Optional[int] = 2000,
    time_limit: Optional[float] = 30.0,
    lower_bound: str = "hybrid",
    solve: bool = True,
) -> Dict[str, Any]:
    """Run the full microbenchmark; returns the report payload."""
    report: Dict[str, Any] = {
        "benchmark": "lowerbound",
        "configs": list(CONFIGS),
        "config": {
            "count": count,
            "scale": scale,
            "seed": seed,
            "max_nodes": max_nodes,
            "max_conflicts": max_conflicts,
            "time_limit": time_limit,
            "lower_bound": lower_bound,
        },
        "targets": {"mis_speedup_min": TARGET_MIS_SPEEDUP},
        "families": {},
    }
    for family in families:
        instances, _labels = family_instances(family, count=count, scale=scale)
        entry: Dict[str, Any] = {
            "instances": len(instances),
            "variables": sum(inst.num_variables for inst in instances),
            "drive": bench_drive(instances, seed=seed, max_nodes=max_nodes),
        }
        if solve:
            entry["solve"] = bench_solve(
                instances,
                lower_bound=lower_bound,
                max_conflicts=max_conflicts,
                time_limit=time_limit,
            )
        report["families"][family] = entry
    drives = [entry["drive"] for entry in report["families"].values()]
    report["families_meeting_mis_target"] = sum(
        1
        for drive in drives
        if (drive.get("speedup_mis_calls_per_sec") or 0) >= TARGET_MIS_SPEEDUP
    )
    return report


def write_report(report: Dict[str, Any], path: str = "BENCH_lowerbound.json") -> str:
    """Persist the benchmark report as pretty-printed JSON."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def format_summary(report: Dict[str, Any]) -> str:
    """Console table: drive and solve lines per family."""
    lines = ["lower-bounding microbenchmark (baselines: cold MIS, static schedule)"]
    for family, entry in report["families"].items():
        drive = entry["drive"]
        for key in ("mis_incremental", "mis_cold"):
            stats = drive[key]
            lines.append(
                "  %-6s drive  %-15s %6d calls %8.3fs %10s calls/sec"
                % (
                    family,
                    key,
                    stats["calls"],
                    stats["seconds"],
                    stats["calls_per_sec"],
                )
            )
        if "speedup_mis_calls_per_sec" in drive:
            lines.append(
                "  %-6s drive  speedup_mis_calls_per_sec = %.3f"
                % (family, drive["speedup_mis_calls_per_sec"])
            )
        if not drive["lockstep_mis_equal"]:
            lines.append("  %-6s drive  WARNING: bound values diverged" % family)
        solve = entry.get("solve")
        if solve:
            for label in CONFIGS:
                stats = solve[label]
                lines.append(
                    "  %-6s solve  %-20s %6d conflicts %8.3fs %8d simplex iters"
                    % (
                        family,
                        label,
                        stats["conflicts"],
                        stats["seconds"],
                        stats["simplex_iterations"],
                    )
                )
            for key, value in sorted(solve.items()):
                if key.startswith("speedup_"):
                    lines.append("  %-6s solve  %s = %.3fx" % (family, key, value))
    lines.append(
        "families meeting MIS >= %.1fx target: %d"
        % (TARGET_MIS_SPEEDUP, report["families_meeting_mis_target"])
    )
    return "\n".join(lines)

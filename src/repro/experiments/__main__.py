"""Run the experiment harness from the command line.

Examples::

    python -m repro.experiments table1 --count 5 --time-limit 6
    python -m repro.experiments table1 --fast
    python -m repro.experiments bounds --family mcnc
    python -m repro.experiments scaling --family ptl --sizes 8 12 16
    python -m repro.experiments ablations --family mcnc
    python -m repro.experiments export --directory instances/
    python -m repro.experiments propbench --output BENCH_propagation.json
    python -m repro.experiments lbbench --output BENCH_lowerbound.json
    python -m repro.experiments increbench --output BENCH_incremental.json
    python -m repro.experiments servebench --output BENCH_service.json
    python -m repro.experiments certsmoke --families mcnc grout
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .ablations import format_ablations, run_ablations
from .bounds import bound_quality, format_bound_quality
from .certsmoke import FAMILIES as CERTSMOKE_FAMILIES
from .certsmoke import format_certsmoke, run_certsmoke
from .increbench import FAMILIES as INCREBENCH_FAMILIES
from .increbench import (
    format_summary as format_increbench_summary,
    run_increbench,
    write_report as write_increbench_report,
)
from .lbbench import FAMILIES as LBBENCH_FAMILIES
from .lbbench import (
    format_summary as format_lbbench_summary,
    run_lbbench,
    write_report as write_lbbench_report,
)
from .propbench import FAMILIES as PROPBENCH_FAMILIES
from .propbench import format_summary, run_propbench, write_report
from .reporting import format_table1
from .servebench import (
    format_summary as format_servebench_summary,
    run_servebench,
    write_report as write_servebench_report,
)
from .runner import SOLVER_NAMES
from .scaling import crossover_size, format_sweep, scaling_sweep
from .table1 import FAMILIES, family_instances, generate_table1


def build_parser() -> argparse.ArgumentParser:
    """Subcommand parser for the experiment harness."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Experiment harness for the DATE'05 PBO reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="regenerate the paper's Table 1")
    table1.add_argument("--count", type=int, default=5)
    table1.add_argument("--time-limit", type=float, default=6.0)
    table1.add_argument("--scale", type=float, default=1.0)
    table1.add_argument("--fast", action="store_true", help="count=2, 2s budget")
    table1.add_argument(
        "--portfolio",
        action="store_true",
        help="add a parallel-portfolio column to the matrix",
    )
    table1.add_argument(
        "--stats-jsonl",
        metavar="FILE",
        default=None,
        help="persist per-run structured stats as JSONL",
    )

    bounds = sub.add_parser("bounds", help="root lower-bound quality table")
    bounds.add_argument("--family", choices=FAMILIES, default="mcnc")
    bounds.add_argument("--count", type=int, default=5)
    bounds.add_argument("--lgr-iterations", type=int, default=200)

    scaling = sub.add_parser("scaling", help="size sweep for one family")
    scaling.add_argument("--family", default="ptl")
    scaling.add_argument("--sizes", type=int, nargs="+", default=[8, 12, 16, 18])
    scaling.add_argument(
        "--solvers", nargs="+", default=["bsolo-plain", "bsolo-lpr"],
        choices=list(SOLVER_NAMES) + ["bsolo-hybrid", "scherzo"],
    )
    scaling.add_argument("--time-limit", type=float, default=6.0)

    ablations = sub.add_parser("ablations", help="feature grid on one family")
    ablations.add_argument("--family", choices=FAMILIES, default="mcnc")
    ablations.add_argument("--count", type=int, default=3)
    ablations.add_argument("--scale", type=float, default=0.5)
    ablations.add_argument("--time-limit", type=float, default=6.0)

    export = sub.add_parser("export", help="write the suites as .opb files")
    export.add_argument("--directory", default="instances")
    export.add_argument("--count", type=int, default=5)
    export.add_argument("--scale", type=float, default=1.0)

    propbench = sub.add_parser(
        "propbench",
        help="race the propagation backends (counter vs watched)",
    )
    propbench.add_argument(
        "--families", nargs="+", default=list(PROPBENCH_FAMILIES),
        choices=PROPBENCH_FAMILIES,
    )
    propbench.add_argument("--count", type=int, default=3)
    propbench.add_argument("--scale", type=float, default=1.0)
    propbench.add_argument("--rounds", type=int, default=120)
    propbench.add_argument("--trials", type=int, default=3)
    propbench.add_argument("--max-conflicts", type=int, default=800)
    propbench.add_argument("--time-limit", type=float, default=60.0)
    propbench.add_argument(
        "--no-solve", action="store_true",
        help="skip the end-to-end solve-mode runs (drive mode only)",
    )
    propbench.add_argument(
        "--quick", action="store_true",
        help="tiny instances and budgets (CI smoke configuration)",
    )
    propbench.add_argument("--output", default="BENCH_propagation.json")

    lbbench = sub.add_parser(
        "lbbench",
        help="race the incremental MIS cache and the bound schedules",
    )
    lbbench.add_argument(
        "--families", nargs="+", default=list(LBBENCH_FAMILIES),
        choices=LBBENCH_FAMILIES,
    )
    lbbench.add_argument("--count", type=int, default=3)
    lbbench.add_argument("--scale", type=float, default=1.0)
    lbbench.add_argument("--seed", type=int, default=1000)
    lbbench.add_argument(
        "--max-nodes", type=int, default=120,
        help="bounded nodes per instance in the lockstep drive walk",
    )
    lbbench.add_argument("--max-conflicts", type=int, default=2000)
    lbbench.add_argument("--time-limit", type=float, default=30.0)
    lbbench.add_argument(
        "--lower-bound", default="hybrid", choices=["mis", "lpr", "hybrid"],
        help="bounder used by the solve-mode configurations",
    )
    lbbench.add_argument(
        "--no-solve", action="store_true",
        help="skip the end-to-end solve-mode runs (drive mode only)",
    )
    lbbench.add_argument(
        "--quick", action="store_true",
        help="tiny instances and budgets (CI smoke configuration)",
    )
    lbbench.add_argument("--output", default="BENCH_lowerbound.json")

    increbench = sub.add_parser(
        "increbench",
        help="race warm solve_under sessions against cold re-solves",
    )
    increbench.add_argument(
        "--families", nargs="+", default=list(INCREBENCH_FAMILIES),
        choices=INCREBENCH_FAMILIES,
    )
    increbench.add_argument("--count", type=int, default=3)
    increbench.add_argument("--scale", type=float, default=1.0)
    increbench.add_argument("--seed", type=int, default=2000)
    increbench.add_argument(
        "--lower-bound", default="hybrid",
        choices=["plain", "mis", "lpr", "hybrid"],
        help="bounder used by both the warm session and the cold solves",
    )
    increbench.add_argument(
        "--quick", action="store_true",
        help="tiny instances and budgets (CI smoke configuration)",
    )
    increbench.add_argument("--output", default="BENCH_incremental.json")

    servebench = sub.add_parser(
        "servebench",
        help="drive the solve service over HTTP: throughput, latency, cache",
    )
    servebench.add_argument("--count", type=int, default=8)
    servebench.add_argument("--scale", type=float, default=1.0)
    servebench.add_argument("--seed", type=int, default=9000)
    servebench.add_argument(
        "--workers", type=int, default=4,
        help="server-side worker-process shard size",
    )
    servebench.add_argument(
        "--submitters", type=int, default=8,
        help="client-side concurrent submitter threads",
    )
    servebench.add_argument(
        "--variants", type=int, default=3,
        help="renamed resubmissions per instance (duplicate scenario)",
    )
    servebench.add_argument("--solver", default="bsolo-lpr")
    servebench.add_argument(
        "--quick", action="store_true",
        help="tiny instances and budgets (CI smoke configuration)",
    )
    servebench.add_argument("--output", default="BENCH_service.json")

    certsmoke = sub.add_parser(
        "certsmoke",
        help="solve with proof logging, then independently re-check every proof",
    )
    certsmoke.add_argument(
        "--families", nargs="+", default=list(CERTSMOKE_FAMILIES),
        choices=CERTSMOKE_FAMILIES,
    )
    certsmoke.add_argument("--count", type=int, default=1)
    certsmoke.add_argument("--scale", type=float, default=0.5)
    certsmoke.add_argument("--time-limit", type=float, default=30.0)
    certsmoke.add_argument("--solver", default="bsolo-lpr")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatch one experiment subcommand."""
    args = build_parser().parse_args(argv)
    if args.command == "table1":
        count = 2 if args.fast else args.count
        time_limit = 2.0 if args.fast else args.time_limit
        solver_names = tuple(SOLVER_NAMES)
        if args.portfolio:
            solver_names = solver_names + ("portfolio",)
        result = generate_table1(
            time_limit=time_limit,
            count=count,
            scale=args.scale,
            solver_names=solver_names,
        )
        print(format_table1(result))
        print()
        print("bsolo ordering holds:", result.bsolo_ordering_holds())
        print("acc rows identical:", result.acc_rows_identical_for_bsolo())
        if args.stats_jsonl:
            written = result.dump_stats_jsonl(args.stats_jsonl)
            print("wrote %d per-run stat records to %s" % (written, args.stats_jsonl))
    elif args.command == "bounds":
        instances, labels = family_instances(args.family, count=args.count)
        records = bound_quality(
            instances, labels, lgr_iterations=args.lgr_iterations
        )
        print(format_bound_quality(records))
    elif args.command == "scaling":
        points = scaling_sweep(
            args.family,
            sizes=args.sizes,
            solver_names=tuple(args.solvers),
            time_limit=args.time_limit,
        )
        print(format_sweep(points))
        if len(args.solvers) >= 2:
            size = crossover_size(points, args.solvers[-1], args.solvers[0])
            print(
                "crossover (%s over %s): %s"
                % (args.solvers[-1], args.solvers[0], size)
            )
    elif args.command == "ablations":
        instances, _ = family_instances(
            args.family, count=args.count, scale=args.scale
        )
        records = run_ablations(instances, time_limit=args.time_limit)
        print(format_ablations(records))
    elif args.command == "export":
        from ..benchgen.export import export_table1_suite

        written = export_table1_suite(
            args.directory, count=args.count, scale=args.scale
        )
        print("wrote %d instances under %s" % (len(written), args.directory))
    elif args.command == "propbench":
        if args.quick:
            args.count, args.scale = 2, 0.25
            args.rounds, args.trials = 10, 1
            args.max_conflicts, args.time_limit = 200, 10.0
        report = run_propbench(
            families=args.families,
            count=args.count,
            scale=args.scale,
            rounds=args.rounds,
            trials=args.trials,
            max_conflicts=args.max_conflicts,
            time_limit=args.time_limit,
            solve=not args.no_solve,
        )
        print(format_summary(report))
        path = write_report(report, args.output)
        print("wrote %s" % path)
    elif args.command == "lbbench":
        if args.quick:
            args.count, args.scale = 2, 0.5
            args.max_nodes = 40
            args.max_conflicts, args.time_limit = 400, 10.0
        report = run_lbbench(
            families=args.families,
            count=args.count,
            scale=args.scale,
            seed=args.seed,
            max_nodes=args.max_nodes,
            max_conflicts=args.max_conflicts,
            time_limit=args.time_limit,
            lower_bound=args.lower_bound,
            solve=not args.no_solve,
        )
        print(format_lbbench_summary(report))
        path = write_lbbench_report(report, args.output)
        print("wrote %s" % path)
    elif args.command == "increbench":
        if args.quick:
            args.count, args.scale = 2, 0.4
        report = run_increbench(
            families=args.families,
            count=args.count,
            scale=args.scale,
            seed=args.seed,
            lower_bound=args.lower_bound,
        )
        print(format_increbench_summary(report))
        path = write_increbench_report(report, args.output)
        print("wrote %s" % path)
        if not report["lockstep_all"]:
            return 1
    elif args.command == "servebench":
        if args.quick:
            args.count, args.scale = 4, 0.6
            args.workers, args.submitters, args.variants = 2, 4, 2
        report = run_servebench(
            count=args.count,
            scale=args.scale,
            seed=args.seed,
            workers=args.workers,
            submitters=args.submitters,
            variants=args.variants,
            solver=args.solver,
        )
        print(format_servebench_summary(report))
        path = write_servebench_report(report, args.output)
        print("wrote %s" % path)
        if not report["lockstep_all"]:
            return 1
    elif args.command == "certsmoke":
        records = run_certsmoke(
            families=args.families,
            count=args.count,
            scale=args.scale,
            time_limit=args.time_limit,
            solver=args.solver,
        )
        print(format_certsmoke(records))
        if not all(row["ok"] for row in records):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

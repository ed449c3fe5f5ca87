"""Run the experiment harness from the command line.

Examples::

    python -m repro.experiments table1 --count 5 --time-limit 6
    python -m repro.experiments table1 --fast
    python -m repro.experiments bounds --family mcnc
    python -m repro.experiments scaling --family ptl --sizes 8 12 16
    python -m repro.experiments ablations --family mcnc
    python -m repro.experiments export --directory instances/
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
from .reporting import format_table1
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
    bounds.add_argument(
        "--lgr-iterations", dest="lgr_max_iterations", type=int, default=200
    )

    scaling = sub.add_parser("scaling", help="size sweep for one family")
    scaling.add_argument("--family", default="ptl")
    scaling.add_argument("--sizes", type=int, nargs="+", default=[8, 12, 16, 18])
    scaling.add_argument(
        "--solvers", nargs="+", default=["bsolo-plain", "bsolo-lpr"],
        choices=list(SOLVER_NAMES) + ["scherzo"],
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
            instances, labels, lgr_max_iterations=args.lgr_max_iterations
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

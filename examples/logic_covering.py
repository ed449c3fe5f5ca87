"""Two-level logic minimization as binate covering (MCNC-style workload).

Builds a covering instance (every minterm of the target function must be
covered by a selected implicant; some implicants exclude or require
others), compares all four bsolo lower-bounding configurations, and
prints the lower bound each method computes at the root — illustrating
the tightness ordering the paper discusses in Section 3.

Run:  python examples/logic_covering.py
"""

from repro.benchgen import generate_covering
from repro.core import BsoloSolver, SolverOptions
from repro.lagrangian import LagrangianBound
from repro.lp import LPRelaxationBound
from repro.mis import MISBound


def main() -> None:
    instance = generate_covering(
        minterms=40, implicants=22, density=0.15, max_cost=30, seed=7
    )
    print("covering instance:", instance)

    # Root lower bounds (Section 3): MIS vs Lagrangian vs LP relaxation.
    mis = MISBound(instance).compute({})
    lgr = LagrangianBound(instance, max_iterations=200).compute({})
    lpr = LPRelaxationBound(instance).compute({})
    print(
        "root lower bounds: MIS=%d  LGR=%d  LPR=%d"
        % (mis.value, lgr.value, lpr.value)
    )

    for method in ("plain", "mis", "lgr", "lpr"):
        solver = BsoloSolver(
            instance, SolverOptions(lower_bound=method, time_limit=30.0)
        )
        result = solver.solve()
        print(
            "bsolo-%-5s %s cost=%s  decisions=%d  bound_conflicts=%d  %.2fs"
            % (
                method,
                result.status,
                result.best_cost,
                result.stats.decisions,
                result.stats.bound_conflicts,
                result.stats.elapsed,
            )
        )


if __name__ == "__main__":
    main()

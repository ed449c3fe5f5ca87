"""Ablation study: which of bsolo's techniques carry the weight?

Runs the full feature grid (bound-conflict learning, Section 5 cuts,
LP-guided branching, preprocessing) on a small covering suite, then
sweeps instance size to find where lower bounding overtakes plain
search.

Run:  python examples/ablation_study.py
"""

from repro.benchgen import generate_covering
from repro.experiments import (
    crossover_size,
    format_ablations,
    format_sweep,
    run_ablations,
    scaling_sweep,
)


def main() -> None:
    instances = [
        generate_covering(
            minterms=40, implicants=22, density=0.15, max_cost=30, seed=seed
        )
        for seed in range(3)
    ]
    print("== feature ablations (bsolo-LPR on 3 covering instances) ==")
    records = run_ablations(instances, time_limit=10.0)
    print(format_ablations(records))

    print()
    print("== scaling sweep: PTL mapping, plain vs LPR ==")
    points = scaling_sweep(
        "ptl",
        sizes=[8, 12, 16, 18],
        solver_names=("bsolo-plain", "bsolo-lpr"),
        time_limit=6.0,
    )
    print(format_sweep(points))
    size = crossover_size(points, "bsolo-lpr", "bsolo-plain")
    if size is None:
        print("no crossover within the sweep")
    else:
        print("LPR overtakes plain search from size %d" % size)


if __name__ == "__main__":
    main()

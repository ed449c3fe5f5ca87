"""Visualize subgradient convergence (the paper's LGR-vs-LPR discussion).

Section 6: "bsolo with LPR is significantly more efficient than bsolo
with LGR.  This is motivated by the slow convergence observed for the
Lagrangian relaxation on most instances."  This example plots (in ASCII)
L(mu) per subgradient iteration against the LP bound, which one simplex
solve attains exactly.

Run:  python examples/lagrangian_convergence.py
"""

from repro.benchgen import generate_covering
from repro.lagrangian import LagrangianBound
from repro.lp import LPRelaxationBound


def ascii_plot(trace, reference, width=64, height=14):
    """Tiny ASCII line plot of the trace with a reference level."""
    low = min(min(trace), 0.0)
    high = max(max(trace), reference) * 1.05 + 1e-9
    rows = [[" "] * width for _ in range(height)]

    def row_of(value):
        scaled = (value - low) / (high - low)
        return height - 1 - int(scaled * (height - 1))

    ref_row = row_of(reference)
    for col in range(width):
        rows[ref_row][col] = "-"
    for col in range(width):
        index = int(col * (len(trace) - 1) / max(width - 1, 1))
        rows[row_of(trace[index])][col] = "*"
    lines = ["".join(row) for row in rows]
    lines.append("*" * 0 + "iterations 1..%d   (--- = LP bound %.1f)" % (len(trace), reference))
    return "\n".join(lines)


def main() -> None:
    instance = generate_covering(
        minterms=60, implicants=30, density=0.12, max_cost=60, seed=31
    )
    print("instance:", instance)

    lpr = LPRelaxationBound(instance).compute({})
    print("LP relaxation bound: %d (one simplex solve, %d iterations)"
          % (lpr.value, lpr.iterations))

    lgr = LagrangianBound(instance, max_iterations=400, reuse_multipliers=False)
    bound = lgr.compute({})
    print(
        "Lagrangian bound after %d subgradient iterations: %d"
        % (len(lgr.last_trace), bound.value)
    )
    print()
    print(ascii_plot(lgr.last_trace, float(lpr.value)))
    print()
    milestones = [1, 10, 50, 100, 200, 400]
    best = float("-inf")
    running = []
    for index, value in enumerate(lgr.last_trace, start=1):
        best = max(best, value)
        if index in milestones:
            running.append((index, best))
    for index, value in running:
        print("  after %4d iterations: best L(mu) = %8.2f" % (index, value))


if __name__ == "__main__":
    main()

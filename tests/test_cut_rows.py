"""The Section 5 cuts live in one engine row per cut source.

Each improved solution tightens the knapsack row (eq. 10) and one row per
eq. 13 source instead of stacking a new row per incumbent.  These tests
pin that, and what the solver gains from it beyond speed:

* local and imported incumbents swap into the same rows, so the engine
  ends with one row per live cut source;
* a cut the w_pp backjump leaves violated is reported by propagation as
  a logic conflict, so no relaxation is ever found infeasible for it;
* the relaxations need not read the cut rows: with them, LPR prunes at
  the same nodes and MIS returns the same bound;
* in a session, clause garbage collection never deletes a live cut row,
  and the end-of-call cleanup still removes every cut row;
* the w_pp resolve is timed under ``analyze``, the swap under ``cuts``
  and the bound inputs under ``lower_bound.<method>``.
"""

from __future__ import annotations

import pytest

from repro.api import make_solver
from repro.benchgen import generate_ptl_mapping, generate_routing
from repro.core import OPTIMAL, BsoloSolver, SolverOptions
from repro.core import solver as solver_module
from repro.core.cuts import CutGenerator
from repro.experiments.table1 import family_instances
from repro.incremental import SolverSession
from repro.incremental import session as session_module
from repro.lp import LPRelaxationBound, root_lpr_bound
from repro.mis import MISBound
from repro.obs.timers import PhaseTimer
from repro.pb.objective import Objective
from tests.test_lb_incremental import walk_nodes, with_cut_rows


def grout(seed: int):
    return generate_routing(
        rows=4, cols=4, nets=8, capacity=2, detours=5, seed=seed
    )


@pytest.mark.parametrize("seed, optimum", [(2006, 22), (2009, 18), (2017, 14)])
def test_violated_cut_reaches_propagation(seed, optimum):
    """Every bound conflict is a prune: none is an infeasible relaxation
    caused by a cut the engine had not propagated."""
    instance = grout(seed)
    assert make_solver(instance, "milp").solve().best_cost == optimum
    result = make_solver(instance, "bsolo-mis", SolverOptions()).solve()
    assert result.status == OPTIMAL and result.best_cost == optimum
    assert result.stats.bound_conflicts == result.stats.prunings


@pytest.mark.parametrize("family", ["mcnc", "ptl", "grout"])
def test_cut_rows_decide_no_relaxation_prune(family):
    """At every node of seeded walks, with the eq. 10/13 cuts of a fixed
    incumbent ``U`` propagated as engine rows, LPR over the instance
    prunes exactly when LPR over the instance plus the cut rows does,
    and MIS returns the same bound on both.  The rows only turn value
    prunes into infeasible relaxations."""
    instances, _ = family_instances(family, count=2, scale=0.5)
    prunes = infeasible_only_with_rows = 0
    for seed, instance in enumerate(instances):
        generator = CutGenerator(instance)
        root = root_lpr_bound(instance)
        for upper in (root + 1, root + 2, root + 5):
            keyed, proven_source = generator.cuts(upper)
            if proven_source is not None:
                continue
            with_rows = with_cut_rows(instance, [cut for _, cut in keyed])
            lpr, lpr_rows = LPRelaxationBound(instance), LPRelaxationBound(with_rows)
            mis, mis_rows = MISBound(instance), MISBound(with_rows)
            for _, fixed in walk_nodes(with_rows, seed + 500, max_nodes=50):
                path = instance.objective.path_cost(fixed)
                plain, rows = lpr.compute(fixed), lpr_rows.compute(fixed)
                pruned = plain.infeasible or path + plain.value >= upper
                assert pruned == (rows.infeasible or path + rows.value >= upper)
                prunes += pruned
                infeasible_only_with_rows += rows.infeasible and not plain.infeasible
                a, b = mis.compute(fixed), mis_rows.compute(fixed)
                assert (a.value, a.infeasible) == (b.value, b.infeasible)
                assert a.explanation == b.explanation
    assert prunes and infeasible_only_with_rows


def _recording_solvers(monkeypatch):
    """Make sessions build solvers that append themselves to a list."""
    solvers = []

    class Recording(BsoloSolver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            solvers.append(self)

    monkeypatch.setattr(session_module, "BsoloSolver", Recording)
    return solvers


@pytest.mark.parametrize(
    "instance, optimum",
    [
        (generate_ptl_mapping(nodes=9, extra_edges=4, seed=3), 982),
        (grout(2017), 14),
    ],
    ids=["ptl", "grout"],
)
def test_session_gc_keeps_live_cut_rows(monkeypatch, instance, optimum):
    assert make_solver(instance, "milp").solve().best_cost == optimum
    solvers = _recording_solvers(monkeypatch)
    rows_checked = []

    def on_incumbent(cost, model):
        # the rows of the previous incumbents of this call, through
        # every garbage collection since
        constraints = session.propagator.database.constraints
        for row in solvers[-1]._live_cuts.values():
            assert row in constraints
            rows_checked.append(row)

    session = SolverSession(
        instance,
        SolverOptions(
            lower_bound="mis",
            max_learned=4,
            preprocess=False,
            on_incumbent=on_incumbent,
        ),
    )
    for _ in range(3):
        result = session.solve()
        assert result.status == OPTIMAL and result.best_cost == optimum
        solver = solvers[-1]
        assert solver._live_cuts
        cuts = {id(row.constraint) for row in solver._live_cuts.values()}
        for stored in session.propagator.database.constraints:
            assert stored not in solver._live_cuts.values()
            assert id(stored.constraint) not in cuts
    assert rows_checked


class _TopPhaseTimer(PhaseTimer):
    """A phase timer that also records the current top phase ("" when
    none is open) in ``current[0]``."""

    def __init__(self, current):
        super().__init__()
        self._current = current

    def push(self, name):
        super().push(name)
        self._current[0] = name

    def pop(self):
        name = super().pop()
        self._current[0] = self._stack[-1][0] if self._stack else ""
        return name


def test_phases_of_the_incumbent_path(monkeypatch):
    instance = generate_ptl_mapping(nodes=9, extra_edges=4, seed=3)
    solver = BsoloSolver(instance, SolverOptions(lower_bound="mis"))
    current = [""]
    solver._timer = _TopPhaseTimer(current)
    seen = {"resolve": set(), "swap": set(), "bound_inputs": set()}
    in_solution = [False]

    on_solution = solver._on_solution

    def traced_on_solution():
        in_solution[0] = True
        try:
            return on_solution()
        finally:
            in_solution[0] = False

    resolve = solver._resolve

    def traced_resolve(*args, **kwargs):
        if in_solution[0]:
            seen["resolve"].add(current[0])
        return resolve(*args, **kwargs)

    replace = solver._propagator.replace_constraint

    def traced_replace(*args, **kwargs):
        seen["swap"].add(current[0])
        return replace(*args, **kwargs)

    path_cost = Objective.path_cost

    def traced_path_cost(objective, assignment):
        if not in_solution[0]:
            seen["bound_inputs"].add(current[0])
        return path_cost(objective, assignment)

    solver._on_solution = traced_on_solution
    solver._resolve = traced_resolve
    solver._propagator.replace_constraint = traced_replace
    monkeypatch.setattr(Objective, "path_cost", traced_path_cost)
    result = solver.solve()
    assert result.status == OPTIMAL
    assert solver.stats.solutions_found > 1
    assert seen["resolve"] == {"analyze"}
    assert seen["swap"] == {"cuts"}
    assert seen["bound_inputs"] == {"lower_bound.mis"}


@pytest.mark.parametrize("imported", [None, 1100], ids=["local", "imported"])
def test_one_engine_row_per_cut_source(imported, monkeypatch):
    """Local and imported incumbents swap into the same rows: the engine
    ends with the instance's rows plus one per live cut source."""
    instance = generate_ptl_mapping(nodes=9, extra_edges=4, seed=3)
    options = SolverOptions(lower_bound="mis", preprocess=False)
    if imported is not None:
        monkeypatch.setattr(solver_module, "_POLL_INTERVAL", 1)
        options = options.replace(external_bound=lambda: imported)
    solver = BsoloSolver(instance, options)
    result = solver.solve()
    assert result.status == OPTIMAL and result.best_cost == 982
    assert solver.stats.solutions_found > 1
    assert solver.stats.external_bounds == (imported is not None)
    rows = [s for s in solver._propagator.database.constraints if not s.learned]
    assert len(rows) == len(instance.constraints) + len(solver._live_cuts)
    assert solver.stats.cuts_added > len(solver._live_cuts)


def test_eq13_cuts_fire_on_exactly_one_rows():
    """PTL instances carry exactly-one rows, so an improved solution
    tightens eq. 13 rows beside the knapsack row: more cut swaps than
    incumbents (without eq. 13 the two counts are equal)."""
    instance = generate_ptl_mapping(nodes=10, extra_edges=5, seed=2)
    options = SolverOptions(
        lower_bound="mis", cardinality_cuts=True, time_limit=10.0
    )
    solver = BsoloSolver(instance, options)
    assert solver.solve().status == OPTIMAL
    assert solver.stats.cuts_added > solver.stats.solutions_found

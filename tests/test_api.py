"""Tests for the solver registry and the ``repro.api`` façade."""

import inspect
import os
import pickle
import re

import pytest

import repro
from repro.api import (
    UnknownSolverError,
    available_solvers,
    canonical_name,
    make_solver,
    register_solver,
    solve,
    solver_descriptions,
)
from repro.baselines.brute_force import BruteForceSolver
from repro.baselines.covering_bnb import CoveringBnBSolver
from repro.baselines.cutting_planes import CuttingPlanesSolver
from repro.baselines.linear_search import LinearSearchSolver
from repro.baselines.milp import MILPSolver
from repro.core import BsoloSolver, OPTIMAL, SolverOptions, UNKNOWN
from repro.pb import Constraint, Objective, PBInstance

CANONICAL = [
    "brute-force",
    "bsolo",
    "bsolo-lgr",
    "bsolo-lpr",
    "bsolo-mis",
    "bsolo-plain",
    "covering-bnb",
    "cutting-planes",
    "linear-search",
    "milp",
    "portfolio",
]

ALIASES = {
    "pbs": "linear-search",
    "galena": "cutting-planes",
    "cplex": "milp",
    "scherzo": "covering-bnb",
}

#: Every registered solver that runs a plain sequential search.
SEQUENTIAL = [name for name in CANONICAL if name != "portfolio"]


def covering_instance():
    """min 3a + 2b + 2c, clauses (a|b), (b|c), (a|c); optimum 4."""
    return PBInstance(
        [
            Constraint.clause([1, 2]),
            Constraint.clause([2, 3]),
            Constraint.clause([1, 3]),
        ],
        Objective({1: 3, 2: 2, 3: 2}),
    )


class TestRegistry:
    def test_canonical_names(self):
        assert available_solvers() == CANONICAL

    def test_aliases_listed_only_on_request(self):
        with_aliases = available_solvers(include_aliases=True)
        assert set(with_aliases) == set(CANONICAL) | set(ALIASES)
        for alias, canonical in ALIASES.items():
            assert canonical_name(alias) == canonical
        for name in CANONICAL:
            assert canonical_name(name) == name

    def test_descriptions_cover_canonical_names(self):
        descriptions = solver_descriptions()
        assert sorted(descriptions) == CANONICAL
        assert all(descriptions.values())

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownSolverError):
            make_solver(covering_instance(), "minisat")
        with pytest.raises(UnknownSolverError):
            canonical_name("minisat")
        # UnknownSolverError is a ValueError for older call sites
        with pytest.raises(ValueError):
            solve(covering_instance(), solver="nope")

    def test_make_solver_returns_named_solver(self):
        solver = make_solver(covering_instance(), "bsolo-mis")
        assert isinstance(solver, BsoloSolver)
        result = solver.solve()
        assert result.status == OPTIMAL and result.best_cost == 4

    def test_register_solver_and_alias(self):
        calls = []

        def factory(instance, options):
            calls.append((instance, options))
            return BsoloSolver(instance, options)

        register_solver("test-solver", factory, "for this test",
                        aliases=("test-alias",))
        try:
            assert "test-solver" in available_solvers()
            assert "test-alias" not in available_solvers()
            assert canonical_name("test-alias") == "test-solver"
            result = solve(covering_instance(), solver="test-alias")
            assert result.best_cost == 4
            assert len(calls) == 1
        finally:
            from repro.api import _REGISTRY

            _REGISTRY.pop("test-solver", None)
            _REGISTRY.pop("test-alias", None)


class TestFacade:
    @pytest.mark.parametrize("name", SEQUENTIAL)
    def test_every_solver_finds_the_optimum(self, name):
        instance = covering_instance()
        result = solve(instance, solver=name, timeout=30.0)
        assert result.status == OPTIMAL
        assert result.best_cost == 4
        assert instance.check(result.model)

    @pytest.mark.parametrize("alias", sorted(ALIASES))
    def test_aliases_solve_too(self, alias):
        result = solve(covering_instance(), solver=alias, timeout=30.0)
        assert result.status == OPTIMAL and result.best_cost == 4

    def test_backward_compatible_positional_options(self):
        # the pre-registry signature was solve(instance, options)
        result = solve(covering_instance(), SolverOptions(lower_bound="mis"))
        assert result.status == OPTIMAL and result.best_cost == 4

    def test_options_passed_twice_rejected(self):
        with pytest.raises(TypeError):
            solve(
                covering_instance(),
                SolverOptions(),
                options=SolverOptions(),
            )

    def test_timeout_overrides_options(self):
        # a zero-ish budget must stop the solver almost immediately
        result = solve(
            covering_instance(),
            solver="bsolo-plain",
            options=SolverOptions(time_limit=3600.0),
            timeout=1e-9,
        )
        assert result.status == UNKNOWN

    def test_facade_reexported_from_package_root(self):
        assert repro.solve is solve
        assert repro.make_solver is make_solver
        assert repro.available_solvers is available_solvers


class TestAssumptions:
    """First-class ``assumptions=`` on the façade and the registry."""

    def test_solve_under_assumptions(self):
        result = solve(covering_instance(), assumptions=[1])
        assert result.status == OPTIMAL
        assert result.model[1] == 1
        assert result.best_cost == 5

    def test_make_solver_presets_assumptions(self):
        solver = make_solver(covering_instance(), "bsolo", assumptions=[-2])
        result = solver.solve()
        assert result.status == OPTIMAL
        assert result.model[2] == 0
        assert result.best_cost == 5  # ~b forces a and c

    @pytest.mark.parametrize(
        "name", ["brute-force", "milp", "linear-search", "covering-bnb"]
    )
    def test_unsupporting_solvers_raise_uniformly(self, name):
        from repro.core.options import UnsupportedOptionError

        with pytest.raises(UnsupportedOptionError):
            solve(covering_instance(), solver=name, assumptions=[1])
        with pytest.raises(UnsupportedOptionError):
            make_solver(covering_instance(), name, assumptions=[1])

    def test_no_assumptions_means_no_screening(self):
        # assumptions=None must not probe for support at all
        result = solve(covering_instance(), solver="brute-force")
        assert result.status == OPTIMAL

    def test_error_reexported_from_package_root(self):
        from repro.core.options import UnsupportedOptionError

        assert repro.UnsupportedOptionError is UnsupportedOptionError


class TestKeywordOnlyMigration:
    """The instrument arguments are keyword-only."""

    def test_positional_instruments_rejected(self):
        with pytest.raises(TypeError):
            solve(covering_instance(), "bsolo", None, 30.0)

    def test_too_many_positionals_rejected(self):
        with pytest.raises(TypeError):
            solve(
                covering_instance(),
                "bsolo", None, None, None, None, None, None, None, None,
            )

    def test_session_entry_points_reexported(self):
        from repro.incremental import SolverSession, make_session

        assert repro.SolverSession is SolverSession
        assert repro.make_session is make_session


class TestUniformConstructors:
    """Every solver class accepts ``(instance, options)`` and exposes
    ``.solve() -> SolveResult`` plus ``.name`` and ``.stats``."""

    CLASSES = [
        BsoloSolver,
        LinearSearchSolver,
        CuttingPlanesSolver,
        MILPSolver,
        CoveringBnBSolver,
        BruteForceSolver,
    ]

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_instance_options_shape(self, cls):
        solver = cls(covering_instance(), SolverOptions(time_limit=30.0))
        assert isinstance(solver.name, str) and solver.name
        assert solver.stats is not None
        result = solver.solve()
        assert result.status == OPTIMAL
        assert result.best_cost == 4
        assert result.stats is solver.stats

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_options_default_to_none(self, cls):
        result = cls(covering_instance()).solve()
        assert result.status == OPTIMAL and result.best_cost == 4


class TestSolveResultNormalization:
    def test_model_property_mirrors_best_assignment(self):
        result = solve(covering_instance(), solver="milp")
        assert result.model == result.best_assignment
        assert covering_instance().check(result.model)

    @pytest.mark.parametrize("name", SEQUENTIAL)
    def test_stats_dict_has_shared_shape(self, name):
        result = solve(covering_instance(), solver=name, timeout=30.0)
        stats = result.stats.as_dict()
        for key in ("decisions", "elapsed", "external_bounds", "interrupted"):
            assert key in stats

    def test_result_pickles(self):
        result = solve(covering_instance(), solver="bsolo-lpr")
        clone = pickle.loads(pickle.dumps(result))
        assert clone.status == result.status
        assert clone.best_cost == result.best_cost
        assert clone.model == result.model


class TestOptionsReplace:
    def test_replace_overrides_and_preserves(self):
        base = SolverOptions(lower_bound="mis", preprocess=False)
        derived = base.replace(lower_bound="lpr")
        assert derived.lower_bound == "lpr"
        assert derived.preprocess is False
        assert base.lower_bound == "mis"  # original untouched

    def test_replace_unknown_key_rejected(self):
        with pytest.raises(TypeError):
            SolverOptions().replace(not_an_option=1)

    def test_replace_carries_callables(self):
        marker = lambda: None  # noqa: E731
        derived = SolverOptions(should_stop=marker).replace(preprocess=False)
        assert derived.should_stop is marker

    def test_options_pickle(self):
        options = SolverOptions(lower_bound="lgr", time_limit=2.5)
        clone = pickle.loads(pickle.dumps(options))
        assert clone.lower_bound == "lgr"
        assert clone.time_limit == 2.5


class TestOptionsValidation:
    """Every numeric and boolean knob is checked when the options are
    built, so a bad value fails at construction, not inside a running
    solve."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("time_limit", "x"),
            ("max_conflicts", "a"),
            ("max_decisions", 1.5),
            ("max_learned", True),
            ("max_decisions", "abc"),
            ("max_learned", 2.0),
            ("vsids_decay", "0.9"),
            ("progress_interval", 1.0),
        ],
    )
    def test_non_numbers_rejected(self, field, value):
        with pytest.raises(TypeError):
            SolverOptions(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("time_limit", -1.0),
            ("max_conflicts", -1),
            ("max_decisions", -1),
            ("max_learned", -1),
            ("vsids_decay", 7),
            ("vsids_decay", 0.0),
            ("progress_interval", 0),
            ("max_conflicts", -5),
            ("progress_interval", -1),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError):
            SolverOptions(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("bound_conflict_learning", 1),
            ("upper_bound_cuts", "no"),
            ("cardinality_cuts", None),
            ("lp_guided_branching", 0.0),
            ("lgr_alpha_refinement", "true"),
            ("preprocess", "false"),
            ("upper_bound_cuts", 0),
            ("profile", "yes"),
        ],
    )
    def test_non_bools_rejected(self, field, value):
        with pytest.raises(TypeError):
            SolverOptions(**{field: value})

    def test_ints_for_reals_and_none_budgets_accepted(self):
        options = SolverOptions(
            time_limit=5,
            max_conflicts=0,
            max_decisions=None,
            max_learned=None,
            vsids_decay=1,
        )
        assert options.time_limit == 5 and options.vsids_decay == 1
        assert options.max_conflicts == 0 and options.max_learned is None


class TestDocsContract:
    """docs/API.md's options table must list exactly the knobs
    ``SolverOptions`` takes."""

    def test_options_table_matches_constructor(self):
        path = os.path.join(os.path.dirname(__file__), "..", "docs", "API.md")
        with open(path) as handle:
            doc = handle.read()
        section = doc.split("### `SolverOptions` knobs", 1)[1].split("\n#", 1)[0]
        documented = set()
        for row in re.findall(r"^\| (.+?) \|", section, flags=re.MULTILINE):
            documented.update(re.findall(r"`(\w+)`", row))
        parameters = set(inspect.signature(SolverOptions.__init__).parameters)
        assert documented == parameters - {"self"}

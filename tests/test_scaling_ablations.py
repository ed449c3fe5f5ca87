"""Tests for the scaling and ablation experiment modules."""

import pytest

from repro.benchgen import generate_covering, generate_routing
from repro.experiments import (
    ABLATIONS,
    crossover_size,
    format_ablations,
    format_sweep,
    run_ablations,
    scaling_sweep,
)


class TestScaling:
    @pytest.fixture(scope="class")
    def sweep(self):
        return scaling_sweep(
            "ptl",
            sizes=[6, 10],
            solver_names=("bsolo-plain", "bsolo-lpr"),
            time_limit=5.0,
        )

    def test_points_structure(self, sweep):
        assert [point.size for point in sweep] == [6, 10]
        for point in sweep:
            assert set(point.records) == {"bsolo-plain", "bsolo-lpr"}

    def test_format(self, sweep):
        text = format_sweep(sweep)
        assert "size" in text and "bsolo-lpr" in text

    def test_crossover_none_or_in_range(self, sweep):
        size = crossover_size(sweep, "bsolo-lpr", "bsolo-plain")
        assert size in (None, 6, 10)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            scaling_sweep("espresso", sizes=[4])

    def test_empty_sweep_format(self):
        assert format_sweep([]) == ""

    @pytest.mark.parametrize("family", ["grout", "mcnc"])
    def test_other_families(self, family):
        points = scaling_sweep(
            family, sizes=[4], solver_names=("bsolo-mis",), time_limit=5.0
        )
        assert len(points) == 1


class TestAblations:
    @pytest.fixture(scope="class")
    def records(self):
        instances = [
            generate_covering(minterms=15, implicants=10, density=0.2, seed=s)
            for s in (1, 2)
        ]
        # a routing instance on which bound conflicts dominate, so the
        # Section 4 backjumps, Section 5 cuts and LP-guided branching all act
        instances.append(
            generate_routing(rows=5, cols=5, nets=10, capacity=2, detours=3, seed=9)
        )
        return run_ablations(instances, time_limit=5.0)

    def test_all_configurations_run(self, records):
        assert [record.name for record in records] == list(ABLATIONS)
        for record in records:
            assert len(record.results) == 3

    def test_all_solve_small_instances(self, records):
        for record in records:
            assert record.solved == 3

    def test_agreement_across_configurations(self, records):
        costs = {
            tuple(result.best_cost for result in record.results)
            for record in records
        }
        assert len(costs) == 1

    def test_format(self, records):
        text = format_ablations(records)
        assert "configuration" in text and "no-cuts" in text

    def test_registry_covers_paper_features(self):
        assert "no-bound-learning" in ABLATIONS
        assert "no-lp-branching" in ABLATIONS
        assert "no-preprocess" in ABLATIONS

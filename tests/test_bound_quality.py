"""Tests for the root-bound quality experiment."""

import pytest

from repro.benchgen import generate_covering, generate_routing
from repro.experiments import bound_quality, format_bound_quality


@pytest.fixture(scope="module")
def records():
    instances = [
        generate_covering(minterms=20, implicants=12, density=0.2, max_cost=20, seed=s)
        for s in (1, 2)
    ] + [generate_routing(rows=4, cols=4, nets=5, capacity=2, seed=3)]
    labels = ["cov-1", "cov-2", "route-1"]
    return bound_quality(instances, labels, lgr_max_iterations=150)


class TestBoundQuality:
    def test_all_measured(self, records):
        assert [record.label for record in records] == ["cov-1", "cov-2", "route-1"]
        for record in records:
            assert record.optimum is not None  # small instances solve

    def test_bounds_below_optimum(self, records):
        for record in records:
            assert record.mis <= record.optimum
            assert record.lgr <= record.optimum
            assert record.lpr <= record.optimum

    def test_lpr_at_least_mis(self, records):
        # Section 3.1's "often" holds always on these families
        for record in records:
            assert record.lpr >= record.mis

    def test_gap_computation(self, records):
        for record in records:
            if record.optimum:
                gap = record.gap("lpr")
                assert 0.0 <= gap <= 100.0

    def test_gap_none_without_optimum(self):
        from repro.experiments.bounds import BoundRecord

        record = BoundRecord("x", None, 1, 1, 1, 0.0, 0.0, 0.0)
        assert record.gap("lpr") is None

    def test_formatting(self, records):
        text = format_bound_quality(records)
        assert "instance" in text and "LPR >= MIS" in text
        assert "cov-1" in text

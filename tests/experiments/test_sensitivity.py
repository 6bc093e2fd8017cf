"""Tests for the DVF sensitivity studies."""

import pytest

from repro.experiments.configs import KERNEL_ORDER
from repro.experiments.sensitivity import (
    geometry_sensitivity,
    ranking_stability,
    render_sensitivity,
    weighting_sensitivity,
)
from repro.kernels.base import Kernel


@pytest.fixture(scope="module")
def weight_rows():
    return weighting_sensitivity(tier="test")


@pytest.fixture(scope="module")
def geometry_rows():
    return geometry_sensitivity(tier="test")


class TestWeightingSensitivity:
    def test_covers_all_weightings(self, weight_rows):
        vm = [r for r in weight_rows if r.kernel == "VM"]
        assert len(vm) == 7

    def test_paper_definition_present(self, weight_rows):
        assert any(r.alpha == 1.0 and r.beta == 1.0 for r in weight_rows)

    def test_rankings_cover_all_structures(self, weight_rows):
        cg = [r for r in weight_rows if r.kernel == "CG"][0]
        assert set(cg.ranking) == {"A", "p", "r", "x"}

    def test_top_structure_robust(self, weight_rows):
        """The protection decision (top structure) should not hinge on
        the equal-weights assumption for these kernels."""
        stability = ranking_stability(weight_rows)
        assert all(v >= 0.8 for v in stability.values()), stability

    def test_stability_in_unit_interval(self, weight_rows):
        for value in ranking_stability(weight_rows).values():
            assert 0.0 <= value <= 1.0

    def test_each_kernel_analyzed_once(self, monkeypatch):
        # The seven weightings reprice one analysis per kernel; they do
        # not re-run the CGPMAC model.
        calls = []
        estimate = Kernel.estimate_nha

        def counted(self, *args, **kwargs):
            calls.append(self.name)
            return estimate(self, *args, **kwargs)

        monkeypatch.setattr(Kernel, "estimate_nha", counted)
        rows = weighting_sensitivity(tier="test")
        assert sorted(calls) == sorted(KERNEL_ORDER)
        assert len(rows) == 7 * len(KERNEL_ORDER)


class TestGeometrySensitivity:
    def test_fixed_capacity(self, geometry_rows):
        # All variants at 64 KB: a * sets * line == capacity.
        for row in geometry_rows:
            assert row.dvf > 0

    def test_variants_cover_grid(self, geometry_rows):
        vm = {r.variant for r in geometry_rows if r.kernel == "VM"}
        assert len(vm) == 9  # 3 associativities x 3 line sizes

    def test_streaming_insensitive_to_associativity(self, geometry_rows):
        """VM is compulsory-miss bound: only the line size matters."""
        vm = [r for r in geometry_rows if r.kernel == "VM"]
        by_line = {}
        for row in vm:
            by_line.setdefault(row.line_size, set()).add(round(row.dvf, 20))
        for line_size, values in by_line.items():
            assert len(values) == 1, (line_size, values)

    def test_larger_lines_fewer_accesses_for_streaming(self, geometry_rows):
        vm = {
            (r.associativity, r.line_size): r.dvf
            for r in geometry_rows
            if r.kernel == "VM"
        }
        assert vm[(4, 128)] < vm[(4, 32)]


class TestRendering:
    def test_render_contains_sections(self, weight_rows, geometry_rows):
        text = render_sensitivity(weight_rows, geometry_rows)
        assert "weighting sensitivity" in text
        assert "Geometry sensitivity" in text
        assert "stability" in text

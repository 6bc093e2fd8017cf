"""Tests for the §V use-case drivers (Fig. 6 and Fig. 7 logic)."""

import numpy as np
import pytest

from repro.cachesim.configs import PAPER_CACHES, CacheGeometry
from repro.core.fit import CHIPKILL, NO_ECC, SECDED
from repro.core.tradeoff import (
    AlgorithmComparison,
    compare_cg_pcg,
    crossover_size,
    ecc_tradeoff_sweep,
    optimal_degradation,
)
from repro.kernels.registry import KERNELS
from repro.kernels.workloads import TEST_WORKLOADS

RESIDENT = CacheGeometry(8, 32768, 64, "resident")


class TestCGvsPCG:
    def test_comparison_measures_iterations(self):
        row = compare_cg_pcg(100, RESIDENT)
        assert row.cg_iterations > row.pcg_iterations > 0

    def test_pcg_more_vulnerable_at_small_size(self):
        row = compare_cg_pcg(100, RESIDENT)
        assert not row.pcg_wins
        # "pretty close": within ~50%.
        assert row.pcg_dvf / row.cg_dvf < 1.5

    def test_pcg_wins_at_large_size(self):
        row = compare_cg_pcg(600, RESIDENT)
        assert row.pcg_wins

    def test_times_reflect_extra_pcg_work_per_iteration(self):
        row = compare_cg_pcg(100, RESIDENT)
        per_iter_cg = row.cg_time / row.cg_iterations
        per_iter_pcg = row.pcg_time / row.pcg_iterations
        assert per_iter_pcg > per_iter_cg


class TestCrossover:
    def _rows(self, winners):
        return [
            AlgorithmComparison(
                problem_size=100 * (i + 1),
                cg_iterations=10,
                pcg_iterations=5,
                cg_dvf=1.0,
                pcg_dvf=0.5 if wins else 2.0,
                cg_time=1.0,
                pcg_time=1.0,
            )
            for i, wins in enumerate(winners)
        ]

    def test_simple_crossover(self):
        rows = self._rows([False, False, True, True])
        assert crossover_size(rows) == 300

    def test_no_crossover(self):
        assert crossover_size(self._rows([False, False])) is None

    def test_non_monotone_requires_stability(self):
        rows = self._rows([False, True, False, True])
        assert crossover_size(rows) == 400

    def test_pcg_always_wins(self):
        assert crossover_size(self._rows([True, True])) == 100


class TestECCTradeoff:
    def _points(self):
        return ecc_tradeoff_sweep(
            KERNELS["VM"],
            TEST_WORKLOADS["VM"],
            PAPER_CACHES["8MB"],
            [SECDED, CHIPKILL],
            degradations=np.linspace(0, 0.3, 13),
        )

    def test_point_count(self):
        assert len(self._points()) == 2 * 13

    def test_minimum_at_full_coverage_degradation(self):
        points = self._points()
        for scheme in ("SECDED", "Chipkill correct"):
            best = optimal_degradation(points, scheme)
            assert best.degradation == pytest.approx(0.05)

    def test_protection_reduces_dvf(self):
        points = self._points()
        at_zero = [p for p in points if p.degradation == 0.0][0]
        best = optimal_degradation(points, "SECDED")
        assert best.dvf < at_zero.dvf

    def test_dvf_rises_after_minimum(self):
        points = [p for p in self._points() if p.scheme == "SECDED"]
        by_degradation = sorted(points, key=lambda p: p.degradation)
        tail = [p.dvf for p in by_degradation if p.degradation >= 0.05]
        assert tail == sorted(tail)

    def test_chipkill_far_below_secded(self):
        points = self._points()
        chipkill = optimal_degradation(points, "Chipkill correct")
        secded = optimal_degradation(points, "SECDED")
        assert chipkill.dvf < secded.dvf / 100

    def test_effective_fit_recorded(self):
        points = self._points()
        start = [p for p in points if p.scheme == "SECDED"][0]
        assert start.effective_fit == NO_ECC.fit  # no coverage at d = 0

    def test_unknown_scheme_lookup(self):
        with pytest.raises(KeyError):
            optimal_degradation(self._points(), "parity")

"""Tests for ECC schemes (Table VII) and the execution time ``T``."""

import pytest

from repro.cachesim.configs import PAPER_CACHES
from repro.core.analyzer import DVFAnalyzer
from repro.core.fit import CHIPKILL, ECC_SCHEMES, NO_ECC, SECDED, ECCScheme
from repro.core.machine import MachineModel
from repro.kernels.registry import KERNELS
from repro.kernels.workloads import TEST_WORKLOADS

MACHINE = MachineModel.from_geometry(
    PAPER_CACHES["small"], flops_rate=2e9, bandwidth=1e10
)


class TestTable7:
    def test_paper_fit_rates(self):
        assert NO_ECC.fit == 5000.0
        assert CHIPKILL.fit == 0.02
        assert SECDED.fit == 1300.0

    def test_three_schemes_registered(self):
        assert set(ECC_SCHEMES) == {"none", "chipkill", "secded"}


class TestCoverageModel:
    def test_coverage_ramps_linearly(self):
        assert SECDED.coverage(0.0) == 0.0
        assert SECDED.coverage(0.025) == pytest.approx(0.5)
        assert SECDED.coverage(0.05) == 1.0
        assert SECDED.coverage(0.30) == 1.0

    def test_no_ecc_always_full_coverage(self):
        # Degenerate scheme: zero-cost "protection" at the baseline FIT.
        assert NO_ECC.coverage(0.0) == 1.0

    def test_effective_fit_interpolates(self):
        assert SECDED.effective_fit(0.0, 5000) == pytest.approx(5000)
        assert SECDED.effective_fit(0.025, 5000) == pytest.approx(
            0.5 * 5000 + 0.5 * 1300
        )
        assert SECDED.effective_fit(0.05, 5000) == pytest.approx(1300)
        assert SECDED.effective_fit(0.20, 5000) == pytest.approx(1300)

    def test_negative_degradation_rejected(self):
        with pytest.raises(ValueError):
            SECDED.coverage(-0.1)

    def test_negative_fit_rejected(self):
        with pytest.raises(ValueError):
            ECCScheme(name="bad", fit=-1.0)


class TestRuntimeProviders:
    """``T`` is an explicit time or the machine's roofline estimate."""

    def test_fixed(self):
        report = DVFAnalyzer(MACHINE).analyze(
            KERNELS["VM"], TEST_WORKLOADS["VM"], time_seconds=2.5
        )
        assert report.time_seconds == 2.5

    def test_fixed_negative_rejected(self):
        with pytest.raises(ValueError, match="time must be finite"):
            DVFAnalyzer(MACHINE).analyze(
                KERNELS["VM"], TEST_WORKLOADS["VM"], time_seconds=-1.0
            )

    def test_roofline_compute_bound(self):
        assert MACHINE.roofline_seconds(4e9, 1e9) == pytest.approx(2.0)

    def test_roofline_memory_bound(self):
        assert MACHINE.roofline_seconds(1e9, 1e11) == pytest.approx(10.0)

    def test_roofline_validation(self):
        with pytest.raises(ValueError):
            MACHINE.roofline_seconds(-1, 0)
        with pytest.raises(ValueError):
            MACHINE.roofline_seconds(float("nan"), 0)
        with pytest.raises(ValueError):
            MACHINE.with_fit(-1.0)

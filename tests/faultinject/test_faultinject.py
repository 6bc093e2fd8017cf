"""Tests for the fault-injection substrate."""

import numpy as np
import pytest

from repro.cachesim.configs import PAPER_CACHES
from repro.core.analyzer import DVFAnalyzer
from repro.core.machine import MachineModel
from repro.faultinject.campaign import run_campaign
from repro.faultinject.compare import empirical_vulnerability, rank_agreement
from repro.faultinject.flips import flip_bit, random_flip
from repro.faultinject.outcomes import Outcome, classify_outcome
from repro.faultinject.targets import INJECTABLE_KERNELS
from repro.kernels.base import Workload
from repro.kernels.registry import KERNELS
from repro.kernels.workloads import TEST_WORKLOADS


class TestFlips:
    def test_flip_changes_exactly_one_bit(self):
        a = np.zeros(4)
        flip_bit(a, 1, 0)
        raw = a.view(np.uint64)
        assert raw[1] == 1
        assert raw[0] == raw[2] == raw[3] == 0

    def test_flip_is_involutive(self):
        a = np.arange(4.0)
        before = a.copy()
        flip_bit(a, 2, 37)
        assert not np.array_equal(a, before)
        flip_bit(a, 2, 37)
        assert np.array_equal(a, before)

    def test_high_bit_changes_magnitude(self):
        a = np.ones(1)
        flip_bit(a, 0, 62)  # exponent bit of float64
        assert a[0] != 1.0

    def test_bounds_checked(self):
        a = np.zeros(4)
        with pytest.raises(IndexError):
            flip_bit(a, 4, 0)
        with pytest.raises(ValueError):
            flip_bit(a, 0, 64)

    def test_complex_elements(self):
        a = np.ones(2, dtype=np.complex128)
        flip_bit(a, 0, 100)  # bits 64..127 land in the imaginary part
        assert a[0].imag != 0.0
        assert a[1] == 1.0 + 0j

    def test_random_flip_reports_location(self):
        a = np.zeros(16)
        rng = np.random.default_rng(0)
        index, bit = random_flip(a, rng)
        assert 0 <= index < 16 and 0 <= bit < 64
        assert np.count_nonzero(a.view(np.uint64)) == 1


class TestClassification:
    def test_identical_is_benign(self):
        ref = np.arange(10.0)
        assert classify_outcome(ref.copy(), ref) is Outcome.BENIGN

    def test_tiny_error_is_benign(self):
        ref = np.ones(10)
        result = ref + 1e-12
        assert classify_outcome(result, ref) is Outcome.BENIGN

    def test_large_error_is_sdc(self):
        ref = np.ones(10)
        result = ref.copy()
        result[3] = 100.0
        assert classify_outcome(result, ref) is Outcome.SDC

    def test_nan_is_crash(self):
        ref = np.ones(4)
        result = ref.copy()
        result[0] = np.nan
        assert classify_outcome(result, ref) is Outcome.CRASH

    def test_none_is_crash(self):
        assert classify_outcome(None, np.ones(4)) is Outcome.CRASH

    def test_shape_mismatch_is_crash(self):
        assert classify_outcome(np.ones(3), np.ones(4)) is Outcome.CRASH

    def test_failure_property(self):
        assert Outcome.SDC.is_failure and Outcome.CRASH.is_failure
        assert not Outcome.BENIGN.is_failure


class TestTargets:
    @pytest.mark.parametrize("name", sorted(INJECTABLE_KERNELS))
    def test_fault_free_run_deterministic(self, name):
        target = INJECTABLE_KERNELS[name]
        workload = TEST_WORKLOADS[name]
        rng = np.random.default_rng(0)
        a = target.run(workload, None, 0.0, rng)
        b = target.run(workload, None, 0.7, rng)
        assert np.allclose(a, b)

    @pytest.mark.parametrize("name, workload, rtol", [
        ("VM", TEST_WORKLOADS["VM"], 0.0),
        ("CG", TEST_WORKLOADS["CG"], 0.0),
        ("CG", Workload("pcg", {**TEST_WORKLOADS["CG"].params,
                                "variant": "pcg"}), 0.0),
        ("FT", TEST_WORKLOADS["FT"], 0.0),
        ("FT", Workload("two", {"n": 256, "transforms": 2}), 0.0),
        # The kernel adds up each lookup's row, the adapter a batch's.
        ("MC", TEST_WORKLOADS["MC"], 1e-12),
    ], ids=["VM", "CG", "PCG", "FT", "FT-2-transforms", "MC"])
    def test_adapter_matches_traced_kernel(self, name, workload, rtol):
        from repro.trace.recorder import TraceRecorder

        expected = KERNELS[name].run_traced(workload, TraceRecorder())
        got = INJECTABLE_KERNELS[name].run(
            workload, None, 0.0, np.random.default_rng(0)
        )
        # rtol = 0 asks for exact equality.
        np.testing.assert_allclose(got, expected, rtol=rtol, atol=0)

    def test_mc_searches_a_flipped_grid_like_the_kernel(self, monkeypatch):
        # A flip into the exponent of G's middle point leaves the grid
        # unsorted; the adapter must still read the rows the kernel's
        # own search finds on that grid.
        from repro.faultinject import targets
        from repro.trace.recorder import TraceRecorder

        kernel, workload = KERNELS["MC"], TEST_WORKLOADS["MC"]
        energies, xs, samples = kernel.inputs(workload)
        middle = (energies.size - 1) // 2
        flip_bit(energies, middle, 62)
        assert np.any(np.diff(energies) < 0)
        monkeypatch.setattr(
            targets, "random_flip",
            lambda array, rng: flip_bit(array, middle, 62),
        )
        got = INJECTABLE_KERNELS["MC"].run(
            workload, "G", 0.0, np.random.default_rng(0)
        )
        monkeypatch.setattr(kernel, "inputs", lambda w: (energies, xs, samples))
        expected = kernel.run_traced(workload, TraceRecorder())
        np.testing.assert_allclose(got, [expected], rtol=1e-12, atol=0)
        # A search that assumes a sorted grid reads other rows.
        rows = np.minimum(np.searchsorted(energies, samples), energies.size - 1)
        assert not np.isclose(xs[rows].sum(), expected, rtol=1e-12, atol=0)

    def test_ft_matches_numpy_fft(self):
        workload = Workload("t", {"n": 128})
        got = INJECTABLE_KERNELS["FT"].run(
            workload, None, 0.0, np.random.default_rng(0)
        )
        rng = np.random.default_rng(0)
        data = rng.random(128) + 1j * rng.random(128)
        assert np.allclose(got, np.fft.fft(data))

    def test_injection_perturbs_output_sometimes(self):
        target = INJECTABLE_KERNELS["VM"]
        workload = TEST_WORKLOADS["VM"]
        rng = np.random.default_rng(1)
        reference = target.run(workload, None, 0.0, rng)
        changed = 0
        for _ in range(30):
            result = target.run(workload, "B", 0.0, rng)
            if not np.allclose(result, reference):
                changed += 1
        assert changed > 0


class TestCampaign:
    @pytest.fixture(scope="class")
    def vm_campaign(self):
        return run_campaign("VM", TEST_WORKLOADS["VM"], trials=50, seed=3)

    def test_counts_sum_to_trials(self, vm_campaign):
        for s in vm_campaign.structures:
            assert s.benign + s.sdc + s.crash == 50

    def test_rates_in_unit_interval(self, vm_campaign):
        for s in vm_campaign.structures:
            assert 0.0 <= s.failure_rate <= 1.0
            assert s.confidence_halfwidth >= 0.0

    def test_structure_lookup(self, vm_campaign):
        assert vm_campaign.stats("A").trials == 50
        with pytest.raises(KeyError):
            vm_campaign.stats("Z")

    def test_some_faults_visible(self, vm_campaign):
        assert any(s.failures > 0 for s in vm_campaign.structures)

    def test_structure_filter(self):
        campaign = run_campaign(
            "VM", TEST_WORKLOADS["VM"], trials=5, structures=("B",)
        )
        assert [s.structure for s in campaign.structures] == ["B"]

    def test_unknown_kernel(self):
        with pytest.raises(KeyError, match="no injection adapter"):
            run_campaign("MG", TEST_WORKLOADS["MG"], trials=1)

    def test_unknown_structure(self):
        with pytest.raises(KeyError, match="not injectable"):
            run_campaign(
                "VM", TEST_WORKLOADS["VM"], trials=1, structures=("Z",)
            )

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            run_campaign("VM", TEST_WORKLOADS["VM"], trials=0)


class TestComparison:
    @pytest.fixture(scope="class")
    def setup(self):
        analyzer = DVFAnalyzer(MachineModel.from_geometry(PAPER_CACHES["8MB"]))
        workload = TEST_WORKLOADS["CG"]
        campaign = run_campaign("CG", workload, trials=60, seed=7)
        report = analyzer.analyze(KERNELS["CG"], workload)
        return campaign, report

    def test_empirical_vulnerability_keys(self, setup):
        campaign, report = setup
        emp = empirical_vulnerability(campaign, report)
        assert set(emp) == {"A", "x", "p", "r"}
        assert all(v >= 0 for v in emp.values())

    def test_dvf_agrees_with_injection_ranking(self, setup):
        """The headline: DVF predicts the expensive campaign's ranking."""
        campaign, report = setup
        rho, _ = rank_agreement(campaign, report)
        assert rho > 0.5

    def test_matrix_dominates_both_rankings(self, setup):
        campaign, report = setup
        emp = empirical_vulnerability(campaign, report)
        assert max(emp, key=emp.get) == "A"
        assert report.ranked()[0].name == "A"

    def test_underpowered_campaign_yields_nan(self):
        analyzer = DVFAnalyzer(MachineModel.from_geometry(PAPER_CACHES["8MB"]))
        workload = TEST_WORKLOADS["MC"]
        campaign = run_campaign("MC", workload, trials=2, seed=0)
        report = analyzer.analyze(KERNELS["MC"], workload)
        rho, emp = rank_agreement(campaign, report)
        if len(set(emp.values())) == 1:
            assert np.isnan(rho)

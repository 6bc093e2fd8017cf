"""Tests for the kernel registry and workload tiers."""

import pytest

from repro.kernels.registry import KERNELS, get_kernel
from repro.kernels.workloads import (
    PROFILING_WORKLOADS,
    TEST_WORKLOADS,
    VERIFICATION_WORKLOADS,
    workload_for,
)


class TestRegistry:
    def test_six_kernels(self):
        assert set(KERNELS) == {"VM", "CG", "NB", "MG", "FT", "MC"}

    def test_lookup_case_insensitive(self):
        assert get_kernel("vm") is KERNELS["VM"]

    def test_unknown_kernel(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            get_kernel("XX")

    def test_kernel_names_match_keys(self):
        for name, kernel in KERNELS.items():
            assert kernel.name == name

    def test_method_classes_match_table2(self):
        assert KERNELS["VM"].method_class == "Dense linear algebra"
        assert KERNELS["CG"].method_class == "Sparse linear algebra"
        assert KERNELS["NB"].method_class == "N-body method"
        assert KERNELS["MG"].method_class == "Structured grids"
        assert KERNELS["FT"].method_class == "Spectral methods"
        assert KERNELS["MC"].method_class == "Monte Carlo"


class TestWorkloads:
    def test_every_kernel_has_every_tier(self):
        for tier in (VERIFICATION_WORKLOADS, PROFILING_WORKLOADS, TEST_WORKLOADS):
            assert set(tier) == set(KERNELS)

    def test_workload_for(self):
        assert workload_for("VM", "profiling")["n"] == 100_000

    def test_unknown_tier(self):
        with pytest.raises(KeyError, match="unknown tier"):
            workload_for("VM", "enormous")

    def test_unknown_kernel_in_tier(self):
        with pytest.raises(KeyError, match="no workload"):
            workload_for("XX", "test")

    def test_profiling_larger_than_verification(self):
        """Table VI sizes exceed Table V sizes (except FT, both class S)."""
        for name in ("VM", "CG", "NB", "MC"):
            kernel = KERNELS[name]
            ver = kernel.working_set_bytes(VERIFICATION_WORKLOADS[name])
            prof = kernel.working_set_bytes(PROFILING_WORKLOADS[name])
            lookups_scale = name in ("MC",)
            if not lookups_scale:
                assert prof > ver, name

    def test_workload_param_access(self):
        w = TEST_WORKLOADS["VM"]
        assert w["n"] == 500
        assert w.get("missing", 42) == 42
        with pytest.raises(KeyError, match="no parameter"):
            w["missing"]

    def test_test_tier_is_fast_sized(self):
        """The test tier must stay small enough for unit-test runtimes."""
        for name, workload in TEST_WORKLOADS.items():
            kernel = KERNELS[name]
            assert kernel.working_set_bytes(workload) < 4 * 2**20, name


class TestDataStructureTables:
    def test_table2_structures(self):
        expected = {
            "VM": {"A", "B", "C"},
            "CG": {"A", "x", "p", "r"},
            "NB": {"T", "P"},
            "MG": {"R"},
            "FT": {"X"},
            "MC": {"G", "E"},
        }
        for name, structures in expected.items():
            kernel = KERNELS[name]
            actual = set(kernel.data_structures(TEST_WORKLOADS[name]))
            assert actual == structures, name

    def test_estimates_are_positive_everywhere(self):
        from repro.cachesim.configs import PAPER_CACHES

        for name, kernel in KERNELS.items():
            nha, _ = kernel.estimate_nha(
                TEST_WORKLOADS[name], PAPER_CACHES["small"]
            )
            assert all(v > 0 for v in nha.values()), name

    def test_resource_counts_positive(self):
        for name, kernel in KERNELS.items():
            resources = kernel.resource_counts(TEST_WORKLOADS[name])
            assert resources.flops > 0, name
            assert resources.bytes_moved > 0, name

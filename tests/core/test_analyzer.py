"""Tests for DVFAnalyzer and the validation harness."""

import pytest

from repro.cachesim.configs import PAPER_CACHES
from repro.core.analyzer import DVFAnalyzer
from repro.core.dvf import build_report
from repro.core.machine import MachineModel
from repro.core.validation import ground_truth_stats, validate_kernel
from repro.kernels.base import Kernel
from repro.kernels.registry import KERNELS
from repro.kernels.workloads import TEST_WORKLOADS
from repro.trace.cache import TraceCache


@pytest.fixture
def analyzer():
    return DVFAnalyzer(MachineModel.from_geometry(PAPER_CACHES["small"]))


class TestAnalyze:
    def test_report_has_every_structure(self, analyzer):
        report = analyzer.analyze(KERNELS["VM"], TEST_WORKLOADS["VM"])
        assert {s.name for s in report.structures} == {"A", "B", "C"}

    def test_vm_structure_a_most_vulnerable(self, analyzer):
        report = analyzer.analyze(KERNELS["VM"], TEST_WORKLOADS["VM"])
        assert report.ranked()[0].name == "A"

    def test_runtime_defaults_to_roofline(self, analyzer):
        kernel, workload = KERNELS["VM"], TEST_WORKLOADS["VM"]
        report = analyzer.analyze(kernel, workload)
        resources = kernel.resource_counts(workload)
        expected = max(
            resources.flops / analyzer.machine.flops_rate,
            resources.bytes_moved / analyzer.machine.bandwidth,
        )
        assert report.time_seconds == pytest.approx(expected)

    def test_explicit_runtime_respected(self, analyzer):
        report = analyzer.analyze(
            KERNELS["VM"], TEST_WORKLOADS["VM"], time_seconds=3.0
        )
        assert report.time_seconds == 3.0

    def test_dvf_scales_with_fit(self):
        kernel, workload = KERNELS["VM"], TEST_WORKLOADS["VM"]
        low = DVFAnalyzer(
            MachineModel.from_geometry(PAPER_CACHES["small"], fit=100)
        ).analyze(kernel, workload)
        high = DVFAnalyzer(
            MachineModel.from_geometry(PAPER_CACHES["small"], fit=200)
        ).analyze(kernel, workload)
        assert high.dvf_application == pytest.approx(2 * low.dvf_application)

    def test_weighted_dvf(self, analyzer):
        # The weighting reprices an analyzed report's own ingredients.
        plain = analyzer.analyze(KERNELS["VM"], TEST_WORKLOADS["VM"])
        weighted = build_report(
            plain.application,
            plain.machine,
            plain.fit,
            plain.time_seconds,
            {s.name: s.size_bytes for s in plain.structures},
            {s.name: s.nha for s in plain.structures},
            beta=0.0,
        )
        # beta = 0 removes the N_ha term entirely.
        a = weighted.structure("A")
        assert a.dvf == pytest.approx(a.n_error)
        assert plain.structure("A").dvf != a.dvf

    def test_simulated_path_close_to_analytical(self, analyzer):
        kernel, workload = KERNELS["VM"], TEST_WORKLOADS["VM"]
        analytical = analyzer.analyze(kernel, workload)
        simulated = analyzer.analyze_simulated(kernel, workload)
        for s in analytical.structures:
            ground = simulated.structure(s.name)
            assert s.dvf == pytest.approx(ground.dvf, rel=0.15)


class TestValidation:
    def test_validate_vm_accuracy(self):
        result = validate_kernel(
            KERNELS["VM"], TEST_WORKLOADS["VM"], PAPER_CACHES["small"]
        )
        assert result.max_relative_error <= 0.15

    def test_validation_records_costs(self):
        result = validate_kernel(
            KERNELS["VM"], TEST_WORKLOADS["VM"], PAPER_CACHES["small"]
        )
        assert result.model_seconds >= 0
        assert result.simulation_seconds > 0
        assert result.speedup > 1  # analytical path is faster

    def test_structure_lookup(self):
        result = validate_kernel(
            KERNELS["VM"], TEST_WORKLOADS["VM"], PAPER_CACHES["small"]
        )
        assert result.structure("A").simulated > 0
        with pytest.raises(KeyError):
            result.structure("Z")

    def test_zero_zero_error_is_zero(self):
        from repro.core.validation import StructureValidation

        v = StructureValidation("x", simulated=0.0, estimated=0.0)
        assert v.relative_error == 0.0
        v2 = StructureValidation("x", simulated=0.0, estimated=5.0)
        assert v2.relative_error == float("inf")


class TestStreamingValidation:
    """Replay-option plumbing through validate_kernel."""

    def _exact(self, **kwargs):
        return validate_kernel(
            KERNELS["VM"], TEST_WORKLOADS["VM"], PAPER_CACHES["small"],
            **kwargs,
        )

    def test_streamed_matches_monolithic(self):
        base = self._exact()
        streamed = self._exact(chunk_refs=97)
        assert [
            (s.structure, s.simulated) for s in streamed.structures
        ] == [(s.structure, s.simulated) for s in base.structures]

    def test_streamed_with_trace_cache_matches(self, tmp_path):
        base = self._exact()
        streamed = self._exact(chunk_refs=97, trace_cache=tmp_path)
        assert [
            (s.structure, s.simulated) for s in streamed.structures
        ] == [(s.structure, s.simulated) for s in base.structures]

    def test_zero_chunk_refs_rejected_with_and_without_cache(self, tmp_path):
        # 0 is not "use the default chunk size" on either trace source.
        for cache in (None, TraceCache(tmp_path)):
            with pytest.raises(ValueError, match="chunk_refs"):
                ground_truth_stats(
                    KERNELS["VM"], TEST_WORKLOADS["VM"],
                    PAPER_CACHES["small"], trace_cache=cache, chunk_refs=0,
                )

    def test_engine_options_pass_through(self):
        base = self._exact()
        oracle = self._exact(engine="reference", shards=1, jobs=1)
        assert [
            (s.structure, s.simulated) for s in oracle.structures
        ] == [(s.structure, s.simulated) for s in base.structures]

    def test_analyze_simulated_streaming_knobs(self):
        kernel, workload = KERNELS["VM"], TEST_WORKLOADS["VM"]
        analyzer = DVFAnalyzer(MachineModel.from_geometry(PAPER_CACHES["small"]))
        base = analyzer.analyze_simulated(kernel, workload)
        streamed = analyzer.analyze_simulated(
            kernel, workload, chunk_refs=211
        )
        for s in base.structures:
            assert streamed.structure(s.name).nha == s.nha

    def test_uncached_ground_truth_never_builds_a_whole_trace(
        self, tmp_path, monkeypatch
    ):
        kernel, workload = KERNELS["VM"], TEST_WORKLOADS["VM"]
        analyzer = DVFAnalyzer(MachineModel.from_geometry(PAPER_CACHES["small"]))
        cached = self._exact(trace_cache=tmp_path)
        cached_report = analyzer.analyze_simulated(
            kernel, workload, trace_cache=tmp_path
        )

        def whole_trace(*args, **kwargs):
            raise AssertionError("Kernel.trace called without a trace cache")

        monkeypatch.setattr(Kernel, "trace", whole_trace)
        streamed = self._exact()
        assert [
            (s.structure, s.simulated) for s in streamed.structures
        ] == [(s.structure, s.simulated) for s in cached.structures]
        report = analyzer.analyze_simulated(kernel, workload)
        for s in cached_report.structures:
            assert report.structure(s.name).nha == s.nha

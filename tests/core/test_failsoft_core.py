"""Guardrails in the core DVF layer: finite inputs, degraded flags.

NaN/inf must be rejected (strict) or flagged with ``ASP305`` and kept
out of the ``DVF_a`` sum (lenient) before they can poison a report.
"""

import math

import pytest

from repro.aspen.builtin import MACHINE_LIBRARY, builtin_source
from repro.aspen.compiler import compile_source
from repro.cachesim.configs import PAPER_CACHES, CacheGeometry
from repro.core.analyzer import DVFAnalyzer
from repro.core.dvf import build_report, dvf_data, n_error
from repro.core.machine import MachineModel
from repro.core.validation import validate_kernel
from repro.diagnostics import DiagnosticSink
from repro.kernels.base import Workload
from repro.kernels.registry import KERNELS
from repro.kernels.vector_multiply import VectorMultiplyKernel
from repro.kernels.workloads import TEST_WORKLOADS
from repro.patterns.composite import CompositeAccessModel

GEOMETRY = CacheGeometry(4, 64, 32, "small")


class TestFiniteGuards:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_n_error_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            n_error(bad, 1.0, 100.0)
        with pytest.raises(ValueError):
            n_error(100.0, bad, 100.0)
        with pytest.raises(ValueError):
            n_error(100.0, 1.0, bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_dvf_data_rejects_bad_nha(self, bad):
        with pytest.raises(ValueError):
            dvf_data(100.0, 1.0, 100.0, bad)


class TestBuildReport:
    def test_strict_raises_on_non_finite_nha(self):
        with pytest.raises(ValueError):
            build_report(
                "app", "m", 100.0, 1.0,
                sizes={"A": 10.0}, nha={"A": float("nan")},
            )

    def test_lenient_flags_and_zeroes_bad_structure(self):
        sink = DiagnosticSink()
        report = build_report(
            "app", "m", 100.0, 1.0,
            sizes={"A": 10.0, "B": 10.0},
            nha={"A": float("inf"), "B": 5.0},
            sink=sink,
        )
        assert math.isfinite(report.dvf_application)
        assert report.structure("A").degraded
        assert report.structure("A").dvf == 0.0
        assert not report.structure("B").degraded
        assert [d.code for d in sink.errors] == ["ASP305"]
        assert report.diagnostics == tuple(sink)

    def test_degraded_names_are_flagged(self):
        report = build_report(
            "app", "m", 100.0, 1.0,
            sizes={"A": 10.0}, nha={"A": 5.0},
            degraded={"A"},
        )
        assert report.structure("A").degraded
        assert report.degraded_structures == ("A",)


class TestAnalyzerModes:
    def test_lenient_analyze_matches_strict_on_healthy_kernel(self):
        analyzer = DVFAnalyzer(MachineModel.from_geometry(GEOMETRY))
        kernel = VectorMultiplyKernel()
        workload = Workload("tiny", {"n": 512})
        strict = analyzer.analyze(kernel, workload)
        lenient = analyzer.analyze(kernel, workload, sink=DiagnosticSink())
        assert lenient.degraded_structures == ()
        assert strict.dvf_application == pytest.approx(
            lenient.dvf_application
        )

    def test_lenient_analyze_survives_broken_estimator(self, monkeypatch):
        from repro.patterns.streaming import StreamingAccess

        def broken(self, geometry):
            raise ValueError("synthetic estimator failure")

        monkeypatch.setattr(StreamingAccess, "estimate_accesses", broken)
        analyzer = DVFAnalyzer(MachineModel.from_geometry(GEOMETRY))
        kernel = VectorMultiplyKernel()
        workload = Workload("tiny", {"n": 512})
        with pytest.raises(ValueError):
            analyzer.analyze(kernel, workload)
        report = analyzer.analyze(kernel, workload, sink=DiagnosticSink())
        assert set(report.degraded_structures) == {"A", "B", "C"}
        assert math.isfinite(report.dvf_application)
        assert any(d.code == "ASP304" for d in report.diagnostics)

    def test_non_finite_composite_value_reported_like_aspen(
        self, monkeypatch
    ):
        # The kernel model and the compiled Aspen model share one
        # evaluator, so a NaN from CG's access order is diagnosed alike.
        plain = CompositeAccessModel.estimate_by_structure

        def nan_for_p(self, geometry):
            return {**plain(self, geometry), "p": math.nan}

        monkeypatch.setattr(
            CompositeAccessModel, "estimate_by_structure", nan_for_p
        )
        analyzer = DVFAnalyzer(MachineModel.from_geometry(PAPER_CACHES["small"]))
        report = analyzer.analyze(
            KERNELS["CG"], TEST_WORKLOADS["CG"], sink=DiagnosticSink()
        )
        codes = [d.code for d in report.diagnostics]
        assert "ASP303" in codes
        assert report.degraded_structures == ("p",)
        assert math.isfinite(report.dvf_application)
        aspen = compile_source(
            builtin_source("CG", "test") + MACHINE_LIBRARY,
            machine="small",
            sink=DiagnosticSink(),
        ).report()
        assert [d.code for d in aspen.diagnostics] == codes
        assert aspen.degraded_structures == report.degraded_structures

    def test_lenient_validation_completes(self, monkeypatch):
        from repro.patterns.streaming import StreamingAccess

        def broken(self, geometry):
            raise ValueError("synthetic estimator failure")

        monkeypatch.setattr(StreamingAccess, "estimate_accesses", broken)
        kernel = VectorMultiplyKernel()
        workload = Workload("tiny", {"n": 256})
        with pytest.raises(ValueError):
            validate_kernel(kernel, workload, GEOMETRY)
        sink = DiagnosticSink()
        result = validate_kernel(
            kernel, workload, GEOMETRY, sink=sink
        )
        assert result.structures
        assert sink.has_errors

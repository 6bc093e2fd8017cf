"""Tests for the VM kernel."""

import numpy as np
import pytest

from repro.cachesim.configs import PAPER_CACHES
from repro.cachesim.simulator import simulate_trace
from repro.kernels.base import Workload
from repro.kernels.vector_multiply import VectorMultiplyKernel
from repro.trace.recorder import TraceRecorder


@pytest.fixture
def kernel():
    return VectorMultiplyKernel()


@pytest.fixture
def workload():
    return Workload("t", {"n": 200, "stride_a": 4, "stride_b": 1})


class TestStructure:
    def test_data_structures_scale_with_stride(self, kernel, workload):
        ds = kernel.data_structures(workload)
        assert ds["A"] == (800, 8)
        assert ds["B"] == (200, 8)
        assert ds["C"] == (200, 8)

    def test_working_set(self, kernel, workload):
        assert kernel.working_set_bytes(workload) == (800 + 200 + 200) * 8


class TestExecution:
    def test_computes_product(self, kernel, workload):
        rec = TraceRecorder()
        result = kernel.run_traced(workload, rec)
        assert result.shape == (200,)
        assert np.all(result != 0)

    def test_trace_reference_counts(self, kernel, workload):
        trace = kernel.trace(workload)
        # Per element: C read, A read, B read, C write.
        counts = {name: len(trace.filter_label(name)) for name in trace.labels}
        assert counts == {"A": 200, "B": 200, "C": 400}

    def test_trace_order_interleaved(self, kernel, workload):
        trace = kernel.trace(workload)
        first = [trace.labels[i] for i in trace.label_ids[:4]]
        assert first == ["C", "A", "B", "C"]

    def test_write_fraction(self, kernel, workload):
        trace = kernel.trace(workload)
        assert trace.write_fraction() == pytest.approx(0.25)

    def test_deterministic_given_seed(self, kernel, workload):
        a = kernel.run_traced(workload, TraceRecorder())
        b = kernel.run_traced(workload, TraceRecorder())
        assert np.array_equal(a, b)


class TestModel:
    @pytest.mark.parametrize("cache", ["small", "large"])
    def test_model_matches_simulator(self, kernel, workload, cache):
        geometry = PAPER_CACHES[cache]
        stats = simulate_trace(kernel.trace(workload), geometry)
        for name, estimate in kernel.estimate_nha(workload, geometry)[0].items():
            assert estimate == pytest.approx(stats.misses(name), rel=0.15)

    def test_a_has_larger_nha_than_b_and_c(self, kernel, workload):
        nha = kernel.estimate_nha(workload, PAPER_CACHES["small"])[0]
        assert nha["A"] > nha["B"]
        assert nha["A"] > nha["C"]

    def test_resource_counts(self, kernel, workload):
        res = kernel.resource_counts(workload)
        assert res.flops == 400
        assert res.bytes_moved == (3 + 1) * 8 * 200


class TestAspenForm:
    def test_aspen_source_compiles_to_same_nha(self, kernel, workload):
        from repro.aspen.compiler import compile_source
        from repro.core.machine import MachineModel

        machine = MachineModel.from_geometry(PAPER_CACHES["small"])
        compiled = compile_source(kernel.aspen_source(workload), machine=machine)
        direct = kernel.estimate_nha(workload, PAPER_CACHES["small"])[0]
        for name, value in compiled.nha_by_structure().items():
            assert value == pytest.approx(direct[name])

"""Tests for the MG and FT kernels."""

import numpy as np
import pytest

from repro.cachesim import PAPER_CACHES, simulate_trace
from repro.kernels import FFTKernel, MultigridKernel, Workload
from repro.kernels.fft import butterfly_indices, butterfly_writes
from repro.kernels.multigrid import smoother_indices
from repro.kernels.workloads import WORKLOAD_TIERS


class TestSmootherTemplate:
    def test_reference_group_structure(self):
        idx = smoother_indices(4, 4, 4)
        # (n3-2)*(n2-2)*n1 interior points x 5 refs each.
        assert len(idx) == 2 * 2 * 4 * 5

    def test_first_group_matches_paper_stencil(self):
        n = 8
        idx = smoother_indices(n, n, n)
        base = (1 * n + 1) * n + 0  # first interior point (1,1,0)
        assert list(idx[:5]) == [
            base - n,        # (1, 0, 0)
            base + n,        # (1, 2, 0)
            base - n * n,    # (0, 1, 0)
            base + n * n,    # (2, 1, 0)
            base,            # write (1,1,0)
        ]

    def test_indices_in_range(self):
        idx = smoother_indices(8, 8, 8)
        assert idx.min() >= 0 and idx.max() < 512


class TestMultigridKernel:
    @pytest.fixture
    def kernel(self):
        return MultigridKernel()

    def test_problem_classes(self, kernel):
        s = kernel.data_structures(Workload("t", {"problem_class": "S"}))
        w = kernel.data_structures(Workload("t", {"problem_class": "W"}))
        assert w["R"][0] > s["R"][0]

    def test_unknown_class_rejected(self, kernel):
        with pytest.raises(KeyError, match="unknown MG problem class"):
            kernel.data_structures(Workload("t", {"problem_class": "Z"}))

    def test_hierarchy_size(self, kernel):
        ds = kernel.data_structures(Workload("t", {"n": 16}))
        assert ds["R"][0] == 16**3 + 8**3 + 4**3

    def test_trace_only_r(self, kernel):
        trace = kernel.trace(Workload("t", {"n": 8}))
        assert trace.labels == ["R"]

    def test_smoother_relaxes_toward_neighbour_average(self, kernel):
        from repro.trace import TraceRecorder

        grid = kernel.run_traced(Workload("t", {"n": 8}), TraceRecorder())
        assert np.isfinite(grid).all()

    @pytest.mark.parametrize("cache", ["small", "large"])
    def test_model_matches_simulator(self, kernel, cache):
        workload = Workload("t", {"n": 8})
        geometry = PAPER_CACHES[cache]
        stats = simulate_trace(kernel.trace(workload), geometry)
        nha = kernel.estimate_nha(workload, geometry)
        # Tiny grids sit at the capacity knee on the small cache; allow
        # the paper's envelope plus boundary slack.
        assert nha["R"] == pytest.approx(stats.misses("R"), rel=0.25)

    def test_aspen_source_parses(self, kernel):
        from repro.aspen import MachineModel, compile_source

        machine = MachineModel.from_geometry(PAPER_CACHES["small"])
        compiled = compile_source(
            kernel.aspen_source(Workload("t", {"n": 8})), machine=machine
        )
        assert compiled.nha_by_structure()["R"] > 0


class TestButterflyTemplate:
    def test_template_length(self):
        n = 16
        idx = butterfly_indices(n)
        # log2(n) stages x n/2 butterflies x 4 refs.
        assert len(idx) == 4 * (n // 2) * int(np.log2(n))

    def test_first_stage_pairs_adjacent(self):
        idx = butterfly_indices(8)
        assert list(idx[:4]) == [0, 1, 0, 1]

    def test_last_stage_pairs_across_halves(self):
        n = 8
        idx = butterfly_indices(n)
        last_stage = idx[-4 * (n // 2):]
        assert list(last_stage[:4]) == [0, 4, 0, 4]

    def test_write_mask_alternates(self):
        writes = butterfly_writes(8)
        assert list(writes[:4]) == [False, False, True, True]
        assert len(writes) == len(butterfly_indices(8))


class TestFFTKernel:
    @pytest.fixture
    def kernel(self):
        return FFTKernel()

    def test_rejects_non_power_of_two(self, kernel):
        with pytest.raises(ValueError, match="power of two"):
            kernel.data_structures(Workload("t", {"n": 100}))

    def test_problem_classes(self, kernel):
        s = kernel.data_structures(Workload("t", {"problem_class": "S"}))
        assert s["X"] == (2048, 16)

    def test_fft_matches_numpy(self, kernel):
        from repro.trace import TraceRecorder

        workload = Workload("t", {"n": 64})
        result = kernel.run_traced(workload, TraceRecorder())
        rng = np.random.default_rng(0)
        data = rng.random(64) + 1j * rng.random(64)
        assert np.allclose(result, np.fft.fft(data))

    def test_trace_length(self, kernel):
        trace = kernel.trace(Workload("t", {"n": 64}))
        assert len(trace) == 4 * 32 * 6

    @pytest.mark.parametrize("cache", ["small", "large"])
    def test_model_matches_simulator(self, kernel, cache):
        workload = Workload("t", {"n": 512})
        geometry = PAPER_CACHES[cache]
        stats = simulate_trace(kernel.trace(workload), geometry)
        nha = kernel.estimate_nha(workload, geometry)
        assert nha["X"] == pytest.approx(stats.misses("X"), rel=0.15)

    def test_capacity_cliff(self, kernel):
        """Fits-in-cache -> compulsory only; too big -> per-stage reloads."""
        from repro.cachesim import CacheGeometry

        small = CacheGeometry(4, 32, 32)   # 4 KB
        workload = Workload("t", {"n": 1024})  # 16 KB of complex data
        resident = Workload("t", {"n": 128})   # 2 KB
        nha_thrash = kernel.estimate_nha(workload, small)["X"]
        nha_fit = kernel.estimate_nha(resident, small)["X"]
        assert nha_fit == 128 * 16 / 32  # compulsory only
        assert nha_thrash > 5 * (1024 * 16 / 32)

    def test_aspen_source_parses(self, kernel):
        from repro.aspen import MachineModel, compile_source

        machine = MachineModel.from_geometry(PAPER_CACHES["small"])
        compiled = compile_source(
            kernel.aspen_source(Workload("t", {"n": 256})), machine=machine
        )
        assert compiled.nha_by_structure()["X"] > 0

    @pytest.mark.parametrize("transforms", [1, 2, 3])
    @pytest.mark.parametrize("tier", sorted(WORKLOAD_TIERS))
    def test_aspen_source_matches_direct_model(self, kernel, tier, transforms):
        # The DSL's paired sweeps equal the butterfly template at these
        # sizes only; ``transforms`` repeats both.
        from repro.aspen import compile_source
        from repro.core import DVFAnalyzer, MachineModel

        def numbers(report):
            (x,) = report.structures
            return x.nha, report.time_seconds, report.dvf_application

        base = WORKLOAD_TIERS[tier]["FT"]
        workload = Workload(base.name, {**base.params, "transforms": transforms})
        source = kernel.aspen_source(workload)
        for cache in PAPER_CACHES.values():
            machine = MachineModel.from_geometry(cache)
            dsl = compile_source(source, machine=machine).report()
            direct = DVFAnalyzer(machine).analyze(kernel, workload)
            assert numbers(dsl) == numbers(direct), cache

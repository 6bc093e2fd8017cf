"""Tests for the CG/PCG kernel."""

import numpy as np
import pytest

from repro.cachesim.configs import PAPER_CACHES
from repro.cachesim.simulator import simulate_trace
from repro.experiments.configs import FIG6_SIZES
from repro.kernels.base import Workload
from repro.kernels.conjugate_gradient import (
    ConjugateGradientKernel,
    _apply_ic,
    build_system,
    incomplete_cholesky,
)


@pytest.fixture
def kernel():
    return ConjugateGradientKernel()


def wl(**params):
    params.setdefault("n", 100)
    params.setdefault("iterations", 2)
    return Workload("t", params)


class TestBuildSystem:
    def test_laplacian_is_spd(self):
        a, b = build_system(100)
        assert np.allclose(a, a.T)
        eigenvalues = np.linalg.eigvalsh(a)
        assert eigenvalues.min() > 0

    def test_laplacian_rounds_to_square(self):
        a, _ = build_system(110)  # g = round(sqrt(110)) = 10
        assert a.shape == (100, 100)

    def test_random_spd(self):
        a, _ = build_system(50, "random_spd")
        assert np.linalg.eigvalsh(a).min() > 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown system"):
            build_system(10, "magic")

    def test_deterministic(self):
        a1, b1 = build_system(64, seed=3)
        a2, b2 = build_system(64, seed=3)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


class TestIncompleteCholesky:
    def test_factor_is_lower_triangular(self):
        a, _ = build_system(49)
        l = incomplete_cholesky(a)
        assert np.allclose(l, np.tril(l))

    def test_factor_approximates_matrix(self):
        a, _ = build_system(49)
        l = incomplete_cholesky(a)
        rel = np.linalg.norm(l @ l.T - a) / np.linalg.norm(a)
        assert rel < 0.25

    def test_apply_solves_system(self):
        a, _ = build_system(49)
        l = incomplete_cholesky(a)
        rng = np.random.default_rng(0)
        r = rng.random(a.shape[0])
        z = _apply_ic(l, r)
        assert np.allclose(l @ (l.T @ z), r)

    def test_apply_none_is_identity(self):
        r = np.arange(4.0)
        assert _apply_ic(None, r) is r


class TestSolver:
    def test_cg_converges_to_solution(self, kernel):
        result = kernel.solve(wl(n=64))
        assert result.converged
        a, b = build_system(64)
        assert np.allclose(a @ result.x, b, atol=1e-6)

    def test_pcg_converges_to_same_solution(self, kernel):
        cg = kernel.solve(wl(n=64))
        pcg = kernel.solve(wl(n=64, variant="pcg"))
        assert pcg.converged
        assert np.allclose(cg.x, pcg.x, atol=1e-6)

    def test_pcg_needs_fewer_iterations(self, kernel):
        cg = kernel.solve(wl(n=144))
        pcg = kernel.solve(wl(n=144, variant="pcg"))
        assert pcg.iterations < cg.iterations

    def test_cg_iterations_grow_with_size(self, kernel):
        small = kernel.solve(wl(n=100))
        large = kernel.solve(wl(n=400))
        assert large.iterations > small.iterations

    def test_max_iterations_respected(self, kernel):
        result = kernel.solve(wl(n=100), max_iterations=2)
        assert result.iterations == 2
        assert not result.converged


class TestStructures:
    def test_cg_structures(self, kernel):
        ds = kernel.data_structures(wl(n=100))
        assert set(ds) == {"A", "x", "p", "r"}
        assert ds["A"] == (10000, 8)

    def test_pcg_adds_m_and_z(self, kernel):
        ds = kernel.data_structures(wl(n=100, variant="pcg"))
        assert set(ds) == {"A", "x", "p", "r", "M", "z"}
        assert ds["M"] == (10000, 8)


class TestTraceAndModel:
    def test_trace_labels(self, kernel):
        trace = kernel.trace(wl(n=49, iterations=1))
        assert set(trace.labels) == {"A", "x", "p", "r"}

    def test_pcg_trace_includes_preconditioner(self, kernel):
        trace = kernel.trace(wl(n=49, iterations=1, variant="pcg"))
        assert "M" in trace.labels and "z" in trace.labels

    def test_matvec_traffic_dominates(self, kernel):
        # The matvec interleaves A with p, so both see ~n^2 references
        # per iteration while r and x see only O(n).
        trace = kernel.trace(wl(n=49, iterations=2))
        counts = {name: len(trace.filter_label(name)) for name in trace.labels}
        assert counts["A"] > 10 * counts["r"]
        assert counts["p"] > 10 * counts["r"]
        assert counts["A"] == 2 * 49 * 49

    @pytest.mark.parametrize("cache", ["small", "large"])
    def test_matrix_model_accuracy(self, kernel, cache):
        workload = wl(n=100, iterations=2)
        geometry = PAPER_CACHES[cache]
        stats = simulate_trace(kernel.trace(workload), geometry)
        nha = kernel.estimate_nha(workload, geometry)[0]
        assert nha["A"] == pytest.approx(stats.misses("A"), rel=0.15)

    def test_vector_model_accuracy_small_cache(self, kernel):
        workload = wl(n=100, iterations=2)
        geometry = PAPER_CACHES["small"]
        stats = simulate_trace(kernel.trace(workload), geometry)
        nha = kernel.estimate_nha(workload, geometry)[0]
        for name in ("p", "r", "x"):
            assert nha[name] == pytest.approx(
                stats.misses(name), rel=0.25
            ), name

    def test_resource_counts_scale_with_iterations(self, kernel):
        one = kernel.resource_counts(wl(iterations=1))
        three = kernel.resource_counts(wl(iterations=3))
        assert three.flops == pytest.approx(3 * one.flops)

    def test_pcg_resources_exceed_cg(self, kernel):
        cg = kernel.resource_counts(wl(iterations=1))
        pcg = kernel.resource_counts(wl(iterations=1, variant="pcg"))
        assert pcg.flops > cg.flops
        assert pcg.bytes_moved > cg.bytes_moved

    def test_aspen_source_matches_direct_model(self, kernel):
        from repro.aspen.compiler import compile_source
        from repro.core.machine import MachineModel

        workload = wl(n=100, iterations=2)
        machine = MachineModel.from_geometry(PAPER_CACHES["small"])
        compiled = compile_source(
            kernel.aspen_source(workload), machine=machine
        )
        direct = kernel.estimate_nha(workload, PAPER_CACHES["small"])[0]
        for name, value in compiled.nha_by_structure().items():
            assert value == pytest.approx(direct[name], rel=1e-9)

    @pytest.mark.parametrize("n", FIG6_SIZES)
    def test_aspen_source_pcg_matches_direct_model(self, kernel, n):
        from repro.aspen.compiler import compile_source
        from repro.core.analyzer import DVFAnalyzer
        from repro.core.machine import MachineModel

        def numbers(report):
            nha = {s.name: s.nha for s in report.structures}
            return nha, report.time_seconds, report.dvf_application

        for iterations in (2, 3, 99):
            workload = wl(n=n, iterations=iterations, variant="pcg")
            source = kernel.aspen_source(workload)
            for cache in PAPER_CACHES.values():
                machine = MachineModel.from_geometry(cache)
                dsl = compile_source(source, machine=machine).report()
                direct = DVFAnalyzer(machine).analyze(kernel, workload)
                assert numbers(dsl) == numbers(direct), (iterations, cache)

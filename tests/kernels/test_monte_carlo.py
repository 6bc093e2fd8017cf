"""Tests for the Monte Carlo (XSBench-like) kernel."""

import numpy as np
import pytest

from repro.cachesim.configs import PAPER_CACHES
from repro.cachesim.simulator import simulate_trace
from repro.kernels.base import Workload
from repro.kernels.monte_carlo import MonteCarloKernel, _config, pivot_frequencies
from repro.kernels.workloads import TEST_WORKLOADS, VERIFICATION_WORKLOADS
from repro.trace.recorder import TraceRecorder


@pytest.fixture
def kernel():
    return MonteCarloKernel()


def reference_pivot_frequencies(grid: int) -> np.ndarray:
    """The per-interval stack walk ``pivot_frequencies`` replaced."""
    freqs = np.zeros(grid)
    # (lo, hi, probability mass of landing in this interval)
    stack = [(0, grid - 1, 1.0)]
    while stack:
        lo, hi, prob = stack.pop()
        if lo >= hi:
            continue
        mid = (lo + hi) // 2
        freqs[mid] = min(freqs[mid] + prob, 1.0)
        left_span = mid - lo + 1
        span = hi - lo + 1
        left_prob = prob * left_span / span
        stack.append((lo, mid, left_prob))
        stack.append((mid + 1, hi, prob - left_prob))
    return freqs


def reference_run_traced(workload: Workload, recorder: TraceRecorder) -> float:
    """The per-lookup loop ``MonteCarloKernel.run_traced`` replaced."""
    grid, nuclides, lookups = _config(workload)
    rng = np.random.default_rng(int(workload.get("seed", 0)))
    recorder.allocate("G", grid, 8)
    recorder.allocate("E", grid * nuclides, 8)
    energies = np.sort(rng.random(grid))
    xs = rng.random((grid, nuclides))
    recorder.record_elements("G", np.arange(grid, dtype=np.int64), True)
    recorder.record_elements("E", np.arange(grid * nuclides, dtype=np.int64), True)
    total = 0.0
    samples = rng.random(lookups)
    row_offsets = np.arange(nuclides, dtype=np.int64)
    for sample in samples:
        probes: list[int] = []
        lo, hi = 0, grid - 1
        while lo < hi:
            mid = (lo + hi) // 2
            probes.append(mid)
            if energies[mid] < sample:
                lo = mid + 1
            else:
                hi = mid
        recorder.record_elements("G", np.asarray(probes, dtype=np.int64), False)
        recorder.record_elements("E", lo * nuclides + row_offsets, False)
        total += float(xs[lo].sum())
    return total


def wl(**params):
    params.setdefault("grid_points", 1024)
    params.setdefault("nuclides", 8)
    params.setdefault("lookups", 100)
    return Workload("t", params)


class TestConfig:
    def test_presets(self, kernel):
        ds = kernel.data_structures(Workload("t", {"size": "small", "lookups": 1}))
        assert ds["G"][0] == 32768
        assert ds["E"][0] == 32768 * 32

    def test_unknown_preset(self, kernel):
        with pytest.raises(KeyError, match="unknown MC size"):
            kernel.data_structures(Workload("t", {"size": "huge", "lookups": 1}))

    def test_explicit_sizes(self, kernel):
        ds = kernel.data_structures(wl())
        assert ds["G"] == (1024, 8)
        assert ds["E"] == (8192, 8)


class TestPivotFrequencies:
    @pytest.mark.parametrize(
        "grid", [1, 2, 3, 4, 5, 17, 1000, 8192, 32768, 99991, 262144]
    )
    def test_bit_identical_to_stack_walk(self, grid):
        freqs = pivot_frequencies(grid)
        assert freqs.dtype == np.float64
        assert freqs.tobytes() == reference_pivot_frequencies(grid).tobytes()

    def test_root_pivot_always_probed(self):
        freqs = pivot_frequencies(1024)
        assert freqs.max() == 1.0

    def test_frequency_sum_is_probes_per_lookup(self):
        grid = 1024
        freqs = pivot_frequencies(grid)
        # One probe per level: about log2(grid) probes per lookup.
        assert freqs.sum() == pytest.approx(np.log2(grid), rel=0.1)

    def test_skewed_distribution(self):
        freqs = pivot_frequencies(1024)
        top = np.sort(freqs)[::-1]
        # The hottest 15 pivots take ~4 levels of the ~10 probes.
        assert top[:15].sum() > 3.5

    def test_frequencies_in_unit_interval(self):
        freqs = pivot_frequencies(512)
        assert (freqs >= 0).all() and (freqs <= 1.0).all()


class TestExecution:
    def test_lookup_sum_positive(self, kernel):
        from repro.trace.recorder import TraceRecorder

        total = kernel.run_traced(wl(), TraceRecorder())
        assert total > 0

    def test_trace_has_construction_plus_lookups(self, kernel):
        workload = wl(lookups=10)
        trace = kernel.trace(workload)
        # E: construction (grid*nuclides) + one row per lookup.
        assert len(trace.filter_label("E")) == 8192 + 10 * 8
        # G: construction + ~log2(grid) probes per lookup.
        assert len(trace.filter_label("G")) > 1024 + 10 * 5

    def test_deterministic(self, kernel):
        t1 = kernel.trace(wl(lookups=20))
        t2 = kernel.trace(wl(lookups=20))
        assert np.array_equal(t1.addresses, t2.addresses)


#: Workloads checked bit for bit against the per-lookup loop: both
#: paper-facing tiers, an odd size, and the degenerate edges.
LOOP_CASES = {
    "test": TEST_WORKLOADS["MC"],
    "verification": VERIFICATION_WORKLOADS["MC"],
    "odd": Workload(
        "t", {"grid_points": 1000, "nuclides": 3, "lookups": 257, "seed": 7}
    ),
    "grid1": wl(grid_points=1),
    "grid2": wl(grid_points=2),
    "nuclides1": wl(nuclides=1),
    "lookups0": wl(lookups=0),
}


class TestAgainstLoop:
    @pytest.mark.parametrize("case", sorted(LOOP_CASES))
    def test_trace_and_total_bit_identical(self, kernel, case):
        workload = LOOP_CASES[case]
        got_rec, want_rec = TraceRecorder(), TraceRecorder()
        total = kernel.run_traced(workload, got_rec)
        expected = reference_run_traced(workload, want_rec)
        assert isinstance(total, float)
        assert total.hex() == expected.hex()
        got, want = got_rec.finish(), want_rec.finish()
        assert got.labels == want.labels
        for column in ("addresses", "is_write", "label_ids", "element_sizes"):
            a, b = getattr(got, column), getattr(want, column)
            assert a.dtype == b.dtype, column
            assert a.tobytes() == b.tobytes(), column


class TestModel:
    @pytest.mark.parametrize("cache", ["small", "large"])
    def test_model_matches_simulator(self, kernel, cache):
        workload = wl(grid_points=8192, nuclides=16, lookups=100)
        geometry = PAPER_CACHES[cache]
        stats = simulate_trace(kernel.trace(workload), geometry)
        nha = kernel.estimate_nha(workload, geometry)[0]
        for name, estimate in nha.items():
            assert estimate == pytest.approx(
                stats.misses(name), rel=0.15
            ), name

    def test_cache_split_proportional_to_sizes(self, kernel):
        model = kernel.access_model(wl())
        # E is 8x bigger than G, so G gets 1/9 of the cache.
        assert model["G"].cache_ratio == pytest.approx(1 / 9)
        assert model["E"].cache_ratio == pytest.approx(8 / 9)

    def test_more_lookups_more_accesses_when_thrashing(self, kernel):
        geometry = PAPER_CACHES["small"]
        few = kernel.estimate_nha(wl(lookups=100), geometry)[0]
        many = kernel.estimate_nha(wl(lookups=10_000), geometry)[0]
        assert many["E"] > few["E"]

    def test_aspen_source_compiles(self, kernel):
        from repro.aspen.compiler import compile_source
        from repro.core.machine import MachineModel

        machine = MachineModel.from_geometry(PAPER_CACHES["small"])
        compiled = compile_source(kernel.aspen_source(wl()), machine=machine)
        nha = compiled.nha_by_structure()
        assert nha["G"] > 0 and nha["E"] > 0

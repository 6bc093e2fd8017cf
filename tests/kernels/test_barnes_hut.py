"""Tests for the Barnes-Hut N-body kernel."""

import numpy as np
import pytest
from barnes_hut_reference import _force_walk, _QuadTree

from repro.cachesim import PAPER_CACHES, simulate_trace
from repro.kernels import BarnesHutKernel, Workload
from repro.kernels.barnes_hut import _build_tree
from repro.trace import TraceRecorder


def pointer_tree_arrays(tree: _QuadTree) -> dict[str, np.ndarray]:
    """The reference tree's nodes as the array tree's fields."""
    nodes = tree.nodes
    return {
        "children": np.array([
            [-1 if c is None else c.index for c in node.children]
            for node in nodes
        ]),
        "body": np.array([-1 if node.body is None else node.body for node in nodes]),
        "mass": np.array([node.mass for node in nodes]),
        "comx": np.array([node.comx for node in nodes]),
        "comy": np.array([node.comy for node in nodes]),
        "half": np.array([node.half for node in nodes]),
    }


def assert_same_tree(tree, reference: _QuadTree) -> None:
    for name, expected in pointer_tree_arrays(reference).items():
        assert np.array_equal(getattr(tree, name), expected), name


@pytest.fixture
def kernel():
    return BarnesHutKernel()


@pytest.fixture
def workload():
    return Workload("t", {"n": 200, "theta": 0.5})


class TestQuadTree:
    def _build(self, n, seed=0):
        rng = np.random.default_rng(seed)
        positions = rng.random((n, 2))
        masses = np.ones(n)
        return _build_tree(positions, masses), positions, masses

    def test_every_body_in_a_leaf(self):
        tree, _, _ = self._build(50)
        bodies = tree.body[tree.body >= 0]
        assert sorted(bodies) == list(range(50))
        assert tree.is_leaf[tree.body >= 0].all()

    def test_total_mass_conserved(self):
        tree, _, masses = self._build(50)
        assert tree.mass[0] == pytest.approx(masses.sum())

    def test_center_of_mass_matches(self):
        tree, positions, masses = self._build(50)
        com = (positions * masses[:, None]).sum(axis=0) / masses.sum()
        assert tree.comx[0] == pytest.approx(com[0])
        assert tree.comy[0] == pytest.approx(com[1])

    def test_node_count_linear_in_bodies(self):
        small, _, _ = self._build(100)
        large, _, _ = self._build(400)
        assert len(large) > len(small)
        assert len(large) < 10 * 400  # sane bound

    def test_coincident_bodies_rejected(self):
        """Regression: the pointer tree overwrote one of two equal bodies.

        Past depth 64 its ``insert`` replaced the resident body, so body
        0 sat in no leaf and the root weighed 2.0 instead of 3.0.
        """
        positions = np.array([[0.3, 0.3], [0.3, 0.3], [0.7, 0.2]])
        with pytest.raises(ValueError, match=r"bodies 0 and 1 share every"):
            _build_tree(positions, np.ones(3))

    def test_split_at_depth_52_matches_reference(self):
        """Bodies one ulp apart still get the pointer tree's node numbering.

        Past depth 52 the pointer tree's cell centres in [0.5, 1) need
        more than 53 bits and round, so its quadrant choices stop being
        the exact dyadic ones; seeded workloads never get that deep (two
        uniform doubles would have to agree in all but their last bit,
        in both coordinates).
        """
        x = 0.3
        positions = np.array([[x, x], [np.nextafter(x, 1.0), x], [0.7, 0.2]])
        tree = _build_tree(positions, np.ones(3))
        assert tree.depth.max() == 52
        reference = _QuadTree()
        reference.build(positions, np.ones(3))
        assert_same_tree(tree, reference)

    def test_bodies_split_below_depth_52_kept(self):
        positions = np.array([[0.7, 0.2], [0.7, np.nextafter(0.2, 0.0)], [0.3, 0.3]])
        tree = _build_tree(positions, np.ones(3))
        assert tree.depth.max() > 52
        assert sorted(tree.body[tree.body >= 0]) == [0, 1, 2]
        assert tree.mass[0] == 3.0

    @pytest.mark.parametrize("bad", [1.0, -0.25, np.nan])
    def test_positions_outside_unit_square_rejected(self, bad):
        positions = np.array([[0.5, 0.5], [bad, 0.1]])
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            _build_tree(positions, np.ones(2))


#: (n, theta, seed) cases checked bit for bit against the sequential
#: reference; theta -> 0 opens every internal node (the direct sum).
DIFFERENTIAL_CASES = [
    (n, theta, seed)
    for n, theta in [
        *((n, theta) for n in (1, 2, 50, 300, 1000) for theta in (0.5, 1.0)),
        (200, 1e-9),
    ]
    for seed in (0, 7)
]


@pytest.fixture(
    scope="module",
    params=DIFFERENTIAL_CASES,
    ids=[f"n{n}-theta{theta:g}-seed{seed}" for n, theta, seed in DIFFERENTIAL_CASES],
)
def reference(request):
    """The sequential tree, its visit counts, forces and trace."""
    n, theta, seed = request.param
    workload = Workload("t", {"n": n, "theta": theta, "seed": seed})
    rng = np.random.default_rng(seed)
    positions = rng.random((n, 2))
    masses = rng.random(n) + 0.1
    tree = _QuadTree()
    tree.build(positions, masses)
    recorder = TraceRecorder()
    recorder.allocate("T", len(tree.nodes), 32)
    recorder.allocate("P", n, 32)
    recorder.record_elements("T", np.arange(len(tree.nodes)), True)
    recorder.record_elements("P", np.arange(n), True)
    counts = np.zeros(len(tree.nodes), dtype=np.int64)
    forces = np.zeros((n, 2))
    for body in range(n):
        visits: list[int] = []
        forces[body] = _force_walk(tree, positions, body, theta, visits.append)
        counts[visits] += 1
        recorder.record_elements("P", np.array([body]), False)
        recorder.record_elements("T", np.asarray(visits, dtype=np.int64), False)
    return workload, tree, counts / n, forces, recorder.finish()


class TestDifferential:
    """The array tree and frontier walk against the pointer tree and stack walk."""

    def test_node_arrays(self, kernel, reference):
        workload, pointer_tree, _, _, _ = reference
        tree, _, _ = kernel._build(workload)
        assert_same_tree(tree, pointer_tree)

    def test_profile_frequencies(self, kernel, reference):
        workload, _, freqs, _, _ = reference
        assert np.array_equal(kernel.profile_frequencies(workload), freqs)

    def test_trace(self, kernel, reference):
        workload, _, _, _, expected = reference
        trace = kernel.trace(workload)
        assert trace.labels == expected.labels
        for column in ("addresses", "sizes", "is_write", "label_ids"):
            assert np.array_equal(
                getattr(trace, column), getattr(expected, column)
            ), column

    def test_forces(self, kernel, reference):
        workload, _, _, forces, _ = reference
        assert np.array_equal(kernel.run_traced(workload, TraceRecorder()), forces)


class TestForces:
    def test_forces_match_direct_sum_loosely(self, kernel):
        """theta -> 0 degenerates to the exact O(N^2) direct sum."""
        n = 60
        workload = Workload("t", {"n": n, "theta": 1e-9})
        forces = kernel.run_traced(workload, TraceRecorder())
        rng = np.random.default_rng(0)
        positions = rng.random((n, 2))
        masses = rng.random(n) + 0.1
        direct = np.zeros((n, 2))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                d = positions[j] - positions[i]
                dist2 = float(d @ d) + 1e-9
                direct[i] += masses[j] * d / (dist2 * np.sqrt(dist2))
        assert np.allclose(forces, direct, rtol=1e-6, atol=1e-6)

    def test_larger_theta_visits_fewer_nodes(self, kernel):
        tight = kernel.profile_k(Workload("t", {"n": 200, "theta": 0.1}))
        loose = kernel.profile_k(Workload("t", {"n": 200, "theta": 1.0}))
        assert loose < tight


class TestProfiling:
    def test_frequencies_are_probabilities(self, kernel, workload):
        freqs = kernel.profile_frequencies(workload)
        assert (freqs >= 0).all() and (freqs <= 1).all()

    def test_root_visited_by_every_walk(self, kernel, workload):
        freqs = kernel.profile_frequencies(workload)
        assert freqs[0] == 1.0  # node 0 is the root

    def test_k_is_frequency_sum(self, kernel, workload):
        freqs = kernel.profile_frequencies(workload)
        assert kernel.profile_k(workload) == pytest.approx(freqs.sum())

    def test_frequencies_memoised(self, kernel, workload):
        a = kernel.profile_frequencies(workload)
        b = kernel.profile_frequencies(workload)
        assert a is b

    def test_memoised_frequencies_are_read_only(self, kernel, workload):
        # One array serves every later caller in the process (every NB
        # job a service worker runs): a write must not get through.
        freqs = kernel.profile_frequencies(workload)
        before = freqs.copy()
        with pytest.raises(ValueError):
            freqs[0] = 0.0
        again = kernel.profile_frequencies(workload)
        assert again is freqs
        assert np.array_equal(again, before)


class TestTraceAndModel:
    def test_trace_structures(self, kernel, workload):
        trace = kernel.trace(workload)
        assert set(trace.labels) == {"T", "P"}

    def test_construction_phase_recorded(self, kernel, workload):
        trace = kernel.trace(workload)
        nodes = kernel.tree_size(workload)
        # At least one full write pass over the tree (construction).
        sub = trace.filter_label("T")
        writes = int(np.count_nonzero(sub.is_write))
        assert writes == nodes

    @pytest.mark.parametrize("cache", ["small", "large"])
    def test_model_matches_simulator(self, kernel, workload, cache):
        geometry = PAPER_CACHES[cache]
        stats = simulate_trace(kernel.trace(workload), geometry)
        nha = kernel.estimate_nha(workload, geometry)
        for name, estimate in nha.items():
            assert estimate == pytest.approx(
                stats.misses(name), rel=0.15
            ), name

    def test_workload_k_override_used(self, kernel):
        # With an explicit k the expensive profiling run is skipped for
        # resource counts.
        workload = Workload("t", {"n": 200, "k": 42.0})
        resources = kernel.resource_counts(workload)
        assert resources.flops == pytest.approx(12 * 42.0 * 200)

"""The template estimator against its per-element reference loops.

``TemplateAccess`` builds its block template with vectorised numpy and
runs its default walk on ``ArrayLRUEngine``, replaying each repeated
phase twice with weighted misses.  ``template_reference`` keeps the
per-element loop and the ``OrderedDict`` set-associative LRU they
replaced, walked over the fully expanded stream; every block array and
miss count must be equal.
"""

import numpy as np
import pytest
from template_reference import (
    block_template,
    set_associative_lru_misses,
    template_misses,
)

from repro.aspen.builtin import MACHINE_LIBRARY, builtin_source
from repro.aspen.compiler import compile_source
from repro.cachesim.configs import PAPER_CACHES, CacheGeometry
from repro.cachesim.engine import CHUNK_SIZE
from repro.kernels.registry import KERNELS
from repro.kernels.workloads import PROFILING_WORKLOADS, TEST_WORKLOADS
from repro.patterns.base import PatternError
from repro.patterns.template import Repeat, SweepTemplate, TemplateAccess, expand_sweep


def _line_template(stream, geometry, repeats=1):
    """A template whose block ids are ``stream`` itself (one line per element)."""
    return TemplateAccess(geometry.line_size, stream, repeats=repeats)


class TestEngineWalk:
    @pytest.mark.parametrize(
        "ways,num_sets",
        [(4, 64), (1, 16), (2, 3), (3, 48), (8, 1), (2, 1024)],
        ids=["4x64", "direct-mapped", "3-sets", "48-sets", "one-set", "1024-sets"],
    )
    @pytest.mark.parametrize("repeats", [1, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_streams(self, ways, num_sets, repeats, seed):
        geometry = CacheGeometry(ways, num_sets, 32)
        rng = np.random.default_rng(seed)
        # Runs of repeated blocks over about twice the cache's blocks:
        # hits, capacity and conflict misses all occur.
        blocks = rng.integers(0, 2 * geometry.num_blocks + 5, size=3000)
        stream = np.repeat(blocks, rng.integers(1, 4, size=blocks.size))
        pattern = _line_template(stream, geometry, repeats)
        expected = set_associative_lru_misses(
            np.tile(stream, repeats), num_sets, ways
        )
        assert pattern.estimate_accesses(geometry) == expected

    def test_stream_longer_than_a_chunk(self):
        geometry = CacheGeometry(4, 48, 64)
        rng = np.random.default_rng(7)
        stream = rng.integers(0, 400, size=CHUNK_SIZE + 1001)
        pattern = _line_template(stream, geometry)
        expected = set_associative_lru_misses(stream, 48, 4)
        assert pattern.estimate_accesses(geometry) == expected

    @pytest.mark.parametrize("cache", sorted(PAPER_CACHES))
    @pytest.mark.parametrize("tier", ["test", "profiling"])
    @pytest.mark.parametrize("kernel", ["MG", "FT"])
    def test_kernel_templates(self, kernel, tier, cache):
        workloads = {"test": TEST_WORKLOADS, "profiling": PROFILING_WORKLOADS}
        geometry = PAPER_CACHES[cache]
        model = KERNELS[kernel].access_model(workloads[tier][kernel])
        (pattern,) = model.values()
        assert isinstance(pattern, TemplateAccess)
        assert pattern.estimate_accesses(geometry) == template_misses(
            pattern, geometry
        )


def _random_phases(rng, num_blocks):
    """A random template of indices, sweeps and ``Repeat`` items.

    Returns ``(items, flat)``: the template and the same template
    written out flat, built independently of ``TemplateAccess``.
    """
    high = 2 * num_blocks + 5

    def plain():
        if rng.random() < 0.3:
            start = int(rng.integers(0, high // 2))
            length = int(rng.integers(1, high // 2))
            sweep = SweepTemplate(start=(start,), step=1, end=(start + length,))
            return sweep, list(range(start, start + length + 1))
        indices = rng.integers(0, high, size=int(rng.integers(1, 200)))
        return indices.tolist(), indices.tolist()

    items, flat = [], []
    for _ in range(int(rng.integers(1, 6))):
        part, expanded = plain()
        if rng.random() < 0.6:
            # The part as written, or as an array like MG's levels.
            if rng.random() < 0.5:
                part = np.asarray(expanded)
            times = int(rng.integers(1, 6))
            items.append(Repeat(part, times))
            flat += expanded * times
        elif isinstance(part, SweepTemplate):
            items.append(part)
            flat += expanded
        else:
            items += part
            flat += expanded
    return items, flat


class TestRepeatedPhases:
    """``Repeat`` phases and ``repeats`` walk two passes, not all of them."""

    @pytest.mark.parametrize(
        "ways,num_sets",
        [(8, 1), (1, 16), (2, 3), (4, 64)],
        ids=["one-set", "direct-mapped", "3-sets", "4x64"],
    )
    @pytest.mark.parametrize("batch", range(4))
    def test_random_phase_lists(self, ways, num_sets, batch):
        # 4 geometries x 4 batches x 25 cases: 400 random templates.
        geometry = CacheGeometry(ways, num_sets, 32)
        for case in range(25):
            rng = np.random.default_rng([ways, num_sets, batch, case])
            items, flat = _random_phases(rng, geometry.num_blocks)
            repeats = int(rng.integers(1, 5))
            element_size = int(rng.choice([16, 32, 48]))
            pattern = TemplateAccess(element_size, items, repeats=repeats)
            blocks = block_template(np.asarray(flat), element_size, 32)
            expected = set_associative_lru_misses(
                np.tile(blocks, repeats), num_sets, ways
            )
            assert pattern.estimate_accesses(geometry) == expected, case

    @pytest.mark.parametrize("cache", sorted(PAPER_CACHES))
    @pytest.mark.parametrize("tier", ["test", "profiling"])
    @pytest.mark.parametrize("kernel,structure", [("MG", "R"), ("FT", "X")])
    def test_builtin_aspen_templates(self, kernel, structure, tier, cache):
        compiled = compile_source(
            builtin_source(kernel, tier) + MACHINE_LIBRARY, machine="small"
        )
        pattern = compiled.patterns[structure]
        assert isinstance(pattern, TemplateAccess)
        geometry = PAPER_CACHES[cache]
        assert pattern.estimate_accesses(geometry) == template_misses(
            pattern, geometry
        )

    @pytest.mark.parametrize("times", [0, -1, 2.0])
    def test_bad_repeat_count_rejected(self, times):
        with pytest.raises(PatternError, match="repeat count"):
            Repeat([0, 1], times)

    @pytest.mark.parametrize("line_size", [8, 32, 64])
    def test_same_template_as_written_out_flat(self, line_size):
        sweep = SweepTemplate(start=(0, 40), step=2, end=(20, 60))
        items = [7, 3, Repeat([5, 6, 5], 3), sweep,
                 Repeat(Repeat(sweep, 2), 2), 9]
        flat = [7, 3] + [5, 6, 5] * 3 + expand_sweep(sweep).tolist() * 5 + [9]
        geometry = CacheGeometry(2, 4, line_size)
        phased = TemplateAccess(24, items, repeats=3)
        written = TemplateAccess(24, flat, repeats=3)
        np.testing.assert_array_equal(
            phased.element_indices, written.element_indices
        )
        np.testing.assert_array_equal(
            phased.block_template(geometry), written.block_template(geometry)
        )
        assert phased.min_accesses(geometry) == written.min_accesses(geometry)
        assert phased.max_accesses(geometry) == written.max_accesses(geometry)
        assert phased.estimate_accesses(geometry) == written.estimate_accesses(
            geometry
        )


class TestBlockTemplate:
    @pytest.mark.parametrize("element_size", [1, 3, 8, 16, 24, 64, 100])
    @pytest.mark.parametrize("line_size", [8, 16, 32, 64])
    def test_matches_per_element_loop(self, element_size, line_size):
        rng = np.random.default_rng(element_size * 100 + line_size)
        indices = rng.integers(0, 500, size=300)
        pattern = TemplateAccess(element_size, indices)
        blocks = pattern.block_template(CacheGeometry(2, 4, line_size))
        expected = block_template(indices, element_size, line_size)
        assert blocks.dtype == np.int64
        np.testing.assert_array_equal(blocks, expected)

    def test_memoised_read_only_per_line_size(self):
        pattern = TemplateAccess(16, [0, 5, 2, 5])
        narrow = CacheGeometry(2, 4, 8)
        first = pattern.block_template(narrow)
        assert pattern.block_template(CacheGeometry(4, 16, 8)) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1
        wide = pattern.block_template(CacheGeometry(2, 4, 64))
        assert wide is not first
        assert list(first) == [0, 1, 10, 11, 4, 5, 10, 11]
        assert list(wide) == [0, 1, 0, 1]

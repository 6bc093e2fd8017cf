"""The template estimator against its per-element reference loops.

``TemplateAccess`` builds its block template with vectorised numpy and
runs its default walk on ``ArrayLRUEngine``.  ``template_reference``
keeps the per-element loop and the ``OrderedDict`` set-associative LRU
they replaced; every block array and miss count must be equal.
"""

import numpy as np
import pytest
from template_reference import (
    block_template,
    set_associative_lru_misses,
    template_misses,
)

from repro.cachesim import PAPER_CACHES, CacheGeometry
from repro.cachesim.engine import DEFAULT_CHUNK_SIZE
from repro.kernels import KERNELS, PROFILING_WORKLOADS, TEST_WORKLOADS
from repro.patterns import TemplateAccess


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
        stream = rng.integers(0, 400, size=DEFAULT_CHUNK_SIZE + 1001)
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

"""Persistent trace-cache behaviour: hits, misses, invalidation, decay.

The cache key covers kernel name/class, canonicalised workload params,
trace schema version, and a kernel-source fingerprint — so every test
here is really a statement about *when a cached trace may be reused*.
"""

import importlib.util
import inspect
import json
import sys

import numpy as np
import pytest

import repro.trace.cache as cache_mod
from repro.kernels.base import Workload
from repro.kernels.registry import KERNELS
from repro.trace import TraceCache
from repro.trace.cache import (
    as_trace_cache,
    canonical_params,
    kernel_fingerprint,
    trace_key,
)


@pytest.fixture
def kernel():
    return KERNELS["VM"]


@pytest.fixture
def workload():
    return Workload("t", {"n": 64})


def traces_equal(a, b):
    return (
        np.array_equal(a.addresses, b.addresses)
        and np.array_equal(a.sizes, b.sizes)
        and np.array_equal(a.is_write, b.is_write)
        and np.array_equal(a.label_ids, b.label_ids)
        and a.labels == b.labels
    )


class TestHitMiss:
    def test_miss_then_hit(self, tmp_path, kernel, workload):
        cache = TraceCache(tmp_path)
        assert cache.get(kernel, workload) is None
        assert cache.misses == 1
        trace = kernel.trace(workload)
        cache.put(kernel, workload, trace)
        cached = cache.get(kernel, workload)
        assert cached is not None and traces_equal(cached, trace)
        assert (cache.hits, cache.stores) == (1, 1)

    def test_get_or_trace_collects_once(self, tmp_path, kernel, workload):
        cache = TraceCache(tmp_path)
        first = cache.get_or_trace(kernel, workload)
        second = cache.get_or_trace(kernel, workload)
        assert traces_equal(first, second)
        assert cache.misses == 1 and cache.hits == 1 and len(cache) == 1

    def test_kernel_trace_cache_param_accepts_path(
        self, tmp_path, kernel, workload
    ):
        # Kernel.trace(cache=<path>) builds the TraceCache transparently.
        t1 = kernel.trace(workload, cache=tmp_path)
        t2 = kernel.trace(workload, cache=tmp_path)
        assert traces_equal(t1, t2)
        assert len(TraceCache(tmp_path)) == 1

    def test_repeat_hits_reuse_the_decoded_trace(
        self, tmp_path, kernel, workload
    ):
        # Within one instance, the archive is decoded once; later hits
        # return the memoized trace (a fig4 sweep looks each workload
        # up once per cache geometry).
        cache = TraceCache(tmp_path)
        cache.put(kernel, workload, kernel.trace(workload))
        fresh = TraceCache(tmp_path)
        assert fresh.get(kernel, workload) is fresh.get(kernel, workload)
        assert fresh.hits == 2

    def test_param_change_misses(self, tmp_path, kernel):
        cache = TraceCache(tmp_path)
        cache.put(kernel, Workload("a", {"n": 64}), kernel.trace(Workload("a", {"n": 64})))
        assert cache.get(kernel, Workload("b", {"n": 65})) is None

    def test_workload_name_is_not_part_of_the_key(self, tmp_path, kernel):
        # Traces depend on parameters only; tier names are aliases.
        cache = TraceCache(tmp_path)
        w1, w2 = Workload("tier-a", {"n": 64}), Workload("tier-b", {"n": 64})
        cache.put(kernel, w1, kernel.trace(w1))
        assert cache.get(kernel, w2) is not None

    def test_schema_bump_misses(self, tmp_path, kernel, workload, monkeypatch):
        cache = TraceCache(tmp_path)
        cache.put(kernel, workload, kernel.trace(workload))
        monkeypatch.setattr(cache_mod, "TRACE_SCHEMA_VERSION", 999)
        assert cache.get(kernel, workload) is None

    def test_fingerprint_change_misses(
        self, tmp_path, kernel, workload, monkeypatch
    ):
        cache = TraceCache(tmp_path)
        cache.put(kernel, workload, kernel.trace(workload))
        monkeypatch.setattr(
            cache_mod, "kernel_fingerprint", lambda k: "0" * 16
        )
        assert cache.get(kernel, workload) is None


class TestKeying:
    def test_canonical_params_is_order_insensitive(self):
        assert canonical_params({"a": 1, "b": 2}) == canonical_params(
            {"b": 2, "a": 1}
        )

    def test_canonical_params_unwraps_numpy_scalars(self):
        assert canonical_params({"n": np.int64(5)}) == canonical_params(
            {"n": 5}
        )

    def test_key_differs_across_kernels(self, workload):
        assert trace_key(KERNELS["VM"], workload) != trace_key(
            KERNELS["CG"], workload
        )

    def test_fingerprint_is_stable(self, kernel):
        assert kernel_fingerprint(kernel) == kernel_fingerprint(kernel)

    def test_fingerprint_covers_module_level_code(self, tmp_path, monkeypatch):
        # Identical class bodies, different module-level helpers: the
        # helper is part of the kernel's behaviour, so of its key.
        kernels = []
        for name, value in (("fp_kernel_a", 1), ("fp_kernel_b", 2)):
            path = tmp_path / f"{name}.py"
            path.write_text(
                f"def _helper():\n    return {value}\n\n\n"
                "class Kern:\n    def run(self):\n        return _helper()\n"
            )
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            monkeypatch.setitem(sys.modules, name, module)
            spec.loader.exec_module(module)
            kernels.append(module.Kern())
        a, b = (type(k) for k in kernels)
        assert inspect.getsource(a) == inspect.getsource(b)
        assert kernel_fingerprint(kernels[0]) != kernel_fingerprint(kernels[1])


class TestRecovery:
    def test_corrupted_index_rebuilds_from_archives(
        self, tmp_path, kernel, workload
    ):
        cache = TraceCache(tmp_path)
        cache.put(kernel, workload, kernel.trace(workload))
        (tmp_path / "index.json").write_text("{ not json")
        fresh = TraceCache(tmp_path)
        assert len(fresh) == 1
        assert fresh.get(kernel, workload) is not None

    def test_missing_index_key_rebuilds(self, tmp_path, kernel, workload):
        cache = TraceCache(tmp_path)
        cache.put(kernel, workload, kernel.trace(workload))
        (tmp_path / "index.json").write_text(json.dumps({"version": 1}))
        assert TraceCache(tmp_path).get(kernel, workload) is not None

    def test_corrupt_archive_is_dropped_and_missed(
        self, tmp_path, kernel, workload
    ):
        path = TraceCache(tmp_path).put(kernel, workload, kernel.trace(workload))
        path.write_bytes(b"not an npz archive")
        # A fresh instance (fresh process) sees only the disk artifact.
        cache = TraceCache(tmp_path)
        assert cache.get(kernel, workload) is None
        assert not path.exists()
        assert len(cache) == 0

    def test_index_entry_without_file_is_a_miss(
        self, tmp_path, kernel, workload
    ):
        cache = TraceCache(tmp_path)
        path = cache.put(kernel, workload, kernel.trace(workload))
        path.unlink()
        assert cache.get(kernel, workload) is None


class TestEvictionInvalidation:
    def test_lru_size_cap_evicts_oldest(self, tmp_path, kernel):
        workloads = [Workload("t", {"n": n}) for n in (32, 48, 64)]
        traces = [kernel.trace(w) for w in workloads]
        one_size = None
        probe = TraceCache(tmp_path / "probe")
        probe.put(kernel, workloads[0], traces[0])
        one_size = probe.total_bytes()
        # Cap to roughly two artifacts; storing the third must evict
        # the least recently used one.
        cache = TraceCache(tmp_path / "capped", max_bytes=int(one_size * 2.5))
        cache.put(kernel, workloads[0], traces[0])
        cache.put(kernel, workloads[1], traces[1])
        assert cache.get(kernel, workloads[0]) is not None  # refresh 0
        cache.put(kernel, workloads[2], traces[2])
        assert cache.evictions >= 1
        assert cache.get(kernel, workloads[1]) is None  # 1 was the LRU
        assert cache.get(kernel, workloads[0]) is not None
        assert cache.get(kernel, workloads[2]) is not None

    def test_never_evicts_entry_just_written(self, tmp_path, kernel, workload):
        cache = TraceCache(tmp_path, max_bytes=1)  # below any artifact
        cache.put(kernel, workload, kernel.trace(workload))
        assert cache.get(kernel, workload) is not None

    def test_invalidate(self, tmp_path, kernel, workload):
        cache = TraceCache(tmp_path)
        cache.put(kernel, workload, kernel.trace(workload))
        assert cache.invalidate(kernel, workload) is True
        assert cache.get(kernel, workload) is None
        assert cache.invalidate(kernel, workload) is False

    def test_clear(self, tmp_path, kernel, workload):
        cache = TraceCache(tmp_path)
        cache.put(kernel, workload, kernel.trace(workload))
        assert cache.clear() == 1
        assert len(cache) == 0 and cache.total_bytes() == 0

    def test_negative_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            TraceCache(tmp_path, max_bytes=-1)


class TestCoercion:
    def test_as_trace_cache_passthrough_and_paths(self, tmp_path):
        cache = TraceCache(tmp_path)
        assert as_trace_cache(cache) is cache
        assert as_trace_cache(None) is None
        built = as_trace_cache(str(tmp_path))
        assert isinstance(built, TraceCache)
        assert built.root == cache.root


# ----------------------------------------------------------------------
# cross-process locking
# ----------------------------------------------------------------------
def _hammer_cache(root, max_bytes, offset, iterations, sizes):
    """Worker: interleave get/put/invalidate against a shared cache."""
    cache = TraceCache(root, max_bytes=max_bytes)
    kernel = KERNELS["VM"]
    for i in range(iterations):
        workload = Workload("t", {"n": sizes[(offset + i) % len(sizes)]})
        if cache.get(kernel, workload) is None:
            cache.put(kernel, workload, kernel.trace(workload))
        if i % 5 == 4:
            cache.invalidate(kernel, workload)


class TestCrossProcessLocking:
    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_two_processes_sharing_one_cache(self, tmp_path, kernel):
        """Regression: concurrent index read-modify-write must not lose
        entries, crash on already-evicted archives, or leave the index
        pointing at files that are gone.

        The size cap is tuned so both workers evict constantly — each
        races to delete archives the other may just have indexed, which
        without the advisory lock intermittently raised
        ``FileNotFoundError`` out of the rebuild path and dropped
        freshly-stored entries from the index.
        """
        import multiprocessing

        one_trace = kernel.trace(Workload("t", {"n": 64}))
        cache = TraceCache(tmp_path)
        artifact = cache.put(kernel, Workload("t", {"n": 64}), one_trace)
        max_bytes = 3 * artifact.stat().st_size  # forces steady eviction
        cache.invalidate(kernel, Workload("t", {"n": 64}))

        ctx = multiprocessing.get_context("fork")
        sizes = (48, 56, 64, 72, 80, 88)
        workers = [
            ctx.Process(
                target=_hammer_cache,
                args=(tmp_path, max_bytes, offset, 20, sizes),
            )
            for offset in (0, 3)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(120)
        assert all(proc.exitcode == 0 for proc in workers), [
            proc.exitcode for proc in workers
        ]

        # Post-conditions: index parses, and index <-> disk agree.
        index = json.loads((tmp_path / "index.json").read_text())
        listed = {entry["file"] for entry in index["entries"].values()}
        on_disk = {
            path.name
            for path in tmp_path.glob("*.npz")
            if not path.name.endswith(".tmp.npz")
        }
        assert listed == on_disk
        assert not list(tmp_path.glob("*.tmp.npz"))
        # And the cache is still fully usable afterwards.
        survivor = TraceCache(tmp_path)
        workload = Workload("t", {"n": 96})
        survivor.put(kernel, workload, kernel.trace(workload))
        assert survivor.get(kernel, workload) is not None

"""Persistent trace-cache behaviour: hits, misses, invalidation, recovery.

The cache key covers kernel name/class, canonicalised workload params,
trace schema version, and a kernel-source fingerprint — so every test
here is really a statement about *when a cached trace may be reused*.
"""

import errno
import importlib.util
import inspect
import sys
import zipfile

import numpy as np
import pytest

import repro.trace.cache as cache_mod
from repro.kernels.base import Workload
from repro.kernels.registry import KERNELS
from repro.kernels.workloads import TEST_WORKLOADS
from repro.trace.cache import TraceCache, as_trace_cache, kernel_fingerprint, trace_key
from repro.trace.io import load_trace, save_trace
from repro.trace.reference import PeriodicTrace

from test_recorder import huge_header, rewrite_members


@pytest.fixture
def kernel():
    return KERNELS["VM"]


@pytest.fixture
def workload():
    return Workload("t", {"n": 64})


def archives(root):
    """The stored trace archives under ``root`` (temp files excluded)."""
    return sorted(
        path for path in root.glob("*.npz")
        if not path.name.endswith(".tmp.npz")
    )


def traces_equal(a, b):
    """Whether two traces stand for the same whole sequence.

    Cache entries are :class:`PeriodicTrace` objects; compare what they
    stand for.
    """
    a, b = (t.whole() if isinstance(t, PeriodicTrace) else t for t in (a, b))
    return (
        np.array_equal(a.addresses, b.addresses)
        and np.array_equal(a.element_sizes, b.element_sizes)
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
        assert cache.misses == 1 and cache.hits == 1
        assert len(archives(tmp_path)) == 1

    def test_kernel_trace_cache_param_accepts_path(
        self, tmp_path, kernel, workload
    ):
        # Kernel.trace(cache=<path>) builds the TraceCache transparently.
        t1 = kernel.trace(workload, cache=tmp_path)
        t2 = kernel.trace(workload, cache=tmp_path)
        assert traces_equal(t1, t2)
        assert len(archives(tmp_path)) == 1

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

    def test_hit_writes_nothing(self, tmp_path, kernel, workload):
        # A hit from a fresh instance (a new process) only reads: the
        # directory holds the same files with the same bytes afterwards.
        TraceCache(tmp_path).put(kernel, workload, kernel.trace(workload))

        def snapshot():
            return {path.name: path.read_bytes() for path in tmp_path.iterdir()}

        before = snapshot()
        assert TraceCache(tmp_path).get(kernel, workload) is not None
        assert snapshot() == before

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
    def test_canonical_params_is_order_insensitive(self, kernel):
        assert trace_key(kernel, Workload("t", {"a": 1, "b": 2})) == trace_key(
            kernel, Workload("t", {"b": 2, "a": 1})
        )

    def test_canonical_params_unwraps_numpy_scalars(self, kernel):
        assert trace_key(kernel, Workload("t", {"n": np.int64(5)})) == (
            trace_key(kernel, Workload("t", {"n": 5}))
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
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data: b"not an npz archive",
            lambda data: data[: len(data) // 2],
            lambda data: b"",
        ],
        ids=["garbage", "truncated", "empty"],
    )
    def test_corrupt_archive_is_dropped_and_missed(
        self, tmp_path, kernel, workload, corrupt
    ):
        path = TraceCache(tmp_path).put(kernel, workload, kernel.trace(workload))
        path.write_bytes(corrupt(path.read_bytes()))
        # A fresh instance (fresh process) sees only the disk artifact.
        cache = TraceCache(tmp_path)
        assert cache.get(kernel, workload) is None
        assert not path.exists()
        assert archives(tmp_path) == []

    def test_bit_flips_miss_or_load_identically(self, tmp_path, kernel):
        # Any single flipped bit leaves the archive whole (a flag or
        # timestamp no reader checks) or makes get() a miss; it never
        # raises and never returns a different trace.
        workload = TEST_WORKLOADS["VM"]
        trace = kernel.trace(workload)
        path = TraceCache(tmp_path).put(kernel, workload, trace)
        data = path.read_bytes()
        outcomes = {"miss": 0, "identical": 0}
        rng = np.random.default_rng(0)
        for bit in rng.integers(0, 8 * len(data), 1000):
            damaged = bytearray(data)
            damaged[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(damaged))
            got = TraceCache(tmp_path).get(kernel, workload)
            if got is None:
                outcomes["miss"] += 1
            else:
                assert traces_equal(got, trace), f"bit {bit}"
                outcomes["identical"] += 1
        assert outcomes["miss"] > 0 and outcomes["identical"] > 0, outcomes

    def test_member_longer_than_its_array_is_a_miss(
        self, tmp_path, kernel, workload
    ):
        # A column whose .npy header-length field is 8 short reads 8
        # bytes of header padding as its first value: a wrong trace under
        # a valid CRC-32.  The 8 bytes left after the array give it away.
        path = TraceCache(tmp_path).put(kernel, workload, kernel.trace(workload))
        with zipfile.ZipFile(path) as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        npy = bytearray(members["addresses.npy"])
        header_len = int.from_bytes(npy[8:10], "little")
        npy[8:10] = (header_len - 8).to_bytes(2, "little")
        members["addresses.npy"] = bytes(npy)
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
            for name, content in members.items():
                archive.writestr(name, content)
        cache = TraceCache(tmp_path)
        assert cache.get(kernel, workload) is None
        assert cache.misses == 1
        assert not path.exists()

    def test_header_claiming_more_than_its_member_is_a_miss(
        self, tmp_path, kernel, workload
    ):
        # A column whose .npy header claims 8 PiB is damage like any
        # other, not a MemoryError that would stop a sweep.
        path = TraceCache(tmp_path).put(kernel, workload, kernel.trace(workload))
        rewrite_members(path, addresses=huge_header(path, "addresses"))
        cache = TraceCache(tmp_path)
        assert cache.get(kernel, workload) is None
        assert cache.misses == 1
        assert not path.exists()

    def test_old_archive_with_sizes_varying_in_a_label_is_a_miss(
        self, tmp_path, kernel, workload
    ):
        # Only schema 4 loads, so an archive of schema 3 (here one whose
        # per-reference sizes vary within a label, which schema 4 cannot
        # hold) is damage: dropped and re-collected.
        path = TraceCache(tmp_path).put(kernel, workload, kernel.trace(workload))
        trace = load_trace(path)
        sizes = trace.element_sizes[trace.label_ids]
        sizes[0] += 1
        np.savez(
            path,
            schema_version=np.int64(3),
            repeats=np.int64(1),
            addresses=trace.addresses,
            sizes=sizes,
            is_write=trace.is_write,
            label_ids=trace.label_ids,
            labels=np.asarray(trace.labels, dtype=np.str_),
        )
        cache = TraceCache(tmp_path)
        assert cache.get(kernel, workload) is None
        assert cache.misses == 1
        assert not path.exists()

    def test_transient_os_error_keeps_the_archive(
        self, tmp_path, kernel, workload, monkeypatch
    ):
        # An OSError that is not damage (here: out of file descriptors)
        # is a miss, and the valid archive stays for the next reader.
        trace = kernel.trace(workload)
        path = TraceCache(tmp_path).put(kernel, workload, trace)

        def exhausted(path):
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(cache_mod, "load_periodic_trace", exhausted)
        cache = TraceCache(tmp_path)
        assert cache.get(kernel, workload) is None
        assert cache.misses == 1
        assert path.exists()
        monkeypatch.undo()
        cached = TraceCache(tmp_path).get(kernel, workload)
        assert cached is not None and traces_equal(cached, trace)

    def test_index_entry_without_file_is_a_miss(
        self, tmp_path, kernel, workload
    ):
        # The storing instance would still answer from its memo, which
        # is right for a content-addressed key; a fresh instance (a new
        # process) finds no archive.
        path = TraceCache(tmp_path).put(kernel, workload, kernel.trace(workload))
        path.unlink()
        cache = TraceCache(tmp_path)
        assert cache.get(kernel, workload) is None
        assert cache.misses == 1

    def test_failed_store_leaves_no_temp_file(
        self, tmp_path, kernel, workload, monkeypatch
    ):
        def partial_save(trace, path):
            path.write_bytes(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(cache_mod, "save_trace", partial_save)
        cache = TraceCache(tmp_path)
        with pytest.raises(OSError, match="disk full"):
            cache.put(kernel, workload, kernel.trace(workload))
        assert list(tmp_path.iterdir()) == []
        assert cache.stores == 0


class TestPeriodicEntries:
    def test_memo_and_archive_hold_one_iteration(self, tmp_path):
        # CG records one iteration and its count; the cache keeps that,
        # and Kernel.trace tiles it into the whole trace.
        kernel, workload = KERNELS["CG"], TEST_WORKLOADS["CG"]
        cache = TraceCache(tmp_path)
        whole = kernel.trace(workload, cache=cache)
        (entry,) = cache._memory.values()
        assert entry.repeats == workload["iterations"] > 1
        assert len(entry.period) * entry.repeats == len(whole)
        assert traces_equal(whole, kernel.trace(workload))
        loaded = TraceCache(tmp_path).get(kernel, workload)
        assert loaded.repeats == entry.repeats
        assert traces_equal(loaded.period, entry.period)


class TestCoercion:
    def test_as_trace_cache_passthrough_and_paths(self, tmp_path):
        cache = TraceCache(tmp_path)
        assert as_trace_cache(cache) is cache
        assert as_trace_cache(None) is None
        built = as_trace_cache(str(tmp_path))
        assert isinstance(built, TraceCache)
        assert built.root == cache.root


# ----------------------------------------------------------------------
# processes sharing one cache directory
# ----------------------------------------------------------------------
def _hammer_cache(root, offset, iterations, sizes, out):
    """Worker: interleave get/put/unlink against a shared cache.

    Every trace a ``get`` returned goes to ``out`` (as ``.npz`` files),
    so the parent can check it against a fresh recording.
    """
    cache = TraceCache(root)
    kernel = KERNELS["VM"]
    for i in range(iterations):
        n = sizes[(offset + i) % len(sizes)]
        workload = Workload("t", {"n": n})
        trace = cache.get(kernel, workload)
        if trace is None:
            cache.put(kernel, workload, kernel.trace(workload))
        else:
            save_trace(trace, out / f"{offset}-{i}-{n}.npz")
        if i % 5 == 4:
            # Drop the archive and this process's memo, so the next get
            # of this workload from either process misses.
            (cache.root / f"{trace_key(kernel, workload)}.npz").unlink(
                missing_ok=True
            )
            cache = TraceCache(root)


class TestCrossProcessLocking:
    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_two_processes_sharing_one_cache(self, tmp_path, kernel):
        """Two processes racing get/put/unlink on one directory.

        No lock guards the directory: a reader sees either no archive
        or a whole one, because each archive lands by ``os.replace`` of
        a per-process temp file.  Every trace either worker loaded must
        equal a fresh recording, and nothing may be left half-written.
        """
        import multiprocessing

        root, out = tmp_path / "cache", tmp_path / "loaded"
        out.mkdir()
        ctx = multiprocessing.get_context("fork")
        sizes = (48, 56, 64, 72, 80, 88)
        workers = [
            ctx.Process(
                target=_hammer_cache, args=(root, offset, 20, sizes, out)
            )
            for offset in (0, 3)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(120)
        assert not any(proc.is_alive() for proc in workers)
        assert all(proc.exitcode == 0 for proc in workers), [
            proc.exitcode for proc in workers
        ]

        loaded = sorted(out.glob("*.npz"))
        assert loaded  # some gets were hits
        for path in loaded:
            n = int(path.stem.rsplit("-", 1)[1])
            fresh = kernel.trace(Workload("t", {"n": n}))
            assert traces_equal(load_trace(path), fresh), path.name
        assert not list(root.glob("*.tmp.npz"))
        # And the cache is still fully usable afterwards.
        survivor = TraceCache(root)
        workload = Workload("t", {"n": 96})
        survivor.put(kernel, workload, kernel.trace(workload))
        assert TraceCache(root).get(kernel, workload) is not None

"""Tests for the trace recorder and reference trace containers."""

import numpy as np
import pytest

from repro.trace.recorder import TraceRecorder
from repro.trace.reference import ReferenceTrace


def make_rec():
    recorder = TraceRecorder()
    recorder.allocate("A", 100, 8)
    recorder.allocate("B", 50, 16)
    return recorder


@pytest.fixture
def rec():
    return make_rec()


class TestScalarRecording:
    def test_len_tracks_count(self, rec):
        for i in range(5):
            rec.record_elements("A", np.array([i]), False)
        assert len(rec) == 5


class TestVectorisedRecording:
    def test_record_elements_addresses(self, rec):
        rec.record_elements("A", np.array([0, 2, 4]), False)
        trace = rec.finish()
        assert list(trace.addresses) == [0, 16, 32]

    def test_record_elements_bounds_checked(self, rec):
        with pytest.raises(IndexError):
            rec.record_elements("A", np.array([0, 100]), False)

    def test_record_stream_stride(self, rec):
        rec.record_stream("A", 0, 5, stride_elements=3)
        trace = rec.finish()
        assert list(trace.addresses) == [0, 24, 48, 72, 96]

    def test_record_empty_is_noop(self, rec):
        rec.record_elements("A", np.array([], dtype=np.int64), False)
        assert len(rec.finish()) == 0

    def test_interleaved_round_robin(self, rec):
        rec.record_interleaved(
            [
                ("A", np.array([0, 1]), False),
                ("B", np.array([0, 1]), True),
            ]
        )
        trace = rec.finish()
        assert [trace.labels[i] for i in trace.label_ids] == ["A", "B", "A", "B"]
        assert trace.is_write.tolist() == [False, True, False, True]

    def test_interleaved_unequal_lengths_rejected(self, rec):
        with pytest.raises(ValueError, match="equal length"):
            rec.record_interleaved(
                [("A", np.array([0, 1]), False), ("B", np.array([0]), False)]
            )

    def test_interleaved_empty_stream_rejected(self, rec):
        # Regression: an empty stream used to slip past validation and
        # blow up when the interleave indexed parts[0][1].
        with pytest.raises(ValueError, match="empty"):
            rec.record_interleaved(
                [("A", np.array([], dtype=np.int64), False)]
            )

    def test_interleaved_non_triple_part_rejected(self, rec):
        with pytest.raises(ValueError, match="triple"):
            rec.record_interleaved([("A", np.array([0, 1]))])

    def test_interleaved_non_1d_stream_rejected(self, rec):
        with pytest.raises(ValueError, match="1-D"):
            rec.record_interleaved([("A", np.zeros((2, 2), dtype=np.int64), False)])

    def test_interleaved_no_parts_is_noop(self, rec):
        rec.record_interleaved([])
        assert len(rec.finish()) == 0


class TestSegmentRecording:
    """``record_labelled``: references to several segments in one call."""

    def test_segments_match_sequential_recording(self):
        # Byte-identical to one record_elements call per reference, with
        # the labels in either order, for reads and for writes.
        rng = np.random.default_rng(11)
        which = rng.integers(0, 2, 400)
        indices = rng.integers(0, 50, 400)  # in range for A and B
        for labels in (("A", "B"), ("B", "A")):
            for is_write in (False, True):
                batched = make_rec()
                batched.record_labelled(labels, which, indices, is_write)
                sequential = make_rec()
                for pos, index in zip(which, indices):
                    sequential.record_elements(
                        labels[pos], np.array([index]), is_write
                    )
                got, want = batched.finish(), sequential.finish()
                assert got.labels == want.labels
                for column in (
                    "addresses", "is_write", "label_ids", "element_sizes"
                ):
                    a, b = getattr(got, column), getattr(want, column)
                    assert a.dtype == b.dtype, column
                    assert a.tobytes() == b.tobytes(), column

    def test_segments_skip_empty_parts(self, rec):
        # A label that no reference names records nothing.
        rec.record_labelled(("B", "A"), np.array([1, 1]), np.array([0, 2]), False)
        trace = rec.finish()
        assert [trace.labels[i] for i in trace.label_ids] == ["A", "A"]
        assert list(trace.addresses) == [0, 16]

    def test_segments_all_empty_is_noop(self, rec):
        empty = np.array([], dtype=np.int64)
        rec.record_labelled(("A", "B"), empty, empty, False)
        rec.record_labelled((), empty, empty, True)
        assert len(rec) == 0
        assert len(rec.finish()) == 0

    def test_segments_bad_which_rejected(self, rec):
        for which in ([0, 2], [-1, 0], [0.0, 1.0], [True, False]):
            with pytest.raises(ValueError, match="positions in labels"):
                rec.record_labelled(("A", "B"), np.array(which), np.array([0, 1]), False)
        assert len(rec) == 0

    def test_segments_length_mismatch_rejected(self, rec):
        with pytest.raises(ValueError, match="one length"):
            rec.record_labelled(("A",), np.array([0, 0]), np.array([0]), False)
        assert len(rec) == 0

    def test_segments_non_1d_rejected(self, rec):
        with pytest.raises(ValueError, match="1-D"):
            rec.record_labelled(
                ("A",),
                np.zeros((1, 3), dtype=np.int64),
                np.zeros((1, 3), dtype=np.int64),
                False,
            )

    def test_segments_bounds_checked(self, rec):
        # Each label's indices are checked against that label's segment.
        for which, indices, label in (
            ([0, 1], [100, 0], "A"),
            ([0, 1], [0, 50], "B"),
            ([1, 0], [-1, 0], "B"),
        ):
            with pytest.raises(IndexError, match=repr(label)):
                rec.record_labelled(
                    ("A", "B"), np.array(which), np.array(indices), False
                )
        # 99 is an index of A, not of B.
        rec.record_labelled(("A", "B"), np.array([0]), np.array([99]), False)
        with pytest.raises(IndexError, match="'B'"):
            rec.record_labelled(("A", "B"), np.array([1]), np.array([99]), False)
        assert len(rec) == 1


class TestReferenceTrace:
    def make(self, rec):
        rec.record_stream("A", 0, 10)
        rec.record_stream("B", 0, 5, is_write=True)
        return rec.finish()

    def test_unknown_label_raises(self, rec):
        trace = self.make(rec)
        with pytest.raises(KeyError):
            trace.filter_label("Z")

    def test_filter_label(self, rec):
        trace = self.make(rec)
        sub = trace.filter_label("B")
        assert len(sub) == 5
        assert sub.labels == ["B"]
        assert sub.is_write.all()

    def test_write_fraction(self, rec):
        trace = self.make(rec)
        assert trace.write_fraction() == pytest.approx(5 / 15)

    def test_empty_trace_write_fraction(self):
        assert TraceRecorder().finish().write_fraction() == 0.0

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            ReferenceTrace(
                np.zeros(3, dtype=np.int64),
                np.zeros(2, dtype=bool),
                np.zeros(3, dtype=np.int32),
                ["A"],
                [8],
            )

    @pytest.mark.parametrize("element_sizes", [[], [8, 8], [[8]]])
    def test_one_element_size_per_label(self, element_sizes):
        with pytest.raises(ValueError, match="one size per label"):
            ReferenceTrace(
                np.zeros(3, dtype=np.int64),
                np.zeros(3, dtype=bool),
                np.zeros(3, dtype=np.int32),
                ["A"],
                element_sizes,
            )

    def test_sizes_come_from_the_segments(self, rec):
        # Taken once per label at allocate, not stored per reference:
        # the three columns take 13 bytes a reference.
        trace = self.make(rec)
        assert trace.element_sizes.tolist() == [8, 16]
        assert trace.filter_label("B").element_sizes.tolist() == [16]
        assert not hasattr(trace, "sizes")
        columns = (trace.addresses, trace.is_write, trace.label_ids)
        assert sum(c.nbytes for c in columns) == 13 * len(trace)


class TestTraceIO:
    def test_roundtrip(self, rec, tmp_path):
        from repro.trace.io import load_trace, save_trace

        rec.record_stream("A", 0, 10)
        rec.record_stream("B", 0, 5, is_write=True)
        trace = rec.finish()
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert len(loaded) == len(trace)
        assert loaded.labels == trace.labels
        assert (loaded.addresses == trace.addresses).all()
        assert (loaded.is_write == trace.is_write).all()

    def test_archives_load_without_pickle(self, rec, tmp_path):
        # New archives must be entirely pickle-free: every column,
        # including the label table, reads under allow_pickle=False.
        from repro.trace.io import save_trace

        rec.record_stream("A", 0, 4)
        path = tmp_path / "trace.npz"
        save_trace(rec.finish(), path)
        with np.load(path, allow_pickle=False) as archive:
            assert archive["labels"].dtype.kind == "U"
            assert list(archive["labels"]) == ["A", "B"]

    def test_archives_stay_compressed(self, tmp_path):
        # Stored members would make archives as large as their columns;
        # MC's deflates to about 1/16 of them.
        from repro.kernels.registry import KERNELS
        from repro.kernels.workloads import TEST_WORKLOADS
        from repro.trace.io import save_trace

        trace = KERNELS["MC"].trace(TEST_WORKLOADS["MC"])
        raw = sum(
            column.nbytes
            for column in (trace.addresses, trace.is_write, trace.label_ids)
        )
        path = tmp_path / "mc.npz"
        save_trace(trace, path)
        assert path.stat().st_size < raw / 8

    def test_bare_path_gets_npz_suffix(self, rec, tmp_path):
        from repro.trace.io import load_trace, save_trace

        rec.record_stream("A", 0, 3)
        save_trace(rec.finish(), tmp_path / "trace")
        assert [p.name for p in tmp_path.iterdir()] == ["trace.npz"]
        assert len(load_trace(tmp_path / "trace.npz")) == 3

    def test_legacy_object_label_archive_still_loads(self, rec, tmp_path):
        # Archives before schema 2 pickled their label table.  Such an
        # archive is refused without being unpickled (unpickling this
        # one would fail the test): the trace cache drops it, and the
        # trace recorded again loads from a schema-4 archive.
        rec.record_stream("A", 0, 3)
        rec.record_stream("B", 1, 2, is_write=True)
        trace = rec.finish()
        labels = np.empty(2, dtype=object)
        labels[:] = [_FailsWhenUnpickled(), "B"]

        def write_legacy(path):
            np.savez_compressed(
                path,
                schema_version=np.int64(1),
                addresses=trace.addresses,
                sizes=trace.element_sizes[trace.label_ids],
                is_write=trace.is_write,
                label_ids=trace.label_ids,
                labels=labels,
            )

        loaded = recorded_again(tmp_path, write_legacy, trace).whole()
        assert loaded.labels == ["A", "B"]
        assert loaded.element_sizes.tolist() == [8, 16]
        assert (loaded.addresses == trace.addresses).all()
        assert (loaded.is_write == trace.is_write).all()

    def test_object_label_table_refused_without_unpickling(
        self, rec, tmp_path
    ):
        # A label table saved as an object array needs pickle, which no
        # trace read runs: unpickling this one would fail the test.
        from repro.trace.io import load_periodic_trace, save_trace

        rec.record_stream("A", 0, 3)
        path = tmp_path / "t.npz"
        save_trace(rec.finish(), path)
        labels = np.empty(2, dtype=object)
        labels[:] = [_FailsWhenUnpickled(), "B"]
        rewrite_members(path, labels=_npy(labels))
        with pytest.raises(ValueError):
            load_periodic_trace(path)


class _FailsWhenUnpickled:
    def __reduce__(self):
        return (pytest.fail, ("a trace read unpickled its label table",))


def _npy(values) -> bytes:
    """``values`` as the bytes of a ``.npy`` file."""
    import io

    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, np.asanyarray(values))
    return buffer.getvalue()


def rewrite_members(path, **members):
    """Rewrite the archive at ``path`` with some members replaced.

    Each keyword names a member: bytes replace it (or add it), ``None``
    deletes it.
    """
    import zipfile

    with zipfile.ZipFile(path) as archive:
        content = {n: archive.read(n) for n in archive.namelist()}
    for name, value in members.items():
        content.pop(f"{name}.npy", None)
        if value is not None:
            content[f"{name}.npy"] = value
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, value in content.items():
            archive.writestr(name, value)


def recorded_again(tmp_path, write_older, trace):
    """What the trace cache serves after it finds an older archive.

    ``write_older(path)`` writes an archive where a cache under
    ``tmp_path`` keeps the VM kernel's test-tier trace.  The cache must
    count that archive a miss and drop it; ``trace`` is then stored in
    its place as schema 4, and a fresh cache reads it back from disk.
    """
    from repro.kernels.registry import KERNELS
    from repro.kernels.workloads import TEST_WORKLOADS
    from repro.trace.cache import TraceCache
    from repro.trace.cache import trace_key

    kernel, workload = KERNELS["VM"], TEST_WORKLOADS["VM"]
    path = tmp_path / f"{trace_key(kernel, workload)}.npz"
    write_older(path)
    cache = TraceCache(tmp_path)
    assert cache.get(kernel, workload) is None and cache.misses == 1
    assert not path.exists()
    assert cache.put(kernel, workload, trace) == path
    with np.load(path, allow_pickle=False) as archive:
        assert int(archive["schema_version"]) == 4
    return TraceCache(tmp_path).get(kernel, workload)


class TestStreamingRecorder:
    """Sink-mode streaming vs the monolithic finish()."""

    def _record(self, rec, seed=23, n=700):
        rng = np.random.default_rng(seed)
        rec.allocate("A", 256, 8)
        rec.allocate("B", 64, 16)
        rec.record_elements("A", rng.integers(0, 256, n), False)
        rec.record_elements("B", rng.integers(0, 64, n // 2), True)
        rec.record_elements("A", np.array([0]), True)

    def _assert_concat_equals(self, chunks, trace):
        assert [list(c.labels) for c in chunks]  # non-empty
        np.testing.assert_array_equal(
            np.concatenate([c.addresses for c in chunks]), trace.addresses
        )
        np.testing.assert_array_equal(
            np.concatenate([c.is_write for c in chunks]), trace.is_write
        )
        np.testing.assert_array_equal(
            np.concatenate([c.label_ids for c in chunks]), trace.label_ids
        )
        for chunk in chunks:
            assert chunk.labels == trace.labels[: len(chunk.labels)]
            np.testing.assert_array_equal(
                chunk.element_sizes,
                trace.element_sizes[: len(chunk.labels)],
            )

    def test_sink_mode_autoflush(self):
        sizes = []
        sink_chunks = []

        def sink(chunk):
            sizes.append(len(chunk))
            sink_chunks.append(chunk)

        mono = TraceRecorder()
        self._record(mono)
        streamed = TraceRecorder(chunk_refs=250, sink=sink)
        self._record(streamed)
        streamed.flush_tail()
        n = len(mono)
        full, tail = divmod(n, 250)
        expected = [250] * full + ([tail] if tail else [])
        assert sizes == expected
        self._assert_concat_equals(sink_chunks, mono.finish())

    def test_sink_mode_finish_refused(self):
        rec = TraceRecorder(chunk_refs=10, sink=lambda c: None)
        rec.allocate("A", 64, 8)
        rec.record_stream("A", 0, 64)
        with pytest.raises(RuntimeError, match="streamed"):
            rec.finish()

    def test_flush_tail_requires_sink(self):
        rec = TraceRecorder()
        with pytest.raises(RuntimeError, match="sink"):
            rec.flush_tail()

    def test_sink_requires_chunk_refs(self):
        with pytest.raises(ValueError, match="chunk_refs"):
            TraceRecorder(sink=lambda c: None)

    def test_chunk_refs_requires_sink(self):
        with pytest.raises(ValueError, match="sink"):
            TraceRecorder(chunk_refs=5)

    def test_chunk_refs_below_one_rejected(self):
        with pytest.raises(ValueError, match="chunk_refs"):
            TraceRecorder(chunk_refs=0, sink=lambda c: None)


class TestPeriods:
    """A periods() loop: one pass recorded, the rest known to repeat it."""

    def _record(self, rec, repeats):
        for _ in rec.periods(repeats):
            rec.record_stream("A", 0, 3)
            rec.record_elements("B", np.array([1, 0]), True)

    def test_one_pass_recorded_and_tiled(self, rec):
        self._record(rec, 4)
        trace = rec.finish_periodic()
        assert (len(trace.period), trace.repeats, len(trace)) == (5, 4, 20)
        assert len(rec) == 20
        whole = rec.finish()
        assert len(whole) == 20
        assert list(whole.addresses[:5]) == list(whole.addresses[15:])

    def test_sink_mode_records_every_pass(self):
        chunks = []
        rec = TraceRecorder(chunk_refs=7, sink=chunks.append)
        rec.allocate("A", 100, 8)
        rec.allocate("B", 50, 16)
        self._record(rec, 4)
        rec.flush_tail()
        unsunk = make_rec()
        self._record(unsunk, 4)
        whole = unsunk.finish()
        np.testing.assert_array_equal(
            np.concatenate([c.addresses for c in chunks]), whole.addresses
        )
        np.testing.assert_array_equal(
            np.concatenate([c.is_write for c in chunks]), whole.is_write
        )

    def test_without_a_loop_the_trace_repeats_once(self, rec):
        rec.record_stream("A", 0, 3)
        trace = rec.finish_periodic()
        assert (len(trace.period), trace.repeats) == (3, 1)
        assert trace.whole() is trace.period

    @pytest.mark.parametrize("repeats, length", [(0, 0), (1, 5)])
    def test_zero_and_one_repeats(self, rec, repeats, length):
        self._record(rec, repeats)
        trace = rec.finish_periodic()
        assert (trace.repeats, len(trace)) == (1, length)

    def test_loop_left_early_counts_the_passes_run(self, rec):
        for index in rec.periods(10):
            rec.record_stream("A", 0, 3)
            if index == 2:
                break
        trace = rec.finish_periodic()
        assert (len(trace.period), trace.repeats) == (3, 3)

    def test_loop_must_hold_the_whole_recording(self, rec):
        rec.record_stream("A", 0, 1)
        with pytest.raises(RuntimeError, match="whole recording"):
            next(iter(rec.periods(2)))
        fresh = make_rec()
        self._record(fresh, 2)
        with pytest.raises(RuntimeError, match="after a periods"):
            fresh.record_stream("A", 0, 1)
        with pytest.raises(RuntimeError, match="whole recording"):
            next(iter(fresh.periods(2)))


class TestPeriodicTraceIO:
    def _periodic(self, repeats=3):
        rec = make_rec()
        for _ in rec.periods(repeats):
            rec.record_stream("A", 0, 4)
            rec.record_stream("B", 1, 2, is_write=True)
        return rec.finish_periodic()

    def test_roundtrip_keeps_the_period(self, tmp_path):
        from repro.trace.io import load_periodic_trace, load_trace, save_trace

        trace = self._periodic()
        save_trace(trace, tmp_path / "t.npz")
        loaded = load_periodic_trace(tmp_path / "t.npz")
        assert (len(loaded.period), loaded.repeats) == (6, 3)
        np.testing.assert_array_equal(
            loaded.period.addresses, trace.period.addresses
        )
        whole = load_trace(tmp_path / "t.npz")
        np.testing.assert_array_equal(whole.addresses, trace.whole().addresses)
        with np.load(tmp_path / "t.npz", allow_pickle=False) as archive:
            assert int(archive["schema_version"]) == 4
            assert int(archive["repeats"]) == 3

    def test_schema2_archive_loads_once(self):
        # The golden VM fixture, now a schema-4 archive, records no loop:
        # it loads as one pass.
        from pathlib import Path

        from repro.trace.io import load_periodic_trace

        path = (Path(__file__).parents[1] / "cachesim" / "fixtures"
                / "vm_test.npz")
        loaded = load_periodic_trace(path)
        assert loaded.repeats == 1 and len(loaded) == len(loaded.period) > 0

    @pytest.mark.parametrize("name", ["vm_test.npz", "mc_test.npz"])
    def test_golden_fixtures_are_schema4(self, name):
        from pathlib import Path

        from repro.trace.io import load_periodic_trace

        path = Path(__file__).parents[1] / "cachesim" / "fixtures" / name
        with np.load(path, allow_pickle=False) as archive:
            assert int(archive["schema_version"]) == 4
        loaded = load_periodic_trace(path)
        assert loaded.repeats == 1 and len(loaded) == len(loaded.period) > 0

    @pytest.mark.parametrize("repeats, error", [
        pytest.param(None, KeyError, id="missing"),
        pytest.param(np.int64(0), ValueError, id="zero"),
        pytest.param(np.array([2, 2]), ValueError, id="not-a-scalar"),
        pytest.param(np.float64(2.0), ValueError, id="not-an-integer"),
    ])
    def test_bad_repeat_count_is_damage(self, tmp_path, repeats, error):
        from repro.trace.io import load_periodic_trace, save_trace

        path = tmp_path / "t.npz"
        save_trace(self._periodic(), path)
        rewrite_members(
            path, repeats=None if repeats is None else _npy(repeats)
        )
        with pytest.raises(error):
            load_periodic_trace(path)


def _archive_of_schema(path, trace, schema, repeats=1, sizes=None):
    """Write ``trace`` the way an archive of ``schema`` held it.

    Schemas 1 to 3 stored a size per reference (``sizes`` overrides the
    one each label's element size gives); 1 pickled its label table and
    left out the version; 3 added the repeat count.  Schema 5 stands for
    a later layout: today's members under another version.
    """
    members = {
        "addresses": trace.addresses,
        "is_write": trace.is_write,
        "label_ids": trace.label_ids,
        "labels": np.asarray(trace.labels, dtype=np.str_),
    }
    if schema == 1:
        members["labels"] = np.asarray(trace.labels, dtype=object)
    else:
        members["schema_version"] = np.int64(schema)
    if schema >= 3:
        members["repeats"] = np.int64(repeats)
    if schema <= 3:
        members["sizes"] = (
            trace.element_sizes[trace.label_ids] if sizes is None else sizes
        )
    else:
        members["element_sizes"] = trace.element_sizes
    np.savez_compressed(path, **members)


class TestSchema4:
    """Only schema 4 loads: element sizes live in the label table."""

    def _trace(self):
        rec = make_rec()
        rec.record_stream("A", 0, 5)
        rec.record_elements("B", np.array([3, 1, 3]), True)
        rec.record_stream("A", 2, 2, is_write=True)
        return rec.finish()

    def test_save_writes_exactly_the_schema4_members(self, tmp_path):
        import zipfile

        from repro.trace.io import TRACE_SCHEMA_VERSION, save_trace

        assert TRACE_SCHEMA_VERSION == 4
        save_trace(self._trace(), tmp_path / "t.npz")
        with zipfile.ZipFile(tmp_path / "t.npz") as archive:
            names = sorted(archive.namelist())
        assert names == sorted(
            f"{name}.npy"
            for name in (
                "schema_version", "repeats", "addresses", "is_write",
                "label_ids", "labels", "element_sizes",
            )
        )

    @pytest.mark.parametrize("schema, error", [
        (1, KeyError), (2, ValueError), (3, ValueError), (5, ValueError),
    ])
    def test_other_schemas_refused(self, tmp_path, schema, error):
        # Schema 1 has no version member; the others name theirs.
        from repro.trace.io import load_periodic_trace

        _archive_of_schema(tmp_path / "old.npz", self._trace(), schema)
        with pytest.raises(error):
            load_periodic_trace(tmp_path / "old.npz")

    @pytest.mark.parametrize("schema, repeats", [(2, 1), (3, 1), (3, 4)])
    def test_older_archive_loads_as_schema4(self, tmp_path, schema, repeats):
        # An older archive does not load itself: the trace cache drops
        # it, and the trace recorded again loads from a schema-4 archive
        # with the same period and repeat count.
        from repro.trace.reference import PeriodicTrace

        trace = PeriodicTrace(self._trace(), repeats)
        loaded = recorded_again(
            tmp_path,
            lambda path: _archive_of_schema(
                path, trace.period, schema, repeats
            ),
            trace,
        )
        assert loaded.repeats == repeats
        assert loaded.period.labels == ["A", "B"]
        for column in ("addresses", "is_write", "label_ids", "element_sizes"):
            a, b = getattr(loaded.period, column), getattr(trace.period, column)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), column
        assert loaded.period.element_sizes.tolist() == [8, 16]

    @pytest.mark.parametrize("schema", [2, 3])
    def test_sizes_varying_within_a_label_rejected(self, tmp_path, schema):
        # Schemas 2 and 3 stored a size per reference, which could vary
        # within a label as schema 4's per-label sizes cannot.
        from repro.trace.io import load_periodic_trace

        trace = self._trace()
        sizes = trace.element_sizes[trace.label_ids].copy()
        sizes[-1] = 4  # one of A's references, A's size being 8
        _archive_of_schema(tmp_path / "old.npz", trace, schema, sizes=sizes)
        with pytest.raises(ValueError, match=f"schema {schema}"):
            load_periodic_trace(tmp_path / "old.npz")

    def test_label_id_past_the_table_is_damage(self, tmp_path):
        from repro.trace.io import load_periodic_trace, save_trace

        trace, path = self._trace(), tmp_path / "t.npz"
        save_trace(trace, path)
        label_ids = trace.label_ids.copy()
        label_ids[0] = 2  # labels: A, B
        rewrite_members(path, label_ids=_npy(label_ids))
        with pytest.raises(ValueError, match="label id"):
            load_periodic_trace(path)

    def test_older_archive_label_id_past_the_table_is_damage(self, tmp_path):
        from repro.trace.io import load_periodic_trace

        trace = self._trace()
        np.savez_compressed(
            tmp_path / "old.npz",
            schema_version=np.int64(2),
            addresses=trace.addresses[:1],
            sizes=np.array([8]),
            is_write=trace.is_write[:1],
            label_ids=np.array([2], dtype=np.int32),  # labels: A, B
            labels=np.asarray(trace.labels, dtype=np.str_),
        )
        with pytest.raises(ValueError, match="schema 2"):
            load_periodic_trace(tmp_path / "old.npz")

    def test_schema4_archive_without_element_sizes_is_damage(self, tmp_path):
        from repro.trace.io import load_periodic_trace, save_trace

        path = tmp_path / "t.npz"
        save_trace(self._trace(), path)
        rewrite_members(path, element_sizes=None)
        with pytest.raises(KeyError):
            load_periodic_trace(path)

    @pytest.mark.parametrize("member", ["addresses", "labels", "repeats"])
    def test_header_claiming_more_than_its_member_is_damage(
        self, tmp_path, member
    ):
        # numpy would allocate the header's 8 PiB before reading a byte.
        from repro.trace.io import load_periodic_trace, save_trace

        path = tmp_path / "t.npz"
        save_trace(self._trace(), path)
        rewrite_members(path, **{member: huge_header(path, member)})
        with pytest.raises(ValueError, match="header"):
            load_periodic_trace(path)


def huge_header(path, member) -> bytes:
    """``member`` of the archive at ``path``, its header claiming 8 PiB."""
    import io

    with np.load(path, allow_pickle=False) as archive:
        values = archive[member]
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(buffer, {
        "descr": np.lib.format.dtype_to_descr(values.dtype),
        "fortran_order": False,
        "shape": (2**53 // values.dtype.itemsize,),
    })
    return buffer.getvalue() + values.tobytes()


class TestPeriodicTrace:
    @pytest.mark.parametrize("repeats", [0, -1, 1.5, True])
    def test_repeats_must_be_a_positive_int(self, repeats):
        from repro.trace.reference import PeriodicTrace

        period = make_rec().finish()
        with pytest.raises(ValueError, match="repeats"):
            PeriodicTrace(period, repeats)

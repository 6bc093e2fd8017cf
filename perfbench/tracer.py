"""Spans recorded from outside the program, for the traced run only.

:func:`install` wraps the public functions each workload calls.  Every
wrapper is patched where its caller looks the name up: methods on their
class, module functions on the module whose global the caller reads
(``from x import f`` names in the importing module).  Spans stay in
memory as ``[name, start, end, parent, attrs]`` lists (``perf_counter``
seconds; ``parent`` is an index or -1) and are written out at the end.

Service workers inherit the wrappers across ``fork``.  The wrapper on
``execute_job`` starts each worker with an empty span list and appends
the worker's spans to ``<worker_dir>/<pid>.jsonl``; the parent merges
those files after the drain.  Shard-pool workers stay opaque: the
``cachesim.sharding.replay`` span covers them.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
import weakref
from pathlib import Path

from repro.experiments.configs import KERNEL_ORDER


class Tracer:
    """In-memory span recorder with cell tags for attribution."""

    def __init__(self, worker_dir: Path):
        self.spans: list[list] = []
        self.stack: list[int] = []
        #: Tags copied into every span opened while set (the current cell).
        self.tags: dict = {}
        self.worker_dir = worker_dir
        #: Simulators whose first run was seen, calls whose outcome was
        #: collected (weak: ``id()`` values are reused after collection).
        self._seen_sims: weakref.WeakSet = weakref.WeakSet()
        self._polled: weakref.WeakSet = weakref.WeakSet()

    def open(self, name: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        merged = dict(self.tags)
        if attrs:
            merged.update(attrs)
        self.spans.append([name, time.perf_counter(), None, parent, merged])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> dict:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()
        return self.spans[idx][4]

    def timed(self, name, original, before=None, after=None):
        """Wrap ``original`` in a span; hooks may add span attributes."""
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name, before(*args, **kwargs) if before else None)
            try:
                result = original(*args, **kwargs)
            finally:
                attrs = tracer.close(idx)
            if after is not None:
                after(attrs, result, *args, **kwargs)
            return result

        return wrapper

    # -- worker side -----------------------------------------------------
    def run_in_worker(self, original):
        """Wrapper for ``execute_job``: record in the worker, then dump."""
        tracer = self

        @functools.wraps(original)
        def wrapper(spec, attempt, degraded):
            tracer.spans, tracer.stack = [], []
            tracer.tags = {"job": spec.id}
            idx = tracer.open("service.job", {"attempt": attempt})
            try:
                return original(spec, attempt, degraded)
            finally:
                tracer.close(idx)
                path = tracer.worker_dir / f"{os.getpid()}.jsonl"
                with path.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps(tracer.spans) + "\n")

        return wrapper

    def merge_workers(self) -> None:
        """Append the spans service workers wrote, re-indexing parents."""
        for path in sorted(self.worker_dir.glob("*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                base = len(self.spans)
                for name, start, end, parent, attrs in json.loads(line):
                    attrs["worker"] = path.stem
                    self.spans.append([
                        name, start, end,
                        parent + base if parent >= 0 else -1, attrs,
                    ])


def install(tracer: Tracer) -> None:
    """Wrap every measured function, for the rest of the process."""
    from repro.cachesim import pool as pool_mod
    from repro.cachesim import simulator as sim_mod
    from repro.cachesim.engine import ArrayLRUEngine
    from repro.cachesim.sharding import ShardedLRUSimulator
    from repro.core import analyzer as analyzer_mod
    from repro.experiments import aspen_batch as aspen_mod
    from repro.experiments import fig4_verification as fig4_mod
    from repro.experiments import fig5_profiling as fig5_mod
    from repro.faultinject.executor import PENDING, SupervisedCall
    from repro.kernels.barnes_hut import BarnesHutKernel
    from repro.kernels.base import Kernel
    from repro.service import supervisor as supervisor_mod
    from repro.service.journal import JobJournal
    from repro.trace.cache import TraceCache

    t = tracer

    def wrap(owner, attr, name, before=None, after=None):
        setattr(owner, attr, t.timed(name, getattr(owner, attr), before, after))

    # -- kernels: recording.  A cached Kernel.trace call is charged to
    # the trace-cache spans (and the nested uncached call on a miss).
    plain_trace = Kernel.trace

    def kernel_trace(self, workload, cache=None):
        if cache is not None:
            return plain_trace(self, workload, cache)
        idx = t.open("kernels.trace", {"kernel": self.name})
        try:
            trace = plain_trace(self, workload)
        finally:
            attrs = t.close(idx)
        attrs["refs"] = len(trace.addresses)
        return trace

    Kernel.trace = functools.wraps(plain_trace)(kernel_trace)

    plain_stream = Kernel.trace_stream

    def kernel_trace_stream(self, workload, chunk_refs, sink):
        refs = [0]

        def counting_sink(chunk):
            refs[0] += len(chunk.addresses)
            return sink(chunk)

        idx = t.open("kernels.trace", {"kernel": self.name})
        try:
            return plain_stream(self, workload, chunk_refs, counting_sink)
        finally:
            t.close(idx)["refs"] = refs[0]

    Kernel.trace_stream = functools.wraps(plain_stream)(kernel_trace_stream)

    # -- trace cache
    def after_get(attrs, result, *args, **kwargs):
        attrs["hit"] = result is not None

    def after_put(attrs, result, *args, **kwargs):
        attrs["bytes"] = os.stat(result).st_size

    wrap(TraceCache, "get", "trace.cache_get", after=after_get)
    wrap(TraceCache, "put", "trace.cache_put", after=after_put)

    # -- patterns (the analytical model)
    wrap(Kernel, "estimate_nha", "patterns.estimate")
    wrap(BarnesHutKernel, "profile_frequencies", "patterns.nb_profile")

    # -- core (DVF assembly)
    wrap(analyzer_mod.DVFAnalyzer, "analyze", "core.analyze")
    wrap(analyzer_mod.DVFAnalyzer, "runtime_provider", "core.resource_counts")
    wrap(analyzer_mod, "build_report", "core.build_report")

    # -- cachesim
    def after_run(attrs, result, sim, *args, **kwargs):
        attrs["engine"] = sim.engine
        attrs["shards"] = sim.shards
        attrs["jobs"] = sim.jobs
        if sim not in t._seen_sims:
            t._seen_sims.add(sim)
            attrs["first"] = True

    wrap(sim_mod.CacheSimulator, "run", "cachesim.run", after=after_run)
    wrap(sim_mod.CacheSimulator, "run_chunk", "cachesim.run",
         before=lambda *a, **k: {"chunk": True}, after=after_run)
    wrap(sim_mod.CacheSimulator, "_run_reference", "cachesim.oracle")

    def after_expand(attrs, result, *args, **kwargs):
        attrs["refs"] = len(result[0])

    wrap(sim_mod, "_expand_lines", "cachesim.expand", after=after_expand)

    def before_replay(engine, line_ids, *args, **kwargs):
        return {"touches": len(line_ids)}

    wrap(ArrayLRUEngine, "replay", "cachesim.engine.replay",
         before=before_replay)

    plain_sharded = ShardedLRUSimulator.replay_trace

    def sharded_replay(self, trace, stats, collect_events=False):
        clock, transport = self.clock, self.last_transport
        idx = t.open("cachesim.sharding.replay")
        try:
            return plain_sharded(self, trace, stats, collect_events)
        finally:
            attrs = t.close(idx)
            attrs["refs"] = self.clock - clock
            if self.last_transport is not transport:
                attrs["shm_bytes"] = self.last_transport["shm_bytes"]

    ShardedLRUSimulator.replay_trace = functools.wraps(plain_sharded)(
        sharded_replay
    )
    wrap(pool_mod, "get_pool", "cachesim.pool.spawn")

    # -- experiments drivers
    wrap(fig4_mod, "run_fig4", "experiments.fig4")
    wrap(fig5_mod, "run_fig5", "experiments.fig5")

    # -- aspen (runs inside service workers)
    wrap(aspen_mod, "evaluate_source", "aspen.evaluate")

    # -- service
    def after_start(attrs, result, call, *args, **kwargs):
        attrs["job"] = call.label.split()[1]
        attrs["started_at"] = call.started_at

    def after_poll(attrs, result, call, *args, **kwargs):
        # The first non-pending poll collects the attempt's outcome.
        if result is PENDING or call in t._polled:
            return
        t._polled.add(call)
        attrs["attempt_s"] = time.monotonic() - call.started_at

    wrap(supervisor_mod.JobSupervisor, "run", "service.drain",
         before=lambda *a, **k: {"monotonic": time.monotonic()})
    wrap(SupervisedCall, "start", "service.launch", after=after_start)
    wrap(SupervisedCall, "poll", "service.poll", after=after_poll)
    wrap(JobJournal, "done", "service.journal")
    wrap(JobJournal, "attempt_failed", "service.journal",
         before=lambda *a, **k: {"retry": True})
    supervisor_mod.execute_job = t.run_in_worker(supervisor_mod.execute_job)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def _children(spans: list) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] >= 0:
            out.setdefault(span[3], []).append(i)
    return out


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    kids = _children(spans)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = sum(spans[c][2] - spans[c][1] for c in kids.get(i, ()))
        out.append((end - start) - covered)
    return out


def _outermost(spans: list, names: set[str]) -> list[int]:
    """Spans named in ``names`` with no ancestor also named in it."""
    out = []
    for i, span in enumerate(spans):
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(i)
    return out


def _total(spans, names, where=lambda attrs: True) -> float:
    return sum(
        spans[i][2] - spans[i][1]
        for i in _outermost(spans, set(names))
        if where(spans[i][4])
    )


def layer_of(name: str) -> str:
    """Layer of a span: its name up to the last dot."""
    return name.rsplit(".", 1)[0]


def self_time_by_layer(spans: list, workers: bool) -> dict[str, float]:
    """Self seconds per layer, in the benchmark process or its workers."""
    table: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        if ("worker" in span[4]) == workers:
            layer = layer_of(span[0])
            table[layer] = table.get(layer, 0.0) + own
    return table


def _quantile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list, timed_from: float, timed_to: float) -> dict:
    """Per-layer metrics (name -> value) from a traced child's spans.

    Times are inclusive totals of the outermost span of each kind, so a
    nested call is not counted twice; ``*.self_s`` are self times.
    """
    m: dict[str, float] = {}
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span[4])
    own = self_times(spans)

    def count(name, where=lambda attrs: True):
        return sum(1 for attrs in by_name.get(name, ()) if where(attrs))

    def attr_sum(name, key):
        return sum(attrs.get(key, 0) for attrs in by_name.get(name, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    m["kernels.trace_s"] = _total(spans, ["kernels.trace"])
    for k in KERNEL_ORDER:
        m[f"kernels.trace_s.{k}"] = _total(
            spans, ["kernels.trace"], lambda a, k=k: a.get("kernel") == k
        )
    m["kernels.refs"] = attr_sum("kernels.trace", "refs")
    m["kernels.refs_per_s"] = ratio(m["kernels.refs"], m["kernels.trace_s"])

    gets = count("trace.cache_get")
    m["trace.cache_get_s"] = _total(spans, ["trace.cache_get"])
    m["trace.cache_put_s"] = _total(spans, ["trace.cache_put"])
    m["trace.cache_hit_ratio"] = ratio(
        count("trace.cache_get", lambda a: a.get("hit")), gets
    )
    m["trace.cache_bytes"] = attr_sum("trace.cache_put", "bytes")

    m["patterns.estimate_s"] = _total(spans, ["patterns.estimate"])
    m["patterns.estimate_calls"] = count("patterns.estimate")
    m["patterns.nb_profile_s"] = _total(spans, ["patterns.nb_profile"])

    m["core.analyze_s"] = _total(spans, ["core.analyze"])
    m["core.resource_counts_s"] = _total(spans, ["core.resource_counts"])
    m["core.build_report_s"] = _total(spans, ["core.build_report"])
    m["core.self_s"] = sum(
        o for s, o in zip(spans, own) if s[0].startswith("core.")
    )

    m["cachesim.run_s"] = _total(spans, ["cachesim.run"])
    for k in KERNEL_ORDER:
        m[f"cachesim.run_s.{k}"] = _total(
            spans, ["cachesim.run"], lambda a, k=k: a.get("kernel") == k
        )
    m["cachesim.expanded_refs"] = attr_sum("cachesim.expand", "refs") \
        + attr_sum("cachesim.sharding.replay", "refs")
    m["cachesim.refs_per_s"] = ratio(
        m["cachesim.expanded_refs"], m["cachesim.run_s"]
    )
    m["cachesim.chunks"] = count("cachesim.run", lambda a: a.get("chunk"))
    m["cachesim.expand_s"] = _total(spans, ["cachesim.expand"])
    m["cachesim.engine.replay_s"] = _total(spans, ["cachesim.engine.replay"])
    m["cachesim.engine.touches"] = attr_sum("cachesim.engine.replay", "touches")
    m["cachesim.oracle_s"] = _total(spans, ["cachesim.oracle"])
    first = [a for a in by_name.get("cachesim.run", ()) if a.get("first")]
    m["cachesim.route.reference"] = sum(
        1 for a in first if a["engine"] == "reference"
    )
    m["cachesim.route.array"] = sum(
        1 for a in first if a["engine"] == "array" and a["shards"] == 1
    )
    m["cachesim.route.sharded"] = sum(
        1 for a in first if a["engine"] == "array" and a["shards"] != 1
    )
    m["cachesim.sharding.replay_s"] = _total(
        spans, ["cachesim.sharding.replay"]
    )
    m["cachesim.pool.spawn_s"] = _total(spans, ["cachesim.pool.spawn"])
    m["cachesim.sharding.shm_bytes"] = attr_sum(
        "cachesim.sharding.replay", "shm_bytes"
    )

    m["aspen.evaluate_s"] = _total(spans, ["aspen.evaluate"])

    launches = by_name.get("service.launch", [])
    drains = by_name.get("service.drain", [])
    m["service.launch_s"] = _total(spans, ["service.launch"])
    attempts = [
        a["attempt_s"] for a in by_name.get("service.poll", ())
        if "attempt_s" in a
    ]
    m["service.attempt_p50_s"] = _quantile(attempts, 50)
    m["service.attempt_p95_s"] = _quantile(attempts, 95)
    m["service.worker_compute_s"] = _total(spans, ["service.job"])
    first_launch: dict[str, float] = {}
    for a in launches:
        first_launch.setdefault(a["job"], a["started_at"])
    waits = [
        at - drains[0]["monotonic"] for at in first_launch.values()
    ] if drains else []
    m["service.queue_wait_s"] = _quantile(waits, 50)
    m["service.journal_s"] = _total(spans, ["service.journal"])
    m["service.journal_writes"] = count("service.journal")
    m["service.attempts"] = len(launches)
    m["service.retries"] = count("service.journal", lambda a: a.get("retry"))

    m["experiments.self_s"] = sum(
        o for s, o in zip(spans, own) if s[0].startswith("experiments.")
    )

    covered = sum(
        min(end, timed_to) - max(start, timed_from)
        for _, start, end, parent, attrs in spans
        if parent < 0 and "worker" not in attrs
        and end > timed_from and start < timed_to
    )
    m["tracing.unattributed_s"] = (timed_to - timed_from) - covered
    return m

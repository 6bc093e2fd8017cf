"""Cache-simulation benchmark harness -> machine-readable trajectory.

Times both simulation engines over the Table II kernel traces on a set
of cache geometries and writes ``BENCH_cachesim.json``: refs/sec,
per-kernel wall time, array-over-reference speedup, and an
``identical`` flag confirming the two engines produced the same
statistics on every workload they were timed on.  Future PRs regress
against this file instead of re-deriving throughput claims by hand.

``--pipeline`` times the end-to-end Figure 4 pipeline instead and
writes ``BENCH_pipeline.json``: the sweep with a cold vs a warm
persistent trace cache, the Monte Carlo large-LLC simulation swept
across set-shard counts (1 / 2 / 4 / detected cores) with per-variant
``parallel_efficiency`` and shared-memory transport bytes — and a
``streaming`` section measuring *peak RSS* (``ru_maxrss``) of chunked
streaming replay vs monolithic replay of the same seeded synthetic
MC-style trace on the 8MB LLC, each in its own subprocess so the
high-water marks don't contaminate each other.  In streaming mode the
trace is generated chunk-by-chunk and never materialised, so the
recorded ``trace_bytes`` can exceed the streaming ``peak_rss_bytes``
severalfold.

Usage::

    PYTHONPATH=src python benchmarks/harness.py                 # paper scale
    PYTHONPATH=src python benchmarks/harness.py --tier test     # CI smoke
    PYTHONPATH=src python benchmarks/harness.py --out bench.json --repeats 5
    PYTHONPATH=src python benchmarks/harness.py --pipeline      # fig4 e2e

Geometries: both Table IV verification caches plus the paper's 8MB LLC
(the configuration the FI comparison analyses).  The wall time recorded
for each engine is the best of ``--repeats`` runs, cold cache each run.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import gc
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def _keep_large_buffers_on_heap() -> bool:
    """Raise glibc's mmap threshold so big numpy temporaries are reused.

    By default glibc serves allocations over 128 KiB straight from
    ``mmap`` and returns them to the OS on free, so every batched
    replay re-faults tens of MB of pages.  Keeping those buffers on
    the heap free-lists (``M_MMAP_THRESHOLD``) removes that tax for
    the whole process — both engines are timed under the same
    allocator.  Equivalent to ``MALLOC_MMAP_THRESHOLD_=1073741824``.
    """
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6")
        return bool(libc.mallopt(-3, 1 << 30))  # -3 == M_MMAP_THRESHOLD
    except (OSError, AttributeError):
        return False


# RSS-probe subprocesses measure memory, not speed: the mmap-threshold
# tuning deliberately trades RSS (freed buffers parked on free-lists)
# for allocation speed, which would inflate a streaming high-water mark
# by retained fragmentation.  Probes keep glibc's default behaviour of
# returning large buffers to the OS on free.
MALLOC_TUNED = (
    False if os.environ.get("DVF_RSS_PROBE") else _keep_large_buffers_on_heap()
)

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
if str(REPO_SRC) not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_SRC))

from repro.cachesim import (  # noqa: E402
    PAPER_CACHES,
    VERIFICATION_CACHES,
    CacheSimulator,
    expanded_size,
    shutdown_pool,
)
from repro.cachesim.simulator import _expand_lines  # noqa: E402
from repro.experiments.configs import KERNEL_ORDER, WORKLOADS  # noqa: E402
from repro.kernels.registry import KERNELS  # noqa: E402
from repro.trace.cache import TraceCache  # noqa: E402


def _cpus() -> int:
    """CPUs actually usable by this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1

#: Geometries the trajectory tracks: the Figure 4 verification caches
#: and the paper's 8MB last-level cache (Table IV).
BENCH_CACHES = {
    "small": VERIFICATION_CACHES["small"],
    "large": VERIFICATION_CACHES["large"],
    "8MB": PAPER_CACHES["8MB"],
}


def time_engine(trace, geometry, engine: str, repeats: int):
    """Best-of-``repeats`` cold-cache wall time and the final stats.

    The collector is drained before and disabled during each timed
    run (as pyperf does) so one engine's garbage doesn't bill the
    other's clock.
    """
    best = float("inf")
    stats = None
    for _ in range(repeats):
        sim = CacheSimulator(geometry, engine=engine)
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            sim.run(trace)
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
        stats = sim.stats.as_dict()
    return best, stats


def run_harness(
    tier: str = "verification", repeats: int = 3, kernels=KERNEL_ORDER
) -> dict:
    """Benchmark every kernel x geometry x engine; return the payload."""
    workloads = WORKLOADS[tier]
    results = []
    for cache_name, geometry in BENCH_CACHES.items():
        for kernel_name in kernels:
            trace = KERNELS[kernel_name].trace(workloads[kernel_name])
            refs = len(_expand_lines(trace, geometry.line_size)[0])
            ref_seconds, ref_stats = time_engine(
                trace, geometry, "reference", repeats
            )
            arr_seconds, arr_stats = time_engine(
                trace, geometry, "array", repeats
            )
            results.append(
                {
                    "kernel": kernel_name,
                    "cache": cache_name,
                    "expanded_refs": refs,
                    "reference_seconds": ref_seconds,
                    "array_seconds": arr_seconds,
                    "reference_refs_per_sec": refs / ref_seconds,
                    "array_refs_per_sec": refs / arr_seconds,
                    "speedup": ref_seconds / arr_seconds,
                    "identical": ref_stats == arr_stats,
                }
            )
    return {
        "schema": "BENCH_cachesim/1",
        "tier": tier,
        "repeats": repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "malloc_tuned": MALLOC_TUNED,
        "results": results,
        "max_speedup": max(r["speedup"] for r in results),
        "all_identical": all(r["identical"] for r in results),
    }


def _time_fig4(tier: str, cache: TraceCache | None):
    """One GC-isolated Figure 4 sweep; returns its wall time."""
    from repro.experiments.fig4_verification import run_fig4

    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        run_fig4(tier=tier, trace_cache=cache)
        return time.perf_counter() - start
    finally:
        gc.enable()


def bench_trace_cache(tier: str, repeats: int) -> dict:
    """Figure 4 end to end: cold vs warm persistent trace cache.

    Each repeat gets a fresh cache directory for the cold sweep, then
    reruns against the now-populated directory for the warm sweep; the
    best time of each side is recorded along with the hit/miss ledger
    of the final repeat (the warm sweep must re-trace nothing).  The
    warm sweep uses a *fresh* ``TraceCache`` instance — fresh-process
    semantics, so it pays real archive decodes, not the instance memo.
    """
    cold_best = warm_best = float("inf")
    ledger = {}
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(prefix="dvf-bench-cache-") as root:
            cold = TraceCache(root)
            cold_best = min(cold_best, _time_fig4(tier, cold))
            warm = TraceCache(root)
            warm_best = min(warm_best, _time_fig4(tier, warm))
            ledger = {
                "cold_misses": cold.misses,
                "warm_hits": warm.hits,
                "warm_misses": warm.misses,
            }
    return {
        "tier": tier,
        "cold_seconds": cold_best,
        "warm_seconds": warm_best,
        "warm_speedup": cold_best / warm_best,
        **ledger,
    }


def _time_sharded(trace, geometry, refs: int, repeats: int, **sim_kwargs):
    """Best-of-``repeats`` cold-cache sharded run; returns one variant row.

    The persistent worker pool is shut down first so the recorded best
    includes one pool spawn amortised across the repeats — the warm
    steady state a sweep or service actually sees.
    """
    shutdown_pool()
    best = float("inf")
    stats = transport = None
    resolved = {}
    for _ in range(repeats):
        sim = CacheSimulator(geometry, **sim_kwargs)
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            sim.run(trace)
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
        stats = sim.stats.as_dict()
        resolved = {"shards": sim.shards, "jobs": sim.jobs}
        engine = sim._array
        transport = getattr(engine, "last_transport", None)
        if transport is not None:
            transport = {
                k: v for k, v in transport.items() if k != "shm_name"
            }
    row = {
        **resolved,
        "seconds": best,
        "refs_per_sec": refs / best,
        "transport": transport,
        "stats": stats,
    }
    return row


def bench_sharded(tier: str, repeats: int, shard_counts=None) -> dict:
    """Monte Carlo on the paper's 8MB LLC across shard counts.

    The sweep covers the historical 1/2/4 points plus the detected core
    count, with ``jobs`` equal to the shard count (what ``--jobs K``
    selects).  Each row records wall time, speedup over single-shard,
    ``parallel_efficiency`` (speedup / jobs) and the shared-memory
    transport byte counts.
    """
    cpus = _cpus()
    geometry = PAPER_CACHES["8MB"]
    trace = KERNELS["MC"].trace(WORKLOADS[tier]["MC"])
    refs = expanded_size(trace, geometry.line_size)
    if shard_counts is None:
        shard_counts = sorted({1, 2, 4, cpus})
    variants = []
    for k in shard_counts:
        row = _time_sharded(
            trace, geometry, refs, repeats, engine="array", shards=k, jobs=k
        )
        variants.append(row)
    baseline = next(v for v in variants if v["shards"] == 1)
    base_stats = baseline["stats"]
    base_seconds = baseline["seconds"]
    for v in variants:
        v["identical"] = v.pop("stats") == base_stats
        v["speedup"] = base_seconds / v["seconds"]
        v["parallel_efficiency"] = v["speedup"] / max(1, v["jobs"])
    shutdown_pool()
    return {
        "kernel": "MC",
        "cache": "8MB",
        "tier": tier,
        "cpus": cpus,
        "expanded_refs": refs,
        "variants": variants,
        "all_identical": all(v["identical"] for v in variants),
    }


# --------------------------------------------------------------------
# Streaming replay: peak-RSS probes
# --------------------------------------------------------------------

#: Synthetic stream sizing per tier.  The verification point is sized so
#: the compact trace (21 bytes/ref) is several times larger than the
#: streaming process's whole peak RSS — the artifact the streaming
#: pipeline exists to produce.
STREAM_REFS = {"test": 4_000_000, "verification": 48_000_000}
STREAM_CHUNK_REFS = 262_144
STREAM_BYTES_PER_REF = 8 + 8 + 1 + 4  # addresses, sizes, is_write, label
_STREAM_LABELS = ["state", "rhs", "scratch"]
_STREAM_ADDR_SPACE = 1 << 26  # 64MB footprint: 8x the 8MB LLC
_STREAM_SEED = 2024


def synthetic_chunks(refs: int, chunk_refs: int, seed: int = _STREAM_SEED):
    """Yield a seeded MC-style reference stream chunk by chunk.

    Uniform 8-byte accesses over a footprint 8x the LLC, 30% writes,
    three labels.  One sequentially-consumed generator makes the stream
    a pure function of ``(refs, chunk_refs=any, seed)`` **per chunk
    boundary layout**, so the monolithic probe regenerates the identical
    trace by concatenating the same chunks; at no point here does more
    than one chunk exist.
    """
    import numpy as np

    from repro.trace.reference import ReferenceTrace

    rng = np.random.default_rng(seed)
    for start in range(0, refs, chunk_refs):
        n = min(chunk_refs, refs - start)
        yield ReferenceTrace(
            addresses=rng.integers(
                0, _STREAM_ADDR_SPACE, size=n, dtype=np.int64
            ),
            sizes=np.full(n, 8, dtype=np.int64),
            is_write=rng.random(n) < 0.3,
            label_ids=rng.integers(
                0, len(_STREAM_LABELS), size=n, dtype=np.int32
            ),
            labels=list(_STREAM_LABELS),
        )


def _peak_rss_bytes() -> int:
    """This process's lifetime RSS high-water mark, in bytes.

    Prefers ``/proc/self/status`` ``VmHWM`` where it exists: it is a
    property of the memory map, which ``execve`` replaces — whereas
    ``getrusage``'s ``ru_maxrss`` survives exec and therefore reports
    the *spawning benchmark parent's* high-water mark as a floor for
    every probe subprocess (measured: a trivial child of an 800MB
    parent shows ru_maxrss 826MB, VmHWM 9MB).
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    import resource

    ru_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return ru_maxrss * (1 if sys.platform == "darwin" else 1024)


def run_rss_probe(mode: str, refs: int, chunk_refs: int) -> dict:
    """One replay of the synthetic stream; prints a JSON result line.

    Runs inside a fresh subprocess (``--rss-probe``) so ``ru_maxrss``
    reflects only this mode's allocations on top of the interpreter
    baseline — a monolithic run in the same process would poison the
    streaming high-water mark.
    """
    import numpy as np

    from repro.cachesim.configs import PAPER_CACHES

    geometry = PAPER_CACHES["8MB"]
    start = time.perf_counter()
    if mode == "streaming":
        sim = CacheSimulator(geometry, engine="array")
        sim.run_stream(synthetic_chunks(refs, chunk_refs))
        stats = sim.stats.as_dict()
    elif mode == "monolithic":
        from repro.trace.reference import ReferenceTrace

        chunks = list(synthetic_chunks(refs, chunk_refs))
        trace = ReferenceTrace(
            addresses=np.concatenate([c.addresses for c in chunks]),
            sizes=np.concatenate([c.sizes for c in chunks]),
            is_write=np.concatenate([c.is_write for c in chunks]),
            label_ids=np.concatenate([c.label_ids for c in chunks]),
            labels=list(_STREAM_LABELS),
        )
        del chunks
        sim = CacheSimulator(geometry, engine="array")
        sim.run(trace)
        stats = sim.stats.as_dict()
    else:  # pragma: no cover - guarded by argparse choices
        raise ValueError(f"unknown probe mode {mode!r}")
    seconds = time.perf_counter() - start
    result = {
        "mode": mode,
        "refs": refs,
        "chunk_refs": chunk_refs,
        "seconds": seconds,
        "refs_per_sec": refs / seconds,
        "peak_rss_bytes": _peak_rss_bytes(),
        "malloc_tuned": MALLOC_TUNED,
        "stats": stats,
    }
    print(json.dumps(result))
    return result


def _spawn_probe(mode: str, refs: int, chunk_refs: int) -> dict:
    """Run one RSS probe in a subprocess and parse its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC)
    env["DVF_RSS_PROBE"] = "1"
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--rss-probe",
            mode,
            "--stream-refs",
            str(refs),
            "--chunk-refs",
            str(chunk_refs),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"rss probe {mode!r} failed "
            f"(exit {proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def bench_streaming(
    tier: str, refs: int | None = None, chunk_refs: int = STREAM_CHUNK_REFS
) -> dict:
    """Peak-RSS comparison: streaming vs monolithic replay.

    Each mode replays the same seeded synthetic stream in its own
    subprocess.  Records bit-identity of streaming vs monolithic
    statistics and ``trace_bytes / streaming peak RSS`` — the
    memory-bound headline (>1 means the replayed trace could not have
    fit in the memory streaming actually used).
    """
    if refs is None:
        refs = STREAM_REFS[tier]
    streaming = _spawn_probe("streaming", refs, chunk_refs)
    monolithic = _spawn_probe("monolithic", refs, chunk_refs)
    identical = streaming.pop("stats") == monolithic.pop("stats")
    trace_bytes = refs * STREAM_BYTES_PER_REF
    return {
        "refs": refs,
        "chunk_refs": chunk_refs,
        "trace_bytes": trace_bytes,
        "bytes_per_ref": STREAM_BYTES_PER_REF,
        "streaming": streaming,
        "monolithic": monolithic,
        "identical": identical,
        "rss_ratio": (
            monolithic["peak_rss_bytes"] / streaming["peak_rss_bytes"]
        ),
        "trace_over_streaming_rss": (
            trace_bytes / streaming["peak_rss_bytes"]
        ),
    }


def run_pipeline(tier: str = "verification", repeats: int = 2) -> dict:
    """End-to-end pipeline benchmark; returns the BENCH_pipeline payload."""
    return {
        "schema": "BENCH_pipeline/5",
        "tier": tier,
        "repeats": repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": _cpus(),
        "malloc_tuned": MALLOC_TUNED,
        "trace_cache": bench_trace_cache(tier, repeats),
        "sharded": bench_sharded(tier, repeats),
        "streaming": bench_streaming(tier),
    }


def render_pipeline(payload: dict) -> str:
    """Human-readable summary of a pipeline payload."""
    tc = payload["trace_cache"]
    lines = [
        f"BENCH_pipeline (tier={payload['tier']}, "
        f"repeats={payload['repeats']}, cpus={payload['cpus']})",
        f"  fig4 cold trace cache: {tc['cold_seconds']:7.2f}s "
        f"({tc['cold_misses']} traces collected)",
        f"  fig4 warm trace cache: {tc['warm_seconds']:7.2f}s "
        f"({tc['warm_hits']} hits, {tc['warm_misses']} misses)  "
        f"speedup {tc['warm_speedup']:.2f}x",
    ]
    sh = payload["sharded"]
    lines.append(
        f"  MC on {sh['cache']} ({sh['expanded_refs']} expanded refs, "
        f"{sh['cpus']} cpus):"
    )

    for v in sh["variants"]:
        transport = v.get("transport")
        shm = (
            f"  shm {transport['shm_bytes'] / 1e6:.1f}MB"
            if transport
            else ""
        )
        lines.append(
            f"    shards={v['shards']} jobs={v['jobs']}: "
            f"{v['seconds'] * 1e3:8.1f}ms  {v['refs_per_sec']:.3g} refs/s  "
            f"speedup {v['speedup']:.2f}x  "
            f"eff {v['parallel_efficiency']:.2f}{shm}  "
            f"identical={v['identical']}"
        )
    lines.append(f"  all shard counts identical: {sh['all_identical']}")
    st = payload["streaming"]
    lines.append(
        f"  streaming probes ({st['refs']} refs, "
        f"chunk {st['chunk_refs']}, trace "
        f"{st['trace_bytes'] / 1e6:.0f}MB):"
    )
    for mode in ("monolithic", "streaming"):
        row = st[mode]
        lines.append(
            f"    {mode:10s}: {row['seconds']:7.2f}s  "
            f"{row['refs_per_sec']:.3g} refs/s  "
            f"peak RSS {row['peak_rss_bytes'] / 1e6:7.1f}MB"
        )
    lines.append(
        f"    identical={st['identical']}  "
        f"RSS ratio mono/stream {st['rss_ratio']:.2f}x  "
        f"trace/streaming-RSS {st['trace_over_streaming_rss']:.2f}x"
    )
    return "\n".join(lines)


def render(payload: dict) -> str:
    """Human-readable summary of a harness payload."""
    lines = [
        f"BENCH_cachesim (tier={payload['tier']}, "
        f"repeats={payload['repeats']})"
    ]
    for r in payload["results"]:
        lines.append(
            f"  {r['kernel']:3s} on {r['cache']:5s}: "
            f"{r['expanded_refs']:9d} refs  "
            f"ref {r['reference_seconds'] * 1e3:8.1f}ms  "
            f"array {r['array_seconds'] * 1e3:8.1f}ms  "
            f"{r['array_refs_per_sec']:.3g} refs/s  "
            f"speedup {r['speedup']:5.1f}x  "
            f"identical={r['identical']}"
        )
    lines.append(
        f"max speedup: {payload['max_speedup']:.1f}x; "
        f"all engines identical: {payload['all_identical']}"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the cache-simulation engines"
    )
    parser.add_argument(
        "--tier",
        choices=("verification", "test"),
        default="verification",
        help="workload tier (default: paper verification sizes; "
        "'test' is the fast smoke sweep CI uses)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed repetitions per engine; best run is recorded",
    )
    parser.add_argument(
        "--pipeline",
        action="store_true",
        help="benchmark the end-to-end fig4 pipeline (trace cache "
        "cold/warm, sharded simulation) instead of the raw engines",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path for the machine-readable trajectory "
        "(default: BENCH_cachesim.json, or BENCH_pipeline.json "
        "with --pipeline)",
    )
    parser.add_argument(
        "--rss-probe",
        choices=("streaming", "monolithic"),
        default=None,
        metavar="MODE",
        help="internal: replay the synthetic stream in MODE and print "
        "one JSON line with wall time and this process's peak RSS "
        "(the --pipeline parent spawns one subprocess per mode)",
    )
    parser.add_argument(
        "--stream-refs",
        type=int,
        default=None,
        metavar="N",
        help="with --rss-probe: length of the synthetic stream "
        "(default: the tier's STREAM_REFS)",
    )
    parser.add_argument(
        "--chunk-refs",
        type=int,
        default=STREAM_CHUNK_REFS,
        metavar="N",
        help="with --rss-probe: streaming chunk size in references",
    )
    args = parser.parse_args(argv)
    if args.rss_probe:
        refs = args.stream_refs or STREAM_REFS[args.tier]
        run_rss_probe(args.rss_probe, refs, args.chunk_refs)
        return 0
    if args.pipeline:
        out = args.out or "BENCH_pipeline.json"
        payload = run_pipeline(tier=args.tier, repeats=args.repeats)
        ok = (
            payload["sharded"]["all_identical"]
            and payload["streaming"]["identical"]
        )
        text = render_pipeline(payload)
    else:
        out = args.out or "BENCH_cachesim.json"
        payload = run_harness(tier=args.tier, repeats=args.repeats)
        ok = payload["all_identical"]
        text = render(payload)
    Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    print(text)
    print(f"wrote {out}")
    if not ok:
        print("ERROR: simulation variants disagreed on at least one "
              "workload", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

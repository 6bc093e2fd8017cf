"""One measured repetition of a workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so that every
repetition pays what a user's process pays: imports, the Barnes-Hut
profile memo, the trace-cache memo and the shard-pool spawn.  It
writes one JSON object to ``--out`` and exits 0 even when outputs are
wrong (the object says so); any other exit means the repetition broke.

``--t0`` is the parent's ``time.monotonic()`` just before it started
this interpreter; ``setup_s`` runs from there until the inputs are
ready.  An untraced repetition runs a :class:`SpeedSampler` from start
to end and reports ``setup_s``, ``wall_s`` and job latencies in
seconds of the reference host (:func:`scaled`); the measured seconds
go out as ``setup_raw_s`` and ``wall_raw_s``.  ``--trace`` installs the
span wrappers of ``tracer.py`` after the imports instead, and reports
measured seconds only.  Without it nothing in the program is wrapped,
except that the service workload always records two timestamps per job
(first launch, terminal record) to measure job latency.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _vm_hwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _imports(workload: str) -> None:
    """Import what the workload's entry point needs, as the CLI would."""
    import repro

    found = Path(repro.__file__).resolve().parent
    if found != (SRC / "repro").resolve():
        raise SystemExit(f"imported repro from {found}, not from {SRC}")
    if workload == "fig4":
        import repro.experiments.fig4_verification  # noqa: F401
    elif workload == "fig5":
        import repro.experiments.fig5_profiling  # noqa: F401
    elif workload == "replay":
        import repro.core.validation  # noqa: F401
    else:
        # Like the CLI, the service parent imports the kernels and scipy
        # before it forks, so workers do not pay imports per job.
        import repro.core.analyzer  # noqa: F401
        import repro.experiments.aspen_batch  # noqa: F401
        import repro.kernels.registry  # noqa: F401
        import repro.service.supervisor  # noqa: F401
        import scipy.stats  # noqa: F401


class JobClock:
    """First-launch and terminal-record timestamps per service job."""

    def __init__(self):
        self.launched: dict[str, float] = {}
        self.finished: dict[str, float] = {}

    def install(self) -> None:
        from repro.faultinject.executor import SupervisedCall
        from repro.service.journal import JobJournal

        start, done = SupervisedCall.start, JobJournal.done
        launched, finished = self.launched, self.finished

        @functools.wraps(start)
        def timed_start(call):
            launched.setdefault(call.label.split()[1], time.perf_counter())
            return start(call)

        @functools.wraps(done)
        def timed_done(journal, spec, record):
            result = done(journal, spec, record)
            finished[spec.id] = time.perf_counter()
            return result

        SupervisedCall.start = timed_start
        JobJournal.done = timed_done

    def latencies(self) -> list[float]:
        return [
            self.finished[job] - at
            for job, at in self.launched.items() if job in self.finished
        ]


#: Wall-clock seconds between speed samples.
SAMPLE_INTERVAL_S = 0.05
#: Work of one speed sample: pure-Python loop iterations, then small
#: numpy operations (interpreter dispatch plus short array kernels).
SAMPLE_LOOPS = 10_000
SAMPLE_NP_OPS = 200
#: CPU seconds one sample takes on the reference host, a 2-CPU x86-64
#: VM, at the faster of the two speeds it runs at.  Reported times are
#: seconds of that host at that speed.
SAMPLE_REF_S = 0.00113


class SpeedSampler:
    """Samples the host's speed on a wall-clock timer.

    The shared host runs this VM at two speeds, 1.4-1.9x apart depending
    on the code, switching within seconds and staying at one for
    minutes.  The guest sees neither steal nor idle time: CPU time grows
    with wall time.  So every :data:`SAMPLE_INTERVAL_S` a ``SIGALRM``
    handler runs a fixed piece of work and records its cost in CPU
    seconds of this thread, which the program's own other processes do
    not inflate.  Timers are not inherited across ``fork``, so workers
    are never interrupted.
    """

    def __init__(self):
        import numpy

        self._arrays = [numpy.arange(100, dtype=numpy.float64) + k
                        for k in range(64)]
        #: ``(perf_counter at start, CPU seconds)`` per sample.
        self.samples: list[tuple[float, float]] = []
        #: Wall seconds spent sampling, to take out of measured times.
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        wall = time.perf_counter()
        cpu = time.thread_time()
        total = 0
        for i in range(SAMPLE_LOOPS):
            total += i * i % 7
        arrays, acc = self._arrays, 0.0
        for k in range(SAMPLE_NP_OPS):
            acc += float((arrays[k & 63] * arrays[(k * 7) & 63]).sum())
        self.samples.append((wall, time.thread_time() - cpu))
        self.spent += time.perf_counter() - wall

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float, float]:
        """State to measure an interval from: samples, spent, clock."""
        return len(self.samples), self.spent, time.perf_counter()

    def since(self, mark) -> tuple[float, list]:
        """Wall seconds since ``mark`` less sampling, and its samples.

        An interval shorter than the timer's period gets one sample,
        taken at its end.
        """
        count, spent, clock = mark
        wall = time.perf_counter() - clock - (self.spent - spent)
        if len(self.samples) == count:
            self._sample(None, None)
        return wall, self.samples[count:]


def scaled(seconds: float, samples: list) -> float:
    """``seconds`` of work in reference-host seconds.

    The samples are spread evenly over the interval's wall time, so the
    mean of their speeds (not of their costs) is the host's mean speed
    over it: work done = seconds x mean speed.
    """
    speed = sum(1.0 / cost for _, cost in samples) / len(samples)
    return seconds * SAMPLE_REF_S * speed


def _run_cells(order, entry, tracer, errors) -> dict:
    """Each cell's entry-call result; a raising cell's is None."""
    results = {}
    for kernel, cache in order:
        if tracer is not None:
            tracer.tags = {"kernel": kernel, "cache": cache}
        try:
            results[(kernel, cache)] = entry(kernel, cache)
        except Exception as exc:  # a failed cell counts, the run goes on
            results[(kernel, cache)] = None
            errors[f"{kernel}|{cache}"] = repr(exc)
    if tracer is not None:
        tracer.tags = {}
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig4", "fig5", "replay", "service"))
    parser.add_argument("--order-seed", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = args.workload
    args.work.mkdir(parents=True, exist_ok=True)

    sampler = None
    if not args.trace:
        sampler = SpeedSampler()
        setup_mark = sampler.mark()
        sampler.start()
    start = time.perf_counter()
    _imports(workload)
    import spec
    from repro.cachesim.configs import PAPER_CACHES
    from repro.cachesim.pool import effective_cpus, shutdown_pool
    from repro.experiments.configs import (
        FIG4_CACHES,
        FIG5_CACHES,
        KERNEL_ORDER,
        WORKLOADS,
    )
    from repro.kernels.registry import KERNELS

    out: dict = {"import_s": time.perf_counter() - start}

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        worker_dir = args.work / "worker-spans"
        worker_dir.mkdir()
        tracer = tracer_mod.Tracer(worker_dir)
        tracer_mod.install(tracer)

    # -- set-up: everything before the entry call ----------------------
    verification = WORKLOADS["verification"]
    clock = None
    if workload == "replay":
        from repro.core import validation
        from repro.trace.cache import TraceCache

        start = time.perf_counter()
        recorder_cache = TraceCache(args.work / "trace-cache")
        for name in KERNEL_ORDER:
            KERNELS[name].trace(verification[name], cache=recorder_cache)
        out["record_s"] = time.perf_counter() - start
    elif workload == "service":
        from repro.service import scenario as scenario_mod
        from repro.service import supervisor

        start = time.perf_counter()
        state = args.work / "service-state"
        scenario = scenario_mod.parse_scenario(spec.scenario(args.order_seed))
        supervisor.submit_scenario(state, scenario)
        out["submit_s"] = time.perf_counter() - start
        clock = JobClock()
        clock.install()
    order = spec.permuted(
        spec.cells(workload) if workload != "service" else [],
        args.order_seed,
    )
    if sampler is not None:
        _, setup_samples = sampler.since(setup_mark)
        out["setup_raw_s"] = time.monotonic() - args.t0 - sampler.spent
    else:
        out["setup_raw_s"] = time.monotonic() - args.t0

    # -- the timed entry calls -----------------------------------------
    errors: dict = {}
    latencies: list[float] = []
    cpu_before = _cpu_s()
    mark = sampler.mark() if sampler else None
    timed_from = time.perf_counter()
    if workload == "fig4":
        from repro.experiments import fig4_verification

        results = _run_cells(order, lambda k, c: fig4_verification.run_fig4(
            tier="verification", kernels=(k,), caches={c: FIG4_CACHES[c]}
        ), tracer, errors)
    elif workload == "fig5":
        from repro.experiments import fig5_profiling

        results = _run_cells(order, lambda k, c: fig5_profiling.run_fig5(
            tier="profiling", kernels=(k,), caches={c: FIG5_CACHES[c]}
        ), tracer, errors)
    elif workload == "replay":
        replay_cache = TraceCache(args.work / "trace-cache")
        results = _run_cells(order, lambda k, c: validation.ground_truth_stats(
            KERNELS[k], verification[k], PAPER_CACHES[c],
            trace_cache=replay_cache, chunk_refs=spec.REPLAY_CHUNK_REFS,
        ), tracer, errors)
    else:
        try:
            results = supervisor.run_service(state)
        except Exception as exc:  # every job counts as failed
            results = None
            errors["run_service"] = repr(exc)
        latencies = clock.latencies()
    timed_to = time.perf_counter()
    if sampler is not None:
        out["wall_raw_s"], samples = sampler.since(mark)
        sampler.stop()
        sample_s = sampler.spent - mark[1]
        out["setup_s"] = scaled(out["setup_raw_s"], setup_samples)
        out["wall_s"] = scaled(out["wall_raw_s"], samples)
        latencies = [scaled(x, samples) for x in latencies]
        out["samples"] = [setup_samples, samples]
    else:
        out["wall_raw_s"] = out["wall_s"] = timed_to - timed_from
        out["setup_s"] = out["setup_raw_s"]
        sample_s = 0.0
    shutdown_pool()  # reaps shard-pool workers, so their CPU time counts
    out["cpu_s"] = _cpu_s() - cpu_before - sample_s
    out["latencies"] = latencies
    out["rss_self_mb"] = _vm_hwm_mb()
    out["rss_workers_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    )
    out["cpus"] = effective_cpus()

    # -- checks against the pinned outputs -----------------------------
    pinned = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))
    failures = check(workload, results, errors, pinned)
    out["attempted"] = (
        len(order) if workload != "service" else len(spec.service_jobs())
    )
    out["failed"] = len(failures)
    out["failures"] = failures[:5]

    if tracer is not None:
        tracer.merge_workers()
        spans = tracer.spans
        out["layers"] = tracer_mod.layer_metrics(spans, timed_from, timed_to)
        out["layers"]["setup.import_s"] = out["import_s"]
        out["layers"]["setup.record_s"] = out.get("record_s", 0.0)
        out["layers"]["setup.submit_s"] = out.get("submit_s", 0.0)
        out["layers"]["process.cpu_s"] = out["cpu_s"]
        out["self_by_layer"] = tracer_mod.self_time_by_layer(spans, False)
        out["worker_self_by_layer"] = tracer_mod.self_time_by_layer(
            spans, True
        )
        out["routes"] = {
            f"{a['kernel']}|{a['cache']}": {
                "engine": a["engine"], "shards": a["shards"],
                "jobs": a["jobs"],
            }
            for name, _, _, _, a in spans
            if name == "cachesim.run" and a.get("first") and "kernel" in a
        }
        out["spans"] = spans
        out["timed_from"] = timed_from
    args.out.write_text(json.dumps(out), encoding="utf-8")
    return 0


def check(workload: str, results, errors: dict, pinned: dict) -> list[str]:
    """One line per failed cell or job, empty when all match the pins.

    ``results`` maps cells to entry-call results, or is the service
    run (``None`` if it raised).
    """
    import spec

    failures = []
    if workload == "service":
        records = {r["job"]: r for r in results.records} if results else {}
        for job in spec.service_jobs():
            record = records.get(job["id"])
            if record is None:
                failures.append(f"{job['id']}: no record {errors}")
            elif record["outcome"] != "succeeded":
                failures.append(f"{job['id']}: {record['outcome']}")
            else:
                found = spec.mismatch(
                    spec.by_structure(
                        pinned["service"][spec.pin_key(job["id"])]
                    ),
                    spec.by_structure(record["payload"]), job["id"],
                )
                if found:
                    failures.append(found)
        return failures
    for key, result in results.items():
        name = spec.cell_key(*key)
        if result is None:
            failures.append(f"{name}: raised {errors.get(name)}")
            continue
        if workload == "fig4":
            expected = {
                "nha": pinned["fig4_nha"][name],
                "misses": {
                    s: pinned["sim"][name][s][1]
                    for s in pinned["fig4_nha"][name]
                },
            }
            actual = {
                "nha": {r.structure: r.estimated for r in result},
                "misses": {r.structure: r.simulated for r in result},
            }
        elif workload == "fig5":
            expected = pinned["fig5"][name]
            actual = {c.structure: [c.dvf, c.nha] for c in result}
        else:
            expected = pinned["sim"][name]
            actual = spec.stats_table(result)
        found = spec.mismatch(expected, actual, name)
        if found:
            failures.append(found)
    return failures


if __name__ == "__main__":
    sys.exit(main())

"""Repository benchmark: fig4, fig5, replay and service workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig4 --seed 1 --seconds 24 --trace 0

Each repetition runs ``child.py`` in a fresh interpreter (with the
checkout's ``src`` on ``PYTHONPATH``), one after another, and checks its
outputs against ``pinned.json``.  ``--seconds`` sets how many
repetitions a run makes, the same count in every run, so percentiles
sit at the same sample positions.  ``--seed`` permutes the order of
cells and jobs and nothing else.  End-to-end times are in seconds of
the reference host: each repetition samples the host's speed while it
runs and scales its measured times by it (``child.SpeedSampler``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions of one order, prints the per-layer
metrics of the traced ones plus the tracing overhead, and writes the
spans to ``.perfbench/traces/``.  Every run writes its record, with the host
context, to ``.perfbench/results/``; ``--compare OLD NEW`` compares two
records and refuses records from hosts with different CPU counts.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every repetition ran and matched the pinned outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("fig4", "fig5", "replay", "service")

#: Nominal seconds per repetition (interpreter start to exit) on a
#: 2-CPU x86-64 VM; turns ``--seconds`` into a repetition count.
REP_SECONDS = {"fig4": 5.0, "fig5": 7.3, "replay": 6.6, "service": 4.0}
MIN_REPS = 2
#: Untraced/traced repetition pairs of a ``--trace 1`` run.
TRACE_PAIRS = 2
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "job_p50_s": "s",
    "job_p95_s": "s",
}


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _context() -> dict:
    import numpy
    import scipy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run_child(workload: str, order_seed: str, trace: int, work: Path) -> dict:
    """One repetition in a fresh interpreter; returns its result object."""
    work.mkdir(parents=True)
    out = work / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--order-seed", order_seed,
        "--work", str(work / "tmp"), "--out", str(out),
        "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not out.exists():
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(
            f"{workload} repetition exited with {proc.returncode}"
        )
    return json.loads(out.read_text(encoding="utf-8"))


def end_to_end(workload: str, results: list[dict]) -> dict:
    """End-to-end metrics and their sample counts over repetitions.

    Times are medians, in reference-host seconds.  ``peak_rss_mb`` is
    the highest peak of any repetition: on ``replay`` one repetition's
    peak lands at one of two levels, about 220 or 235 MB, and a median
    would flip between them.

    A service job is one queued job, timed from its first launch to its
    terminal record, pooled over repetitions.  On the sweep workloads a
    job is one whole repetition as a user starts it from the command
    line: interpreter start to results, ``setup_s + wall_s``.  (Single
    cells are no unit a user waits for, and their times depend on which
    cell of a kernel runs first, which the seed changes.)
    """
    if workload == "service":
        latencies = [x for r in results for x in r["latencies"]]
    else:
        latencies = [r["setup_s"] + r["wall_s"] for r in results]
    reps = len(results)
    peak = [max(r["rss_self_mb"], r["rss_workers_mb"]) for r in results]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in results), reps),
        "wall_s": (statistics.median(r["wall_s"] for r in results), reps),
        "peak_rss_mb": (max(peak), reps),
        "job_p50_s": (statistics.median(latencies), len(latencies)),
        "job_p95_s": (_percentile(latencies, 95), len(latencies)),
    }


def compare(old_path: Path, new_path: Path) -> int:
    """Print per-metric medians of two run records side by side."""
    old = json.loads(old_path.read_text(encoding="utf-8"))
    new = json.loads(new_path.read_text(encoding="utf-8"))
    if old["context"]["cpus"] != new["context"]["cpus"]:
        print(
            f"refusing to compare: {old['context']['cpus']} CPUs vs "
            f"{new['context']['cpus']} CPUs (the auto routes differ)",
            file=sys.stderr,
        )
        return 2
    if old["workload"] != new["workload"]:
        print("refusing to compare different workloads", file=sys.stderr)
        return 2
    for name, entry in old["metrics"].items():
        if name in new["metrics"]:
            a, b = entry["value"], new["metrics"][name]["value"]
            change = f"{(b - a) / a:+.1%}" if a else "n/a"
            print(f"{name}: {a:.6g} -> {b:.6g} {entry['unit']} ({change})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2

    workload, seed = args.workload, args.seed
    stamp = f"{workload}-seed{seed}-trace{args.trace}-{os.getpid()}"
    work = OUT / "work" / stamp
    shutil.rmtree(work, ignore_errors=True)
    load_before = os.getloadavg()
    try:
        if args.trace:
            # Alternate untraced and traced repetitions of one order.
            order = f"{seed}:0"
            results = [
                run_child(workload, order, i % 2, work / f"rep{i}")
                for i in range(2 * TRACE_PAIRS)
            ]
            plain, traced = results[0::2], results[1::2]
        else:
            reps = max(MIN_REPS, round(args.seconds / REP_SECONDS[workload]))
            results = [
                run_child(workload, f"{seed}:{i}", 0, work / f"rep{i}")
                for i in range(reps)
            ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context = _context()
    context["loadavg_before"] = load_before
    context["loadavg_after"] = os.getloadavg()
    context["child_cpus"] = sorted({r["cpus"] for r in results})

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for line in r["failures"]:
            print(f"MISMATCH {line}", file=sys.stderr)

    metrics: dict = {}
    if args.trace:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        layers["tracing.overhead_ratio"] = (
            statistics.median(r["wall_raw_s"] for r in traced)
            / statistics.median(r["wall_raw_s"] for r in plain)
        )
        for name, value in layers.items():
            metrics[name] = {"value": value, "unit": _layer_unit(name)}
            print(f"{name} = {value:.6g} {_layer_unit(name)} "
                  f"(n={len(traced)})")
        last = traced[-1]
        _print_self_table(last)
        print(f"routes: {json.dumps(last['routes'], sort_keys=True)}")
        trace_path = OUT / "traces" / f"{stamp}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({
            "run_id": stamp,
            "timed_from": last["timed_from"],
            "routes": last["routes"],
            "self_by_layer": last["self_by_layer"],
            "worker_self_by_layer": last["worker_self_by_layer"],
            "spans": last["spans"],
        }), encoding="utf-8")
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        for name, (value, n) in end_to_end(workload, results).items():
            unit = END_TO_END[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} = {value:.6g} {unit} (n={n})")
    print(f"failed_ratio = {failed / attempted:.6g} fraction "
          f"(n={attempted})")
    print(f"context: {json.dumps(context, sort_keys=True)}")

    record = OUT / "results" / f"{stamp}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({
        "workload": workload, "seed": seed, "trace": args.trace,
        "context": context, "metrics": metrics,
        "repetitions": [
            {k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "rss_self_mb",
                               "rss_workers_mb", "setup_raw_s",
                               "wall_raw_s", "samples", "latencies")
             if k in r}
            for r in results
        ],
        "routes": results[-1].get("routes"),
        "attempted": attempted, "failed": failed,
    }, indent=1), encoding="utf-8")

    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "refs/s"
    if name.endswith("_s") or ".trace_s." in name or ".run_s." in name:
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _print_self_table(traced: dict) -> None:
    for title, table in (("benchmark process", traced["self_by_layer"]),
                         ("service workers", traced["worker_self_by_layer"])):
        if not table:
            continue
        total = sum(table.values()) or 1.0
        print(f"self time by layer ({title}):")
        for layer, seconds in sorted(table.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<22} {seconds:9.3f} s  {seconds / total:6.1%}")


if __name__ == "__main__":
    sys.exit(main())

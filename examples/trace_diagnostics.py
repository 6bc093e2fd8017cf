"""Diagnosing a new application's access patterns from a trace.

When modeling an unfamiliar code in the Aspen DSL, the first question
is *which CGPMAC pattern describes each data structure*.  This example
records a trace of an (intentionally mixed) computation, then uses the
trace diagnostics to answer that question empirically:

* per-structure footprint and write-mix summary;
* reuse-distance histograms (the fingerprint of each pattern family);
* a miss-ratio curve to size the cache sensitivity;
* the automatic pattern suggestion.

Run:  python examples/trace_diagnostics.py
"""

import numpy as np

from repro.core.report import format_table
from repro.trace.analysis import (
    footprint_summary,
    miss_ratio_curve,
    reuse_distance_histogram,
    suggest_pattern,
)
from repro.trace.recorder import TraceRecorder


def record_mixed_workload() -> "ReferenceTrace":
    """A synthetic app with one structure per pattern family."""
    rng = np.random.default_rng(7)
    rec = TraceRecorder()
    rec.allocate("stream", 4096, 8)     # read once, front to back
    rec.allocate("stencil", 2048, 8)    # regular repeated sweeps
    rec.allocate("table", 8192, 8)      # random lookups
    rec.record_stream("stream", 0, 4096)
    for _ in range(4):                  # four smoother-style sweeps
        rec.record_stream("stencil", 0, 2048)
    rec.record_elements("table", rng.integers(0, 8192, 6000), False)
    rec.record_stream("stencil", 0, 2048, is_write=True)
    return rec.finish()


def main() -> None:
    trace = record_mixed_workload()
    line_size = 64

    print("Per-structure footprint summary")
    print(
        format_table(
            ["structure", "references", "distinct blocks", "write frac",
             "bytes touched"],
            [
                (f.label, f.references, f.distinct_blocks,
                 f"{f.write_fraction:.2f}", f.bytes_touched)
                for f in footprint_summary(trace, line_size)
            ],
        )
    )
    print()

    print("Reuse-distance fingerprints (top buckets; -1 = cold)")
    for label in trace.labels:
        hist = reuse_distance_histogram(trace, line_size, label=label)
        top = sorted(hist.items(), key=lambda kv: -kv[1])[:4]
        rendered = ", ".join(f"d={d}: {c}" for d, c in top)
        print(f"  {label:8s} {rendered}")
    print()

    print("Miss-ratio curve (fully-associative LRU, whole trace)")
    curve = miss_ratio_curve(trace, line_size, sizes=[16, 64, 256, 1024])
    print(
        format_table(
            ["cache blocks", "miss ratio"],
            [(s, f"{r:.3f}") for s, r in sorted(curve.items())],
        )
    )
    print()

    print("Suggested CGPMAC pattern per structure:")
    for label in trace.labels:
        print(f"  {label:8s} -> {suggest_pattern(trace, label, line_size)}")
    print()
    print(
        "With the patterns identified, each structure can be declared in "
        "an Aspen\nmodel (see examples/custom_model_dsl.py) and DVF "
        "evaluated analytically."
    )


if __name__ == "__main__":
    main()

"""Memory-reference collection — the Pin substitute.

The paper uses a Pin-based tool to collect labelled memory references
from the running kernels and feeds them to a cache simulator (§IV).  We
replace binary instrumentation with an explicit recording layer:

* :class:`AddressSpace` assigns contiguous byte ranges to named data
  structures (a bump allocator, like a loader laying out arrays);
* :class:`TraceRecorder` accumulates references in *columnar* numpy
  buffers (address / write-flag / label-id; each label's element size
  is kept once, in the label table), which keeps
  million-reference traces cheap and lets kernels emit whole vectorised
  access bursts at once (per the HPC guides: vectorise, avoid per-item
  Python overhead);
* :class:`ReferenceTrace` is the immutable, query-friendly result;
* :class:`PeriodicTrace` holds a trace that repeats one period (an
  iterative kernel's iteration) as that period and its repeat count;
* :class:`TraceCache` keeps traces across runs as a directory of
  content-addressed ``.npz`` archives.
"""

from repro.trace.address_space import AddressSpace, Segment
from repro.trace.cache import TraceCache, as_trace_cache, trace_key
from repro.trace.recorder import TraceRecorder
from repro.trace.reference import PeriodicTrace, ReferenceTrace, iter_chunks
from repro.trace.io import (
    TRACE_SCHEMA_VERSION,
    load_periodic_trace,
    load_trace,
    save_trace,
)

__all__ = [
    "AddressSpace",
    "Segment",
    "TraceRecorder",
    "ReferenceTrace",
    "PeriodicTrace",
    "iter_chunks",
    "TraceCache",
    "as_trace_cache",
    "trace_key",
    "TRACE_SCHEMA_VERSION",
    "save_trace",
    "load_trace",
    "load_periodic_trace",
]

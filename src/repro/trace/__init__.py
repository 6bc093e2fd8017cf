"""Memory-reference collection — the Pin substitute.

The paper uses a Pin-based tool to collect labelled memory references
from the running kernels and feeds them to a cache simulator (§IV).  We
replace binary instrumentation with an explicit recording layer:

* :class:`~repro.trace.address_space.AddressSpace` assigns contiguous
  byte ranges to named data structures (a bump allocator, like a loader
  laying out arrays);
* :class:`~repro.trace.recorder.TraceRecorder` accumulates references
  in *columnar* numpy buffers (address / write-flag / label-id; each
  label's element size is kept once, in the label table), which keeps
  million-reference traces cheap and lets kernels emit whole vectorised
  access bursts at once (per the HPC guides: vectorise, avoid per-item
  Python overhead);
* :class:`~repro.trace.reference.ReferenceTrace` is the immutable,
  query-friendly result;
* :class:`~repro.trace.reference.PeriodicTrace` holds a trace that
  repeats one period (an iterative kernel's iteration) as that period
  and its repeat count;
* :class:`~repro.trace.cache.TraceCache` keeps traces across runs as a
  directory of content-addressed ``.npz`` archives.
"""

"""Kernel abstractions.

Each paper kernel (Table II) is implemented twice, deliberately:

1. an *instrumented execution* — the actual numerical algorithm in
   Python, recording every major-data-structure memory reference through
   :class:`~repro.trace.recorder.TraceRecorder` (the Pin substitute).
   This is the ground truth the cache simulator consumes for Figure 4.
2. an *analytical model* — CGPMAC pattern objects (and an Aspen DSL
   source string) describing the same accesses, evaluated in
   microseconds.  This is what DVF profiling uses.

Keeping both behind one :class:`Kernel` interface lets the validation
harness compare them mechanically.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.cachesim.configs import CacheGeometry
from repro.diagnostics import DiagnosticSink
from repro.patterns.base import AccessPattern
from repro.patterns.composite import CompositeAccessModel, estimate_structures
from repro.trace.cache import TraceCache, as_trace_cache
from repro.trace.recorder import TraceRecorder
from repro.trace.reference import PeriodicTrace, ReferenceTrace


@dataclass(frozen=True)
class Workload:
    """A named parameter set for a kernel (paper Tables V and VI)."""

    name: str
    params: dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.params.get(key, default)

    def __getitem__(self, key: str) -> Any:
        try:
            return self.params[key]
        except KeyError:
            raise KeyError(
                f"workload {self.name!r} has no parameter {key!r}; "
                f"has {sorted(self.params)}"
            ) from None


@dataclass(frozen=True)
class ResourceCounts:
    """Roofline inputs for one kernel run."""

    flops: float
    loads: float
    stores: float

    @property
    def bytes_moved(self) -> float:
        return self.loads + self.stores


class Kernel(ABC):
    """One of the paper's numerical kernels (Table II)."""

    #: Short name as in Table II ("VM", "CG", ...).
    name: str = "?"
    #: Computational-method class from Table II.
    method_class: str = "?"
    #: ``run_traced`` records inside one ``recorder.periods()`` loop:
    #: the trace is one period (an iteration) repeated.  Replay then
    #: records that period into memory instead of streaming every
    #: iteration (:func:`~repro.core.validation.ground_truth_stats`).
    periodic: bool = False

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @abstractmethod
    def data_structures(self, workload: Workload) -> dict[str, tuple[int, int]]:
        """Major data structures: ``{label: (num_elements, element_size)}``."""

    def data_sizes(self, workload: Workload) -> dict[str, int]:
        """Footprint in bytes per major data structure."""
        return {
            label: n * e
            for label, (n, e) in self.data_structures(workload).items()
        }

    def working_set_bytes(self, workload: Workload) -> int:
        """Total footprint of the major data structures."""
        return sum(self.data_sizes(workload).values())

    # ------------------------------------------------------------------
    # instrumented execution (the Pin substitute)
    # ------------------------------------------------------------------
    @abstractmethod
    def run_traced(self, workload: Workload, recorder: TraceRecorder) -> Any:
        """Run the kernel, recording references; returns the numeric result."""

    def record(
        self,
        workload: Workload,
        cache: "TraceCache | str | os.PathLike | None" = None,
    ) -> PeriodicTrace:
        """Run instrumented and return the trace as its period and count.

        A kernel that records in a ``recorder.periods()`` loop yields
        one iteration and the iteration count; any other kernel its
        whole trace, repeated once.  ``cache`` — a
        :class:`~repro.trace.cache.TraceCache` or a cache directory path
        — reuses a previously collected artifact when the kernel code,
        workload parameters, and trace schema all match, collecting (and
        storing) the trace only on a miss.  Tracing runs the kernel
        under Python-level instrumentation, so a warm cache skips the
        slowest stage of every simulation-backed experiment.
        """
        trace_cache = as_trace_cache(cache)
        if trace_cache is not None:
            return trace_cache.get_or_trace(self, workload)
        recorder = TraceRecorder()
        self.run_traced(workload, recorder)
        return recorder.finish_periodic()

    def trace(
        self,
        workload: Workload,
        cache: "TraceCache | str | os.PathLike | None" = None,
    ) -> ReferenceTrace:
        """Run instrumented and return the whole trace.

        A periodic kernel's period is tiled here; ``cache`` works as in
        :meth:`record`.
        """
        return self.record(workload, cache).whole()

    def trace_stream(self, workload: Workload, chunk_refs: int, sink) -> Any:
        """Run instrumented, pushing fixed-size trace chunks into ``sink``.

        The full trace is never materialised: the recorder flushes a
        compact :class:`~repro.trace.reference.ReferenceTrace` chunk of
        ``chunk_refs`` references to ``sink`` as soon as it fills, so
        peak memory is O(chunk) regardless of trace length.  Every
        iteration of a periodic kernel is recorded and pushed.  Returns
        the kernel's numeric result.
        """
        recorder = TraceRecorder(chunk_refs=chunk_refs, sink=sink)
        result = self.run_traced(workload, recorder)
        recorder.flush_tail()
        return result

    # ------------------------------------------------------------------
    # analytical model (CGPMAC)
    # ------------------------------------------------------------------
    @abstractmethod
    def access_model(
        self, workload: Workload
    ) -> Mapping[str, AccessPattern] | CompositeAccessModel:
        """CGPMAC patterns keyed by data-structure label.

        Implementations may instead return a
        :class:`~repro.patterns.composite.CompositeAccessModel` when an access
        order couples the structures.
        """

    def estimate_nha(
        self,
        workload: Workload,
        geometry: CacheGeometry,
        sink: DiagnosticSink | None = None,
    ) -> tuple[dict[str, float], frozenset[str]]:
        """Model-estimated main-memory accesses per data structure.

        Returns ``(values, degraded_structures)`` from
        :func:`~repro.patterns.composite.estimate_structures`.  Without
        a ``sink`` the first estimator error raises.  With one, every
        estimate goes through the guardrail layer (finiteness and
        physical bounds), failures degrade to the worst-case bound and
        diagnostics are recorded in ``sink``.
        """
        model = self.access_model(workload)
        if isinstance(model, CompositeAccessModel):
            return estimate_structures(model.patterns, model, geometry, sink)
        return estimate_structures(model, None, geometry, sink)

    # ------------------------------------------------------------------
    # performance model
    # ------------------------------------------------------------------
    @abstractmethod
    def resource_counts(self, workload: Workload) -> ResourceCounts:
        """Total flops / loads / stores for the roofline runtime model."""

    # ------------------------------------------------------------------
    # Aspen DSL form
    # ------------------------------------------------------------------
    def aspen_source(self, workload: Workload) -> str:
        """The kernel expressed in the extended Aspen DSL.

        Optional: kernels with data-dependent templates may not admit a
        closed DSL form at every size and raise ``NotImplementedError``.
        """
        raise NotImplementedError(
            f"{self.name} does not provide an Aspen source form"
        )

    def __repr__(self) -> str:
        return f"<Kernel {self.name} ({self.method_class})>"

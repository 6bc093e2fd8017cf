"""Vector multiplication (paper Algorithm 1) — dense linear algebra, streaming.

The paper's VM computes ``C_i += A_{i*j} * B_{i*k}`` for ``i = 1..n``:
``A`` and ``B`` are read with strides ``j`` and ``k`` (so their footprints
are ``n*j`` and ``n*k`` elements) while ``C`` is read-modify-written
densely.  With the paper's default strides ``A`` has both a larger
footprint and more main-memory accesses than ``B`` and ``C``, which is
exactly the Figure 5(a) observation.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel, ResourceCounts, Workload
from repro.patterns.streaming import StreamingAccess
from repro.trace.recorder import TraceRecorder

_ELEMENT = 8  # the paper models 8-byte elements


class VectorMultiplyKernel(Kernel):
    """``C = C + A[::ja] * B[::jb]`` with configurable strides.

    Workload parameters
    -------------------
    n:
        Loop trip count (number of elements of ``C``).
    stride_a / stride_b:
        Access strides (elements) for ``A`` and ``B``; defaults 4 and 1.
    """

    name = "VM"
    method_class = "Dense linear algebra"

    def _strides(self, workload: Workload) -> tuple[int, int]:
        return int(workload.get("stride_a", 4)), int(workload.get("stride_b", 1))

    def data_structures(self, workload: Workload) -> dict[str, tuple[int, int]]:
        n = int(workload["n"])
        sa, sb = self._strides(workload)
        return {
            "A": (n * sa, _ELEMENT),
            "B": (n * sb, _ELEMENT),
            "C": (n, _ELEMENT),
        }

    def inputs(self, workload: Workload) -> tuple[np.ndarray, np.ndarray]:
        """The operands ``A`` and ``B``."""
        n = int(workload["n"])
        sa, sb = self._strides(workload)
        rng = np.random.default_rng(int(workload.get("seed", 0)))
        return rng.random(n * sa), rng.random(n * sb)

    # ------------------------------------------------------------------
    def run_traced(self, workload: Workload, recorder: TraceRecorder) -> np.ndarray:
        n = int(workload["n"])
        sa, sb = self._strides(workload)
        for label, (num, size) in self.data_structures(workload).items():
            recorder.allocate(label, num, size)
        a, b = self.inputs(workload)
        c = np.zeros(n)
        i = np.arange(n, dtype=np.int64)
        # Reference order of the scalar loop: C load, A load, B load, C store.
        recorder.record_interleaved(
            [
                ("C", i, False),
                ("A", i * sa, False),
                ("B", i * sb, False),
                ("C", i, True),
            ]
        )
        c += a[::sa] * b[::sb]
        return c

    # ------------------------------------------------------------------
    def access_model(self, workload: Workload):
        n = int(workload["n"])
        sa, sb = self._strides(workload)
        return {
            "A": StreamingAccess(_ELEMENT, n * sa, sa, aligned=True),
            "B": StreamingAccess(_ELEMENT, n * sb, sb, aligned=True),
            # C is read and immediately re-written: one cold sweep.
            "C": StreamingAccess(_ELEMENT, n, 1, aligned=True),
        }

    def resource_counts(self, workload: Workload) -> ResourceCounts:
        n = int(workload["n"])
        return ResourceCounts(
            flops=2.0 * n,                      # multiply + add per element
            loads=3.0 * _ELEMENT * n,           # A, B, C reads
            stores=1.0 * _ELEMENT * n,          # C writes
        )

    def aspen_source(self, workload: Workload) -> str:
        n = int(workload["n"])
        sa, sb = self._strides(workload)
        return f"""\
// Vector multiplication (paper Algorithm 1): C_i += A_(i*ja) * B_(i*jb)
model vm {{
  param n = {n}
  param ja = {sa}
  param jb = {sb}
  data A {{ elements: n*ja, element_size: {_ELEMENT}, pattern streaming {{ stride: ja, aligned: 1 }} }}
  data B {{ elements: n*jb, element_size: {_ELEMENT}, pattern streaming {{ stride: jb, aligned: 1 }} }}
  data C {{ elements: n,    element_size: {_ELEMENT}, pattern streaming {{ aligned: 1 }} }}
  kernel main {{
    flops: 2*n
    loads: 3*{_ELEMENT}*n
    stores: {_ELEMENT}*n
  }}
}}
"""

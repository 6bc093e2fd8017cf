"""1-D FFT — spectral method, template-based access (paper Table II).

The paper's FT kernel is "a segment of codes from the NPB FT benchmark
that conducts a 1D FFT computation": an iterative radix-2 Cooley-Tukey
transform of a complex array ``X``.  Each of the ``log2(n)`` stages
traverses the whole array in butterfly pairs — a deterministic order
that is neither streaming (elements are revisited every stage) nor
random: the canonical *template* pattern.  When the array fits in the
cache only the first stage misses; when it does not, every stage
reloads it — the Figure 5(e) capacity cliff.

Implementation notes
--------------------
* The transform is :func:`bit_reverse`, then one vectorised
  :func:`fft_stage` per butterfly distance; the instrumented run and the
  fault-injection adapter both call them.  The recorded references
  follow the scalar loop's butterfly order (:func:`butterfly_indices`).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel, ResourceCounts, Workload
from repro.patterns.template import TemplateAccess
from repro.trace.recorder import TraceRecorder

_E = 16  # complex128 elements

#: NPB-style classes: transform length (complex points).
PROBLEM_CLASSES = {
    "S": {"n": 2048},
    "W": {"n": 8192},
    "A": {"n": 65536},
}


def _length(workload: Workload) -> int:
    cls = workload.get("problem_class")
    if cls is not None:
        spec = PROBLEM_CLASSES.get(str(cls))
        if spec is None:
            raise KeyError(
                f"unknown FT problem class {cls!r}; known: "
                f"{sorted(PROBLEM_CLASSES)}"
            )
        n = int(spec["n"])
    else:
        n = int(workload["n"])
    if n < 2 or n & (n - 1):
        raise ValueError(f"FFT length must be a power of two >= 2, got {n}")
    return n


def bit_reverse(x: np.ndarray) -> np.ndarray:
    """``x`` permuted into bit-reversed index order (a new array)."""
    # With one more bit, index b * 2^k + m reverses to 2 rev(m) + b.
    order = np.zeros(1, dtype=np.int64)
    while len(order) < len(x):
        order = np.concatenate([2 * order, 2 * order + 1])
    return x[order]


def fft_stage(x: np.ndarray, half: int) -> np.ndarray:
    """One stage in place: every butterfly ``(i, i + half)`` of ``x``."""
    blocks = x.reshape(-1, 2, half)
    twiddle = np.exp(-2j * np.pi * np.arange(half) / (2 * half))
    top = blocks[:, 0, :].copy()
    bottom = blocks[:, 1, :] * twiddle
    blocks[:, 0, :] = top + bottom
    blocks[:, 1, :] = top - bottom
    return x


def butterfly_indices(n: int) -> np.ndarray:
    """Element-index template of the full iterative FFT.

    Stage ``s`` (half = 2^s) pairs indices ``(i, i + half)`` within each
    block of ``2^(s+1)``; both are read and written:
    ``i, i+half, i, i+half`` per butterfly, in block-major order.
    """
    parts = []
    stages = int(np.log2(n))
    for s in range(stages):
        half = 1 << s
        block = half << 1
        starts = np.arange(0, n, block, dtype=np.int64)
        offsets = np.arange(half, dtype=np.int64)
        top = (starts[:, None] + offsets[None, :]).ravel()
        bottom = top + half
        quad = np.stack([top, bottom, top, bottom], axis=-1).reshape(-1)
        parts.append(quad)
    return np.concatenate(parts)


def butterfly_writes(n: int) -> np.ndarray:
    """Write mask matching :func:`butterfly_indices` (read, read, write, write)."""
    butterflies = int(np.log2(n)) * n // 2
    return np.tile(np.array([False, False, True, True]), butterflies)


class FFTKernel(Kernel):
    """Iterative radix-2 complex FFT (1-D segment of NPB FT).

    Workload parameters
    -------------------
    n:
        Transform length (power of two), or ``problem_class`` ("S"/"W").
    transforms:
        Number of back-to-back transforms (default 1) — the NPB kernel
        applies the 1-D FFT along many pencils; extra transforms simply
        repeat the template.
    """

    name = "FT"
    method_class = "Spectral methods"

    def data_structures(self, workload: Workload) -> dict[str, tuple[int, int]]:
        return {"X": (_length(workload), _E)}

    def inputs(self, workload: Workload) -> np.ndarray:
        """The complex array the transforms start from."""
        n = _length(workload)
        rng = np.random.default_rng(int(workload.get("seed", 0)))
        return rng.random(n) + 1j * rng.random(n)

    # ------------------------------------------------------------------
    def run_traced(self, workload: Workload, recorder: TraceRecorder) -> np.ndarray:
        x = self.inputs(workload)
        n = len(x)
        recorder.allocate("X", n, _E)
        indices = butterfly_indices(n)
        writes = butterfly_writes(n)
        for _ in range(int(workload.get("transforms", 1))):
            recorder.record_elements_mixed("X", indices, writes)
            x = bit_reverse(x)
            for s in range(int(np.log2(n))):
                fft_stage(x, 1 << s)
        return x

    # ------------------------------------------------------------------
    def access_model(self, workload: Workload):
        n = _length(workload)
        transforms = int(workload.get("transforms", 1))
        return {
            "X": TemplateAccess(
                element_size=_E,
                template=butterfly_indices(n),
                num_elements=n,
                repeats=transforms,
            )
        }

    def resource_counts(self, workload: Workload) -> ResourceCounts:
        n = _length(workload)
        transforms = int(workload.get("transforms", 1))
        stages = float(np.log2(n))
        butterflies = transforms * stages * (n / 2)
        return ResourceCounts(
            flops=10.0 * butterflies,          # complex mul + 2 complex adds
            loads=2.0 * _E * butterflies,
            stores=2.0 * _E * butterflies,
        )

    def aspen_source(self, workload: Workload) -> str:
        n = _length(workload)
        # The exact butterfly template is generated programmatically;
        # the DSL form approximates each stage as a paired sweep, which
        # keeps the same per-stage footprint and reuse behaviour.
        stages = int(np.log2(n))
        transforms = int(workload.get("transforms", 1))
        return f"""\
// 1-D FFT (NPB FT segment): each stage re-traverses X in pairs.
model ft {{
  param n = {n}
  param transforms = {transforms}
  data X {{
    elements: n
    element_size: {_E}
    pattern template {{
      repeats: {stages} * transforms
      sweep {{
        start: (X[0], X[1])
        step: 2
        end: (X[n-2], X[n-1])
      }}
    }}
  }}
  kernel fft1d {{
    flops: 10 * n / 2 * {stages} * transforms
    loads: 2 * {_E} * n / 2 * {stages} * transforms
    stores: 2 * {_E} * n / 2 * {stages} * transforms
  }}
}}
"""

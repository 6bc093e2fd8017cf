"""Conjugate Gradient and Preconditioned CG — sparse linear algebra.

The paper's CG (Algorithm 4) references four major data structures —
the matrix ``A`` and the vectors ``x``, ``p``, ``r`` — with a mixture of
streaming, template and reuse patterns composed through the access
order ``r(Ap)p(xp)(Ap)r(rp)``.  PCG (Algorithm 5) adds the auxiliary
preconditioner matrix ``M`` and vector ``z``; §V-A compares CG and PCG
DVF across problem sizes (Figure 6).

Implementation notes
--------------------
* :meth:`CGState.step` is the one (P)CG iteration: it updates the live
  arrays ``x``, ``r``, ``p`` and ``z`` in place.  The instrumented run,
  :meth:`ConjugateGradientKernel.solve` and the fault-injection adapter
  (which flips bits in the live arrays between iterations) loop over it.
* The instrumented path runs a real dense-storage CG for a fixed number
  of iterations, recording references in the exact loop order of the
  implementation.  Every iteration issues the same references, so the
  loop runs under ``recorder.periods``: the trace is one iteration
  repeated ``iterations`` times.  The composite analytical model uses
  the *same* order
  (``"(Ap)pr(xp)r r(rp)"`` modulo whitespace), which differs slightly
  from the paper's string because the paper's pseudocode recomputes
  ``A p_k`` twice while any real implementation caches it.
* For the Figure 6 study, :func:`build_system` constructs a dense-stored
  2-D Laplacian system; :meth:`ConjugateGradientKernel.solve` runs the
  actual solver to a tolerance so iteration counts are measured, not
  assumed.  PCG uses an incomplete-Cholesky-style preconditioner whose
  factor is stored as a dense triangular matrix (the paper's "auxiliary
  matrix M"), doubling the working set and per-iteration traffic while
  cutting iterations — the two opposing forces behind the crossover.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.base import Kernel, ResourceCounts, Workload
from repro.patterns.composite import CompositeAccessModel
from repro.patterns.streaming import StreamingAccess
from repro.trace.recorder import TraceRecorder

_E = 8  # float64 elements


def build_system(n: int, kind: str = "laplacian2d", seed: int = 0):
    """Build an SPD test system ``A x = b`` of dimension ``n``.

    ``laplacian2d``: the 5-point Laplacian of a ``g x g`` grid with
    ``g = round(sqrt(n))`` (so the matrix is ``g^2 x g^2``), stored
    dense, whose condition number grows with ``n`` — CG iteration counts
    therefore grow with problem size, as in the paper's study.
    ``random_spd``: a diagonally-dominant random SPD matrix (used for
    trace verification where conditioning is irrelevant).
    """
    rng = np.random.default_rng(seed)
    if kind == "laplacian2d":
        # Variable-coefficient 5-point Laplacian on a g x g grid
        # (heterogeneous-media model problem): A = D^1/2 L D^1/2 with a
        # coefficient spread that grows with the problem size.  The
        # spread worsens CG's conditioning while the IC preconditioner
        # absorbs it, so the CG/PCG iteration ratio grows with n — the
        # regime §V-A studies.
        g = max(int(round(np.sqrt(n))), 2)
        dim = g * g
        a = np.zeros((dim, dim))
        for i in range(g):
            for j in range(g):
                row = i * g + j
                a[row, row] = 4.0
                for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    ni, nj = i + di, j + dj
                    if 0 <= ni < g and 0 <= nj < g:
                        a[row, ni * g + nj] = -1.0
        spread = 1.0 + dim / 100.0
        coeff = np.sqrt(
            10.0 ** rng.uniform(0.0, np.log10(spread), size=dim)
        )
        a = coeff[:, None] * a * coeff[None, :]
        b = rng.random(dim)
        return a, b
    if kind == "random_spd":
        m = rng.random((n, n))
        a = m @ m.T + n * np.eye(n)
        b = rng.random(n)
        return a, b
    raise ValueError(f"unknown system kind {kind!r}")


def incomplete_cholesky(a: np.ndarray) -> np.ndarray:
    """IC(0): Cholesky restricted to A's nonzero pattern (dense-stored).

    Returns a lower-triangular factor ``L`` with ``L L^T ~= A``; applying
    the preconditioner solves ``L L^T z = r``.
    """
    n = a.shape[0]
    l = np.tril(a.copy())
    pattern = a != 0.0
    for k in range(n):
        l[k, k] = np.sqrt(l[k, k])
        rows = np.nonzero(pattern[k + 1:, k])[0] + k + 1
        l[rows, k] /= l[k, k]
        for i in rows:
            cols = rows[rows <= i]
            l[i, cols] -= l[i, k] * l[cols, k]
    return np.tril(l)


class CGState:
    """The live arrays of an in-place (P)CG solve of ``A x = b``.

    :meth:`step` updates ``x``, ``r``, ``p`` and ``z`` in place, so a
    caller holding them sees every iteration's values.  Without a
    preconditioner factor ``lfac``, ``z`` is ``r`` itself.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, lfac: np.ndarray | None):
        self.a = a
        self.lfac = lfac
        self.x = np.zeros(a.shape[0])
        self.r = b.copy()
        self.z = _apply_ic(lfac, self.r)
        self.p = self.z.copy()
        self.rz = float(self.r @ self.z)

    def step(self) -> None:
        """One (P)CG iteration."""
        ap = self.a @ self.p
        alpha = self.rz / float(self.p @ ap)
        self.x += alpha * self.p
        self.r -= alpha * ap
        if self.lfac is not None:
            self.z[:] = _apply_ic(self.lfac, self.r)
        rz_next = float(self.r @ self.z)
        # p = z + beta p, bit for bit.
        self.p *= rz_next / self.rz
        self.p += self.z
        self.rz = rz_next


@dataclass
class SolveResult:
    """Outcome of an (un)preconditioned CG solve."""

    x: np.ndarray
    iterations: int
    residual: float
    converged: bool


class ConjugateGradientKernel(Kernel):
    """CG / PCG with dense-stored operator (paper Algorithms 4-5).

    Workload parameters
    -------------------
    n:
        Problem size (matrix dimension target; the 2-D Laplacian rounds
        to the nearest square).
    iterations:
        Iteration count used for tracing and the analytical model.
    variant:
        ``"cg"`` (default) or ``"pcg"``.
    system:
        ``"laplacian2d"`` (default) or ``"random_spd"``.
    """

    name = "CG"
    method_class = "Sparse linear algebra"
    #: Every iteration issues the same references.
    periodic = True

    def _config(self, workload: Workload) -> tuple[int, int, str, str]:
        n = int(workload["n"])
        if workload.get("system", "laplacian2d") == "laplacian2d":
            g = max(int(round(np.sqrt(n))), 2)
            n = g * g
        return (
            n,
            int(workload.get("iterations", 10)),
            str(workload.get("variant", "cg")),
            str(workload.get("system", "laplacian2d")),
        )

    def data_structures(self, workload: Workload) -> dict[str, tuple[int, int]]:
        n, _, variant, _ = self._config(workload)
        structures = {
            "A": (n * n, _E),
            "x": (n, _E),
            "p": (n, _E),
            "r": (n, _E),
        }
        if variant == "pcg":
            structures["M"] = (n * n, _E)  # dense-stored triangular factor
            structures["z"] = (n, _E)
        return structures

    def start(self, workload: Workload) -> CGState:
        """The solver's state before the first iteration on ``workload``."""
        n, _, variant, system = self._config(workload)
        a, b = build_system(n, system, seed=int(workload.get("seed", 0)))
        return CGState(a, b, incomplete_cholesky(a) if variant == "pcg" else None)

    # ------------------------------------------------------------------
    # pure numerical solve (measured iteration counts for Fig. 6)
    # ------------------------------------------------------------------
    def solve(
        self,
        workload: Workload,
        tol: float = 1e-10,
        max_iterations: int | None = None,
    ) -> SolveResult:
        """Run the actual solver to convergence; returns measured iterations."""
        state = self.start(workload)
        max_iterations = max_iterations or 4 * len(state.x)
        bnorm = float(np.linalg.norm(state.r))  # r = b before iterating
        iterations = 0
        while iterations < max_iterations:
            if np.linalg.norm(state.r) <= tol * bnorm:
                break
            state.step()
            iterations += 1
        residual = float(np.linalg.norm(state.r) / bnorm)
        return SolveResult(
            x=state.x,
            iterations=iterations,
            residual=residual,
            converged=residual <= tol,
        )

    # ------------------------------------------------------------------
    # instrumented execution
    # ------------------------------------------------------------------
    def run_traced(self, workload: Workload, recorder: TraceRecorder) -> np.ndarray:
        n, iterations, variant, _ = self._config(workload)
        for label, (num, size) in self.data_structures(workload).items():
            recorder.allocate(label, num, size)
        state = self.start(workload)
        every = np.arange(n, dtype=np.int64)
        matrix_idx = np.arange(n * n, dtype=np.int64)
        p_per_row = np.tile(every, n)
        src = "z" if variant == "pcg" else "r"
        for _ in recorder.periods(iterations):
            # Ap = A @ p: row-major matrix stream interleaved with p reads.
            recorder.record_interleaved(
                [("A", matrix_idx, False), ("p", p_per_row, False)]
            )
            # alpha = (r.z) / (p.Ap): p swept once (Ap is a temporary).
            recorder.record_elements("p", every, False)
            # x += alpha p: read x, read p, write x.
            recorder.record_interleaved(
                [("x", every, False), ("p", every, False), ("x", every, True)]
            )
            # r -= alpha Ap: read r, write r.
            recorder.record_interleaved(
                [("r", every, False), ("r", every, True)]
            )
            if variant == "pcg":
                # z = M^{-1} r: two triangular sweeps of M, r read, z written.
                recorder.record_interleaved(
                    [("M", matrix_idx, False), ("z", p_per_row, False)]
                )
                recorder.record_elements("r", every, False)
                recorder.record_elements("z", every, True)
            else:
                recorder.record_elements("r", every, False)
            # p = z + beta p: read z (or r), read p, write p.
            recorder.record_interleaved(
                [(src, every, False), ("p", every, False), ("p", every, True)]
            )
            state.step()
        return state.x

    # ------------------------------------------------------------------
    # analytical model
    # ------------------------------------------------------------------
    def access_model(self, workload: Workload) -> CompositeAccessModel:
        n, iterations, variant, _ = self._config(workload)
        patterns = {
            "A": StreamingAccess(_E, n * n, 1, aligned=True),
            "p": StreamingAccess(_E, n, 1, aligned=True),
            "r": StreamingAccess(_E, n, 1, aligned=True),
            "x": StreamingAccess(_E, n, 1, aligned=True),
        }
        if variant == "pcg":
            patterns["M"] = StreamingAccess(_E, n * n, 1, aligned=True)
            patterns["z"] = StreamingAccess(_E, n, 1, aligned=True)
            # Matches run_traced: matvec, p dot, x update, r update,
            # preconditioner solve, r dot, p update.
            order = "(Ap)p(xp)r(Mz)r(zp)"
        else:
            order = "(Ap)p(xp)rr(rp)"
        return CompositeAccessModel(
            patterns=patterns, order=order, iterations=iterations
        )

    def resource_counts(self, workload: Workload) -> ResourceCounts:
        n, iterations, variant, _ = self._config(workload)
        flops_per_iter = 2.0 * n * n + 10.0 * n
        loads_per_iter = _E * (n * n + 6.0 * n)
        stores_per_iter = _E * 3.0 * n
        if variant == "pcg":
            flops_per_iter += 2.0 * n * n + 2.0 * n
            loads_per_iter += _E * (n * n + 2.0 * n)
            stores_per_iter += _E * n
        return ResourceCounts(
            flops=iterations * flops_per_iter,
            loads=iterations * loads_per_iter,
            stores=iterations * stores_per_iter,
        )

    def aspen_source(self, workload: Workload) -> str:
        n, iterations, variant, _ = self._config(workload)
        if variant == "pcg":
            # access_model's M, z and order; resource_counts' PCG terms.
            title = "Preconditioned Conjugate Gradient (paper Algorithm 5)"
            model, order = "pcg", "(Ap)p(xp)r(Mz)r(zp)"
            preconditioner = f"""\
  data M {{ elements: n*n, element_size: {_E}, pattern streaming {{ aligned: 1 }} }}
  data z {{ elements: n,   element_size: {_E}, pattern streaming {{ aligned: 1 }} }}
"""
            flops = "2*n*n + 10*n + 2*n*n + 2*n"
            loads = "n*n + 6*n + n*n + 2*n"
            stores = "(3*n + n)"
        else:
            title = "Conjugate Gradient (paper Algorithm 4)"
            model, order, preconditioner = "cg", "(Ap)p(xp)rr(rp)", ""
            flops, loads, stores = "2*n*n + 10*n", "n*n + 6*n", "3*n"
        return f"""\
// {title}, dense-stored operator.
model {model} {{
  param n = {n}
  param iters = {iterations}
  data A {{ elements: n*n, element_size: {_E}, pattern streaming {{ aligned: 1 }} }}
  data p {{ elements: n,   element_size: {_E}, pattern streaming {{ aligned: 1 }} }}
  data r {{ elements: n,   element_size: {_E}, pattern streaming {{ aligned: 1 }} }}
  data x {{ elements: n,   element_size: {_E}, pattern streaming {{ aligned: 1 }} }}
{preconditioner}  kernel solve {{
    iterations: iters
    order: "{order}"
    flops: iters * ({flops})
    loads: iters * {_E} * ({loads})
    stores: iters * {_E} * {stores}
  }}
}}
"""


def _apply_ic(lfac: np.ndarray | None, r: np.ndarray) -> np.ndarray:
    """Solve ``L L^T z = r`` with the dense-stored IC factor."""
    if lfac is None:
        return r
    import scipy.linalg as sla

    y = sla.solve_triangular(lfac, r, lower=True)
    return sla.solve_triangular(lfac.T, y, lower=False)

"""The paper's six numerical kernels (Table II), instrumented and modeled.

========  ==========================  ==============  ====================
Name      Computational class          Major DSs       Access patterns
========  ==========================  ==============  ====================
VM        Dense linear algebra         A, B, C         streaming
CG        Sparse linear algebra        A, x, p, r      composite (s/t/reuse)
NB        N-body (Barnes-Hut)          T, P            random
MG        Structured grids             R               template
FT        Spectral methods (1-D FFT)   X               template
MC        Monte Carlo (XSBench)        G, E            random (concurrent)
========  ==========================  ==============  ====================

Each kernel provides an instrumented execution (for the cache-simulator
ground truth) and a CGPMAC analytical model (for DVF profiling); see
:class:`repro.kernels.base.Kernel`.  :data:`repro.kernels.registry.KERNELS`
holds one instance of each, and :func:`repro.kernels.workloads.workload_for`
gives a kernel's workload at each size tier.
"""

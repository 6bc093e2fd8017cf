"""Shared experiment configuration (paper Tables IV-VII as data).

Central place tying cache configurations, workload tiers and ECC schemes
to the experiments that consume them, so drivers and benchmarks agree.
"""

from __future__ import annotations

from repro.cachesim.configs import (
    CacheGeometry,
    PROFILING_CACHES,
    VERIFICATION_CACHES,
)
from repro.core.fit import CHIPKILL, SECDED
from repro.kernels.workloads import WORKLOAD_TIERS

#: Kernel evaluation order, as in paper Table II / Figures 4-5.
KERNEL_ORDER = ("VM", "CG", "NB", "MG", "FT", "MC")

#: Fig. 4 cache configurations (Table IV verification rows).
FIG4_CACHES = dict(VERIFICATION_CACHES)

#: Fig. 5 cache configurations (Table IV profiling rows).
FIG5_CACHES = dict(PROFILING_CACHES)

#: Fig. 6 problem sizes (paper x-axis: 100..800).
FIG6_SIZES = (100, 200, 300, 400, 500, 600, 700, 800)

#: Fig. 6 cache: the paper uses "the largest cache in Table IV".  The
#: printed 8MB row is internally inconsistent (CA*NA*CL = 4 MB), and the
#: §V-A study requires even PCG's doubled working set (~10 MB at n=800)
#: to stay resident, as the paper's smooth curves imply.  We therefore
#: run Fig. 6 on a 16 MiB LLC with the 8MB row's associativity and line
#: size, and note the substitution in DESIGN.md/EXPERIMENTS.md.
FIG6_CACHE = CacheGeometry(8, 32768, 64, "largest")

#: Fig. 7 kernel/cache: Vector Multiplication on the largest Table IV
#: profiling cache, degradation swept 0..30% (paper x-axis).
FIG7_CACHE = PROFILING_CACHES["8MB"]
FIG7_DEGRADATIONS = tuple(round(0.01 * i, 2) for i in range(0, 31))
FIG7_SCHEMES = (SECDED, CHIPKILL)

#: Workload tiers (Tables V and VI plus the fast test tier).
WORKLOADS = WORKLOAD_TIERS

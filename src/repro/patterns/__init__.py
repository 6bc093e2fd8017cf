"""CGPMAC — coarse-grained, pseudocode-based memory access accounting.

These are the paper's analytical estimators (§III-B/C) for the number of
main-memory accesses (``N_ha``) a data structure causes behind a
last-level cache, one class per access-pattern family:

* :class:`StreamingAccess` — sequential strided traversal (Eq. 3-4);
* :class:`RandomAccess` — probabilistic reload analysis (Eq. 5-7);
* :class:`TemplateAccess` — reuse-distance walk over an explicit
  cache-block template;
* :class:`ReuseAccess` — Bernoulli set-allocation with interference
  (Eq. 8-15);
* :class:`CompositeAccessModel` — the access-order composition used for
  kernels mixing patterns (e.g. CG's ``"r(Ap)p(xp)(Ap)r(rp)"``).

Every pattern implements
``estimate_accesses(geometry: CacheGeometry) -> float``.
"""

from repro.patterns.base import AccessPattern, PatternError, WorstCaseAccess
from repro.patterns.streaming import StreamingAccess
from repro.patterns.random_access import (
    RandomAccess,
    WorkingSetRandomAccess,
    split_cache_ratio,
)
from repro.patterns.template import (
    Repeat,
    SweepTemplate,
    TemplateAccess,
    expand_sweep,
)
from repro.patterns.reuse import ReuseAccess, set_occupancy_pmf
from repro.patterns.composite import AccessEvent, CompositeAccessModel, parse_order
from repro.patterns.distance import stack_distances

__all__ = [
    "AccessPattern",
    "PatternError",
    "WorstCaseAccess",
    "StreamingAccess",
    "RandomAccess",
    "WorkingSetRandomAccess",
    "split_cache_ratio",
    "TemplateAccess",
    "SweepTemplate",
    "Repeat",
    "expand_sweep",
    "ReuseAccess",
    "set_occupancy_pmf",
    "CompositeAccessModel",
    "AccessEvent",
    "parse_order",
    "stack_distances",
]

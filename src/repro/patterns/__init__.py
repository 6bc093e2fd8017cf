"""CGPMAC — coarse-grained, pseudocode-based memory access accounting.

These are the paper's analytical estimators (§III-B/C) for the number of
main-memory accesses (``N_ha``) a data structure causes behind a
last-level cache, one class per access-pattern family:

* :class:`~repro.patterns.streaming.StreamingAccess` — sequential
  strided traversal (Eq. 3-4);
* :class:`~repro.patterns.random_access.RandomAccess` — probabilistic
  reload analysis (Eq. 5-7);
* :class:`~repro.patterns.template.TemplateAccess` — reuse-distance
  walk over an explicit cache-block template;
* :class:`~repro.patterns.reuse.ReuseAccess` — Bernoulli set-allocation
  with interference (Eq. 8-15);
* :class:`~repro.patterns.composite.CompositeAccessModel` — the
  access-order composition used for kernels mixing patterns (e.g. CG's
  ``"r(Ap)p(xp)(Ap)r(rp)"``).

Every pattern implements
``estimate_accesses(geometry: CacheGeometry) -> float``.
"""

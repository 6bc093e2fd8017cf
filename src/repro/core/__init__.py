"""The DVF metric and its analysis workflows (the paper's contribution).

* :mod:`repro.core.dvf` — Eq. 1-2: ``N_error``, ``DVF_d``, ``DVF_a``;
* :mod:`repro.core.fit` — Table VII FIT rates and ECC schemes;
* :mod:`repro.core.machine` — the machine DVF is priced against: cache
  geometry, memory FIT and the roofline ``T``;
* :mod:`repro.core.analyzer` — kernel x machine -> DVF reports;
* :mod:`repro.core.cache_dvf` — DVF of the cache itself, from a replay;
* :mod:`repro.core.protection` — selective protection under a budget;
* :mod:`repro.core.validation` — model-vs-simulator harness (Fig. 4);
* :mod:`repro.core.tradeoff` — the §V use cases (Fig. 6 and Fig. 7);
* :mod:`repro.core.report` — text rendering.
"""

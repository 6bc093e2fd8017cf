"""Statistical fault injection — the baseline methodology (paper §I/§VI).

The paper motivates DVF by contrast with statistical fault injection:
FI needs a large number of randomized trials for statistical
significance, is expensive, and yields no quantitative per-structure
comparison.  This subpackage implements that baseline so the claims can
be tested rather than assumed — and implements it robustly enough to
run at scale:

* :mod:`repro.faultinject.flips` — bit-flip primitives on numpy data;
* :mod:`repro.faultinject.targets` — injectable adapters for the paper
  kernels (inject into a chosen data structure at a chosen execution
  phase, observe the output);
* :mod:`repro.faultinject.outcomes` — outcome classification
  (benign / silent data corruption / crash / timeout);
* :mod:`repro.faultinject.executor` — deterministic per-trial seeding
  plus pluggable in-process / crash-isolated process executors;
* :mod:`repro.faultinject.checkpoint` — JSONL trial journal enabling
  resumable campaigns;
* :mod:`repro.faultinject.errors` — structured error taxonomy
  (trial crash/timeout sentinels, checkpoint corruption/mismatch);
* :mod:`repro.faultinject.campaign` — randomized campaigns with
  per-structure statistics, Wilson confidence intervals, adaptive
  stopping, and SIGINT-safe checkpoint/resume;
* :mod:`repro.faultinject.compare` — rank agreement between DVF and
  empirical vulnerability.
"""

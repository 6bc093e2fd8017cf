"""Per-figure/table regeneration drivers (paper §IV-V).

Each module reproduces one evaluation artifact:

==========================  ===========================================
:mod:`...configs`            Tables IV-VII as data
:mod:`...tables`             Table I/II/III/IV/V/VI/VII text renderers
:mod:`...fig4_verification`  Fig. 4: model vs cache-simulator N_ha
:mod:`...fig5_profiling`     Fig. 5: per-structure DVF across caches
:mod:`...fig6_cg_pcg`        Fig. 6: CG vs PCG DVF over problem size
:mod:`...fig7_ecc`           Fig. 7: DVF vs ECC performance degradation
==========================  ===========================================

``python -m repro.experiments <fig4|fig5|fig6|fig7|tables|all>``
regenerates everything as text series (see :mod:`repro.experiments.runner`).
"""

"""The DVF metric and its analysis workflows (the paper's contribution).

* :mod:`repro.core.dvf` — Eq. 1-2: ``N_error``, ``DVF_d``, ``DVF_a``;
* :mod:`repro.core.fit` — Table VII FIT rates and ECC schemes;
* :mod:`repro.core.machine` — the machine DVF is priced against: cache
  geometry, memory FIT and the roofline ``T``;
* :mod:`repro.core.analyzer` — kernel x machine -> DVF reports;
* :mod:`repro.core.validation` — model-vs-simulator harness (Fig. 4);
* :mod:`repro.core.tradeoff` — the §V use cases (Fig. 6 and Fig. 7);
* :mod:`repro.core.report` — text rendering.
"""

from repro.core.analyzer import DVFAnalyzer
from repro.core.cache_dvf import analyze_cache_dvf
from repro.core.protection import ProtectionPlan, greedy_ranking, plan_protection
from repro.core.dvf import (
    DVFReport,
    StructureDVF,
    build_report,
    dvf_data,
    n_error,
)
from repro.core.fit import (
    CHIPKILL,
    ECC_SCHEMES,
    NO_ECC,
    SECDED,
    ECCScheme,
)
from repro.core.machine import MachineModel
from repro.core.report import format_table, render_dvf_report
from repro.core.tradeoff import (
    AlgorithmComparison,
    ECCTradeoffPoint,
    cg_vs_pcg_sweep,
    compare_cg_pcg,
    crossover_size,
    ecc_tradeoff_sweep,
    optimal_degradation,
)
from repro.core.validation import (
    StructureValidation,
    ValidationResult,
    validate_kernel,
)

__all__ = [
    "DVFAnalyzer",
    "MachineModel",
    "analyze_cache_dvf",
    "ProtectionPlan",
    "plan_protection",
    "greedy_ranking",
    "DVFReport",
    "StructureDVF",
    "build_report",
    "dvf_data",
    "n_error",
    "ECCScheme",
    "ECC_SCHEMES",
    "NO_ECC",
    "CHIPKILL",
    "SECDED",
    "AlgorithmComparison",
    "ECCTradeoffPoint",
    "cg_vs_pcg_sweep",
    "compare_cg_pcg",
    "crossover_size",
    "ecc_tradeoff_sweep",
    "optimal_degradation",
    "StructureValidation",
    "ValidationResult",
    "validate_kernel",
    "format_table",
    "render_dvf_report",
]

"""repro — Data Vulnerability Factor (DVF) resilience modeling.

A full reproduction of "Quantitatively Modeling Application Resilience
with the Data Vulnerability Factor" (Yu, Li, Mittal, Vetter — SC 2014):
the DVF metric, the CGPMAC analytical memory-access models, an extended
Aspen DSL, a validating cache simulator + trace layer, the paper's six
numerical kernels, and drivers regenerating every evaluation figure and
table.

Quickstart
----------
>>> from repro.cachesim.configs import PAPER_CACHES
>>> from repro.core.analyzer import DVFAnalyzer
>>> from repro.core.machine import MachineModel
>>> from repro.kernels.registry import KERNELS
>>> from repro.kernels.workloads import workload_for
>>> analyzer = DVFAnalyzer(MachineModel.from_geometry(PAPER_CACHES["8MB"]))
>>> report = analyzer.analyze(KERNELS["VM"], workload_for("VM", "test"))
>>> report.ranked()[0].name   # most vulnerable data structure
'A'
"""

__version__ = "1.0.0"

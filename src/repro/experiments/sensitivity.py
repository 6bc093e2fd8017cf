"""Sensitivity studies around the DVF definition (extension).

Two knobs the paper identifies but does not explore:

* **weighting** (§III-A): "a further refined definition of DVF could
  assign a weighting factor to each term" — we sweep the exponents of
  ``DVF = N_error^alpha * N_ha^beta`` and measure how the
  per-structure *ranking* responds.  A robust ranking means protection
  decisions don't hinge on the equal-weights assumption.
* **cache geometry**: how DVF responds to associativity and line size
  at fixed capacity (the paper varies capacity only, via Table IV).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cachesim.configs import CacheGeometry, PAPER_CACHES
from repro.core.analyzer import DVFAnalyzer
from repro.core.dvf import build_report
from repro.core.machine import MachineModel
from repro.core.report import format_table
from repro.experiments.configs import KERNEL_ORDER, WORKLOADS
from repro.kernels.registry import KERNELS


@dataclass(frozen=True)
class WeightSensitivityRow:
    """Ranking of one kernel's structures under one (alpha, beta)."""

    kernel: str
    alpha: float
    beta: float
    ranking: tuple[str, ...]


def weighting_sensitivity(
    kernels: tuple[str, ...] = KERNEL_ORDER,
    tier: str = "test",
    weights: tuple[tuple[float, float], ...] = (
        (1.0, 1.0),   # the paper's definition
        (1.0, 0.5),
        (0.5, 1.0),
        (2.0, 1.0),
        (1.0, 2.0),
        (1.0, 0.0),   # exposure only (no access term)
        (0.0, 1.0),   # traffic only (no exposure term)
    ),
    geometry: CacheGeometry | None = None,
) -> list[WeightSensitivityRow]:
    """Per-structure DVF rankings across weighting exponents.

    Each kernel is analyzed once; the exponents reprice that report's
    sizes, ``N_ha``, FIT and ``T`` with :func:`build_report`.
    """
    geometry = geometry or PAPER_CACHES["8MB"]
    analyzer = DVFAnalyzer(MachineModel.from_geometry(geometry))
    rows: list[WeightSensitivityRow] = []
    for name in kernels:
        base = analyzer.analyze(KERNELS[name], WORKLOADS[tier][name])
        sizes = {s.name: s.size_bytes for s in base.structures}
        nha = {s.name: s.nha for s in base.structures}
        for alpha, beta in weights:
            report = build_report(
                base.application, base.machine, base.fit,
                base.time_seconds, sizes, nha, alpha=alpha, beta=beta,
            )
            ranking = tuple(s.name for s in report.ranked())
            rows.append(
                WeightSensitivityRow(
                    kernel=name, alpha=alpha, beta=beta, ranking=ranking
                )
            )
    return rows


def ranking_stability(rows: list[WeightSensitivityRow]) -> dict[str, float]:
    """Fraction of weightings agreeing with the (1,1) top structure."""
    out: dict[str, float] = {}
    for kernel in {r.kernel for r in rows}:
        subset = [r for r in rows if r.kernel == kernel]
        base = next(
            r.ranking[0]
            for r in subset
            if r.alpha == 1.0 and r.beta == 1.0
        )
        # Exclude the degenerate beta=0 / alpha=0 extremes from the score.
        considered = [
            r for r in subset if r.alpha > 0.0 and r.beta > 0.0
        ]
        agree = sum(1 for r in considered if r.ranking[0] == base)
        out[kernel] = agree / len(considered)
    return out


@dataclass(frozen=True)
class GeometrySensitivityRow:
    """Application DVF for one kernel on one geometry variant."""

    kernel: str
    variant: str
    associativity: int
    line_size: int
    dvf: float


def geometry_sensitivity(
    kernels: tuple[str, ...] = ("VM", "FT", "MC"),
    tier: str = "test",
    capacity: int = 64 * 1024,
) -> list[GeometrySensitivityRow]:
    """DVF across associativity/line-size variants at fixed capacity."""
    variants = []
    for associativity in (1, 4, 16):
        for line_size in (32, 64, 128):
            num_sets = capacity // (associativity * line_size)
            if num_sets < 1:
                continue
            variants.append(
                CacheGeometry(
                    associativity,
                    num_sets,
                    line_size,
                    f"a{associativity}-l{line_size}",
                )
            )
    rows: list[GeometrySensitivityRow] = []
    for name in kernels:
        kernel = KERNELS[name]
        workload = WORKLOADS[tier][name]
        for geometry in variants:
            analyzer = DVFAnalyzer(MachineModel.from_geometry(geometry))
            report = analyzer.analyze(kernel, workload)
            rows.append(
                GeometrySensitivityRow(
                    kernel=name,
                    variant=geometry.name,
                    associativity=geometry.associativity,
                    line_size=geometry.line_size,
                    dvf=report.dvf_application,
                )
            )
    return rows


def render_sensitivity(
    weight_rows: list[WeightSensitivityRow],
    geometry_rows: list[GeometrySensitivityRow],
) -> str:
    """Both sensitivity studies as text tables."""
    stability = ranking_stability(weight_rows)
    weight_table = format_table(
        ["kernel", "alpha", "beta", "ranking (most vulnerable first)"],
        [
            (r.kernel, r.alpha, r.beta, " > ".join(r.ranking))
            for r in weight_rows
        ],
    )
    stability_table = format_table(
        ["kernel", "top-structure stability"],
        [(k, f"{v:.0%}") for k, v in sorted(stability.items())],
    )
    geometry_table = format_table(
        ["kernel", "variant", "DVF_a"],
        [(r.kernel, r.variant, f"{r.dvf:.4e}") for r in geometry_rows],
    )
    return (
        "DVF weighting sensitivity (DVF = N_error^a * N_ha^b)\n"
        + weight_table
        + "\n\nTop-structure stability across non-degenerate weightings\n"
        + stability_table
        + "\n\nGeometry sensitivity at fixed 64 KB capacity\n"
        + geometry_table
    )

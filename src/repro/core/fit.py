"""Memory failure rates and ECC protection mechanisms (paper Table VII).

================  =======================
ECC protection    Error rate (FIT/Mbit)
================  =======================
No ECC            5000
Chipkill correct  0.02
SECDED            1300
================  =======================

The §V-B use case evaluates the resilience/performance trade-off of
applying an ECC scheme: protection lowers the FIT rate but costs
execution time.  The paper's Fig. 7 shows DVF *decreasing* from 0% to
about 5% performance degradation before rising again; the published
text does not give the coverage function behind the falling edge, so we
model it explicitly (and document it here and in DESIGN.md §5): the
scheme's error coverage ramps linearly with the performance budget it
is granted, saturating at full coverage at ``full_coverage_degradation``
(default 5%, the paper's observed optimum).  Beyond saturation only the
execution-time term grows, which reproduces the published U-shape.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class ECCScheme:
    """A memory protection mechanism.

    Attributes
    ----------
    name:
        Scheme name as in Table VII.
    fit:
        Residual failure rate (FIT/Mbit) with the scheme fully applied.
    full_coverage_degradation:
        Fraction of execution-time overhead at which the scheme reaches
        full coverage (see module docstring).
    """

    name: str
    fit: float
    full_coverage_degradation: float = 0.05

    def __post_init__(self) -> None:
        if self.fit < 0:
            raise ValueError(f"fit must be >= 0, got {self.fit}")
        if self.full_coverage_degradation < 0:
            raise ValueError(
                "full_coverage_degradation must be >= 0, got "
                f"{self.full_coverage_degradation}"
            )

    def coverage(self, degradation: float) -> float:
        """Error coverage achieved at a given performance degradation.

        Ramps linearly from 0 at zero overhead to 1 at
        ``full_coverage_degradation`` (1.0 everywhere if that is 0).
        """
        if degradation < 0:
            raise ValueError(f"degradation must be >= 0, got {degradation}")
        if self.full_coverage_degradation == 0:
            return 1.0
        return min(degradation / self.full_coverage_degradation, 1.0)

    def effective_fit(self, degradation: float, baseline_fit: float) -> float:
        """FIT rate with partial coverage at ``degradation`` overhead.

        Interpolates between the unprotected ``baseline_fit`` and the
        scheme's residual :attr:`fit` by the achieved coverage.
        """
        c = self.coverage(degradation)
        return baseline_fit * (1.0 - c) + self.fit * c


#: Table VII rows.
NO_ECC = ECCScheme(name="No ECC", fit=5000.0, full_coverage_degradation=0.0)
CHIPKILL = ECCScheme(name="Chipkill correct", fit=0.02)
SECDED = ECCScheme(name="SECDED", fit=1300.0)

#: All schemes of paper Table VII, keyed by short name.
ECC_SCHEMES: dict[str, ECCScheme] = {
    "none": NO_ECC,
    "chipkill": CHIPKILL,
    "secded": SECDED,
}


"""The Data Vulnerability Factor (paper §III-A, Eq. 1-2).

Definitions (Table I):

====================  ====================================================
``DVF_d``             DVF for a specific data structure
``FIT``               failure rate: failures per billion hours per Mbit
``T``                 application execution time
``S_d``               size of the data structure
``N_error``           expected errors striking the structure during the run
``N_ha``              number of accesses to the hardware (main memory)
``DVF_a``             DVF for the application: sum over major structures
====================  ====================================================

Units: FIT is failures / 10^9 device-hours / Mbit, ``T`` is in seconds
and ``S_d`` in bytes; :func:`n_error` converts internally.  DVF itself is
a relative metric — only comparisons are meaningful, exactly as in the
paper — but keeping coherent units makes N_error a genuine expected
error count.

The default combination is the paper's straight product
``DVF_d = N_error * N_ha``; the weighted refinement sketched in §III-A
is available through the ``alpha``/``beta`` exponents of
:func:`dvf_data` (``N_error^alpha * N_ha^beta``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.diagnostics import Diagnostic, DiagnosticSink

_SECONDS_PER_HOUR = 3600.0
_BITS_PER_MBIT = 2.0**20
_FIT_HOURS = 1.0e9


def check_time(time_seconds: float) -> float:
    """``time_seconds`` if it is a usable ``T`` (finite, ``>= 0``)."""
    if not math.isfinite(time_seconds) or time_seconds < 0:
        raise ValueError(f"time must be finite and >= 0, got {time_seconds}")
    return time_seconds


def n_error(fit: float, time_seconds: float, size_bytes: float) -> float:
    """Expected number of errors striking a data structure (Eq. 1 term).

    ``N_error = FIT * T * S_d`` with unit conversion: FIT is per 10^9
    hours per Mbit, so seconds -> hours and bytes -> Mbit.
    """
    if not math.isfinite(fit) or fit < 0:
        raise ValueError(f"FIT must be finite and >= 0, got {fit}")
    check_time(time_seconds)
    if not math.isfinite(size_bytes) or size_bytes < 0:
        raise ValueError(f"size must be finite and >= 0, got {size_bytes}")
    hours = time_seconds / _SECONDS_PER_HOUR
    mbits = size_bytes * 8.0 / _BITS_PER_MBIT
    # FIT counts failures per 10^9 device-hours per Mbit.
    return (fit / _FIT_HOURS) * hours * mbits


def dvf_data(
    fit: float,
    time_seconds: float,
    size_bytes: float,
    nha: float,
    alpha: float = 1.0,
    beta: float = 1.0,
) -> float:
    """``DVF_d = N_error^alpha * N_ha^beta`` (Eq. 1; alpha=beta=1 default).

    Parameters
    ----------
    fit:
        Memory failure rate in FIT/Mbit.
    time_seconds:
        Application execution time ``T``.
    size_bytes:
        Data-structure footprint ``S_d``.
    nha:
        Number of main-memory accesses attributed to the structure.
    alpha, beta:
        Optional weighting exponents for the §III-A refinement.
    """
    if not math.isfinite(nha) or nha < 0:
        raise ValueError(f"N_ha must be finite and >= 0, got {nha}")
    errors = n_error(fit, time_seconds, size_bytes)
    return (errors**alpha) * (nha**beta)


@dataclass(frozen=True, slots=True)
class StructureDVF:
    """Per-data-structure DVF result with its ingredients.

    ``degraded`` marks a structure whose ``N_ha`` is the worst-case
    degradation bound (or whose inputs were rejected) rather than the
    analytical estimate; its DVF is an upper bound, not a prediction.
    """

    name: str
    size_bytes: float
    nha: float
    n_error: float
    dvf: float
    degraded: bool = False


@dataclass(frozen=True)
class DVFReport:
    """A complete DVF evaluation of one application on one machine.

    Attributes
    ----------
    application:
        Application / kernel name.
    machine:
        Machine or cache-configuration label.
    fit:
        FIT rate used.
    time_seconds:
        Execution time ``T`` used.
    structures:
        Per-data-structure results, in declaration order.
    diagnostics:
        Coded :class:`~repro.diagnostics.Diagnostic` records collected
        while producing the report (lenient evaluation); empty in a
        strict run.
    """

    application: str
    machine: str
    fit: float
    time_seconds: float
    structures: tuple[StructureDVF, ...] = field(default_factory=tuple)
    diagnostics: tuple[Diagnostic, ...] = ()

    @property
    def dvf_application(self) -> float:
        """``DVF_a``: sum over the major data structures (Eq. 2)."""
        return sum(s.dvf for s in self.structures)

    @property
    def degraded_structures(self) -> tuple[str, ...]:
        """Names of structures carrying the worst-case degradation bound."""
        return tuple(s.name for s in self.structures if s.degraded)

    def to_payload(self) -> dict:
        """Machine-readable report: rows, DVF_a and the diagnostics."""
        return {
            "application": self.application,
            "machine": self.machine,
            "fit": self.fit,
            "time_seconds": self.time_seconds,
            "dvf_application": self.dvf_application,
            "structures": [
                {
                    "name": s.name,
                    "size_bytes": s.size_bytes,
                    "nha": s.nha,
                    "n_error": s.n_error,
                    "dvf": s.dvf,
                    "degraded": s.degraded,
                }
                for s in self.structures
            ],
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def structure(self, name: str) -> StructureDVF:
        """Result row for one data structure."""
        for s in self.structures:
            if s.name == name:
                return s
        raise KeyError(
            f"no data structure {name!r} in report "
            f"(has {[s.name for s in self.structures]})"
        )

    def dvf_by_structure(self) -> dict[str, float]:
        """Mapping of structure name to DVF_d."""
        return {s.name: s.dvf for s in self.structures}

    def ranked(self) -> list[StructureDVF]:
        """Structures sorted most-vulnerable first."""
        return sorted(self.structures, key=lambda s: s.dvf, reverse=True)


def build_report(
    application: str,
    machine: str,
    fit: float,
    time_seconds: float,
    sizes: dict[str, float],
    nha: dict[str, float],
    alpha: float = 1.0,
    beta: float = 1.0,
    degraded: set[str] | frozenset[str] | None = None,
    sink: DiagnosticSink | None = None,
) -> DVFReport:
    """Assemble a :class:`DVFReport` from per-structure sizes and N_ha.

    ``degraded`` names structures whose ``N_ha`` is the worst-case
    degradation bound; they are flagged in the rows.  Without a
    ``sink`` rejected inputs (NaN/inf, negative) raise.  With one, such
    a structure is flagged degraded with a zero contribution and an
    ``ASP305`` diagnostic, so ``DVF_a`` stays finite, and the report
    carries every diagnostic in the sink.
    """
    missing = set(nha) - set(sizes)
    if missing:
        raise ValueError(f"N_ha given for structures without sizes: {missing}")
    degraded = set(degraded or ())
    rows = []
    for name in nha:
        try:
            errors = n_error(fit, time_seconds, sizes[name])
            dvf = dvf_data(
                fit, time_seconds, sizes[name], nha[name], alpha=alpha, beta=beta
            )
            row_nha = nha[name]
        except ValueError as exc:
            if sink is None:
                raise
            sink.error(
                "ASP305",
                f"DVF inputs for {name!r} rejected ({exc}); the structure "
                f"contributes 0 to DVF_a and is flagged degraded",
                structure=name,
            )
            errors, dvf, row_nha = 0.0, 0.0, 0.0
            degraded.add(name)
        rows.append(
            StructureDVF(
                name=name,
                size_bytes=sizes[name],
                nha=row_nha,
                n_error=errors,
                dvf=dvf,
                degraded=name in degraded,
            )
        )
    return DVFReport(
        application=application,
        machine=machine,
        fit=fit,
        time_seconds=time_seconds,
        structures=tuple(rows),
        diagnostics=tuple(sink) if sink is not None else (),
    )

"""Common contract for CGPMAC access-pattern estimators.

Beyond the abstract estimator interface, this module hosts the
*guardrail* layer of the fail-soft pipeline: every pattern declares
physical bounds for its estimate (:meth:`AccessPattern.min_accesses`,
:meth:`AccessPattern.max_accesses`), and
:meth:`AccessPattern.estimate_accesses_checked` clamps the analytical
formula into the feasible region ``[footprint_blocks, T*AE]`` with a
WARNING diagnostic whenever the closed form drifts outside it (e.g.
hypergeometric corner cases or reuse-model probabilities leaving
``[0, 1]``), and degrades to the documented worst-case bound
``N_ha = T*AE`` when the estimator fails outright or goes non-finite.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.cachesim.configs import CacheGeometry
from repro.diagnostics import DiagnosticSink

#: Relative slack before an out-of-bounds estimate is reported: pure
#: floating-point noise at the boundary is clamped silently.
_BOUND_RTOL = 1e-9


class PatternError(ValueError):
    """Raised for invalid access-pattern parameters."""


class AccessPattern(ABC):
    """An analytical model of how one data structure is accessed.

    Subclasses estimate the number of main-memory accesses behind a
    last-level cache described by a :class:`CacheGeometry`, following the
    paper's §III-C.  Estimates are floats: the underlying analysis is
    probabilistic and expected values are generally fractional.
    """

    #: Human-readable pattern-family name.
    name: str = "abstract"

    @abstractmethod
    def estimate_accesses(self, geometry: CacheGeometry) -> float:
        """Expected number of main-memory accesses (cache-block loads)."""

    @abstractmethod
    def footprint_bytes(self) -> int:
        """Bytes of the data structure touched by this pattern."""

    def footprint_blocks(self, geometry: CacheGeometry) -> int:
        """Cache blocks the touched footprint occupies (``ceil(D / CL)``)."""
        return ceil_div(self.footprint_bytes(), geometry.line_size)

    # -- physical bounds ------------------------------------------------
    def min_accesses(self, geometry: CacheGeometry) -> float:
        """Physical floor: every touched block loads at least once.

        The default is the full footprint in blocks; patterns that touch
        only part of the structure (sparse strides, partial templates)
        override this with their touched-block count.
        """
        return float(self.footprint_blocks(geometry))

    def max_accesses(self, geometry: CacheGeometry) -> float:
        """Physical ceiling ``T*AE``: every reference misses every line.

        ``T`` is the total number of element references the pattern
        issues and ``AE`` the worst-case line loads per reference.
        Subclasses override with their tight ceiling; the default is
        unbounded (no clamp).
        """
        return float("inf")

    # -- guarded evaluation ---------------------------------------------
    def estimate_accesses_checked(
        self,
        geometry: CacheGeometry,
        sink: DiagnosticSink | None = None,
        structure: str | None = None,
    ) -> tuple[float, bool]:
        """Estimate with domain guardrails: ``(n_ha, degraded)``.

        The raw :meth:`estimate_accesses` value is checked for
        finiteness and clamped into ``[min_accesses, max_accesses]``
        (warnings ``ASP301``/``ASP302`` in ``sink``).  Without a ``sink``
        an estimator failure or non-finite result raises; with one it
        degrades to the worst-case bound ``N_ha = T*AE``
        (``ASP303``/``ASP304``) and is flagged ``degraded=True``.
        """
        label = structure or self.name
        lo = float(self.min_accesses(geometry))
        hi = float(self.max_accesses(geometry))
        worst = hi if math.isfinite(hi) else lo

        try:
            value = float(self.estimate_accesses(geometry))
        except (PatternError, ArithmeticError, ValueError) as exc:
            if sink is None:
                raise
            sink.error(
                "ASP304",
                f"estimator for {label!r} failed ({exc}); degraded to "
                f"the worst-case bound N_ha = T*AE = {worst:g}",
                structure=label,
                hint="fix the pattern parameters to restore the "
                "analytical estimate",
            )
            return worst, True

        if not math.isfinite(value):
            if sink is None:
                raise PatternError(
                    f"estimator for {label!r} produced non-finite "
                    f"N_ha = {value!r}"
                )
            sink.warning(
                "ASP303",
                f"estimator for {label!r} produced non-finite "
                f"N_ha = {value!r}; degraded to the worst-case bound "
                f"T*AE = {worst:g}",
                structure=label,
            )
            return worst, True

        slack = _BOUND_RTOL * max(abs(lo), abs(hi if math.isfinite(hi) else lo), 1.0)
        if value < lo:
            if sink is not None and value < lo - slack:
                sink.warning(
                    "ASP301",
                    f"estimate for {label!r} ({value:g}) is below the "
                    f"physical floor of {lo:g} touched blocks; clamped",
                    structure=label,
                )
            value = lo
        elif value > hi:
            if sink is not None and value > hi + slack:
                sink.warning(
                    "ASP302",
                    f"estimate for {label!r} ({value:g}) exceeds the "
                    f"physical ceiling T*AE = {hi:g}; clamped",
                    structure=label,
                )
            value = hi
        return value, False

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{k}={v!r}" for k, v in vars(self).items() if not k.startswith("_")
        )
        return f"{type(self).__name__}({fields})"


class WorstCaseAccess(AccessPattern):
    """Degradation bound for a structure whose estimator is unusable.

    In lenient evaluation an invalid pattern declaration is replaced
    by this bound: every one of the ``T`` references loads every line an
    element can span (``AE = floor(E/CL) + 1``), i.e. ``N_ha = T*AE``.
    It is deliberately pessimistic — a degraded structure ranks *at
    least* as vulnerable as any correct model of it would.
    """

    name = "worst-case"

    def __init__(
        self,
        num_elements: int,
        element_size: int,
        total_references: float | None = None,
    ):
        if num_elements < 1:
            raise PatternError(f"num_elements must be >= 1, got {num_elements}")
        if element_size < 1:
            raise PatternError(f"element_size must be >= 1, got {element_size}")
        if total_references is not None and (
            not math.isfinite(total_references) or total_references < 0
        ):
            raise PatternError(
                f"total_references must be finite and >= 0, "
                f"got {total_references}"
            )
        self.num_elements = num_elements
        self.element_size = element_size
        #: ``T``: defaults to one full traversal of the structure.
        self.total_references = (
            float(total_references)
            if total_references is not None
            else float(num_elements)
        )

    def footprint_bytes(self) -> int:
        return self.num_elements * self.element_size

    def max_accesses(self, geometry: CacheGeometry) -> float:
        ae = max_lines_per_reference(self.element_size, geometry.line_size)
        return max(
            self.total_references * ae, float(self.footprint_blocks(geometry))
        )

    def estimate_accesses(self, geometry: CacheGeometry) -> float:
        return self.max_accesses(geometry)


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division for non-negative operands."""
    if a < 0:
        raise PatternError(f"ceil_div dividend must be >= 0, got {a}")
    if b <= 0:
        raise PatternError(f"ceil_div divisor must be positive, got {b}")
    return -(-a // b)


def max_lines_per_reference(
    element_size: int, line_size: int, aligned: bool = False
) -> int:
    """Worst-case cache lines one element reference can touch (``AE_max``).

    An unaligned element of ``E`` bytes can straddle one more line than
    its aligned span: the maximum of
    ``floor((o + E - 1)/CL) - floor(o/CL) + 1`` over start offsets ``o``
    is ``floor((E - 2)/CL) + 2`` for ``E >= 2`` (and 1 for ``E = 1``).
    """
    if element_size < 1:
        raise PatternError(f"element size must be >= 1, got {element_size}")
    if line_size < 1:
        raise PatternError(f"line size must be >= 1, got {line_size}")
    if aligned:
        return ceil_div(element_size, line_size)
    if element_size == 1:
        return 1
    return (element_size - 2) // line_size + 2


def alignment_probability(element_size: int, line_size: int) -> float:
    """Probability that an element straddles one extra cache line (Eq. 3).

    ``p = ((E - 1) mod CL) / CL`` — assuming each byte offset within a
    line is equally likely to start the element.
    """
    if element_size < 1:
        raise PatternError(f"element size must be >= 1, got {element_size}")
    if line_size < 1:
        raise PatternError(f"line size must be >= 1, got {line_size}")
    return ((element_size - 1) % line_size) / line_size


def expected_accesses_per_element(element_size: int, line_size: int) -> float:
    """Expected line loads per element reference (Eq. 4).

    ``AE = floor(E/CL) + p`` where ``p`` is the misalignment probability.
    """
    p = alignment_probability(element_size, line_size)
    return math.floor(element_size / line_size) + p

"""Selective protection planning driven by DVF (extension).

The paper's motivation (§I): "selectively apply protection mechanisms to
its critical components ... with minimal overhead".  DVF provides the
criticality ranking; this module closes the loop by choosing *which*
data structures to protect under a budget.

Model
-----
Protecting a structure (ABFT, replication, software ECC, placing it in
protected memory, ...) multiplies its DVF by a residual factor
``fit_residual / fit_baseline`` and costs overhead proportional to the
structure's footprint (protection state, encode/decode traffic).  Given
a budget, choosing the protection set is a 0/1 knapsack over the DVF
*reduction* of each structure; footprints are small integers (bytes /
protection granularity), so the classic dynamic program is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dvf import DVFReport


@dataclass(frozen=True)
class ProtectionPlan:
    """Outcome of selective-protection planning.

    Attributes
    ----------
    protected:
        Names of the structures chosen for protection.
    cost:
        Budget consumed (in the same units as the budget given).
    dvf_before / dvf_after:
        Application DVF without and with the plan applied.
    """

    protected: tuple[str, ...]
    cost: float
    dvf_before: float
    dvf_after: float

    @property
    def improvement(self) -> float:
        """DVF reduction factor (>= 1; 1.0 means nothing protected)."""
        if self.dvf_after == 0:
            return float("inf")
        return self.dvf_before / self.dvf_after


def plan_protection(
    report: DVFReport,
    budget_bytes: float,
    residual_factor: float = 0.01,
    cost_per_byte: float = 0.125,
    granularity: int = 4096,
) -> ProtectionPlan:
    """Choose the structures to protect under a byte budget.

    Parameters
    ----------
    report:
        A DVF report (per-structure vulnerabilities).
    budget_bytes:
        Maximum protection overhead allowed, in bytes (e.g. spare
        memory available for redundancy); ``inf`` protects every
        structure.
    residual_factor:
        Remaining fraction of a structure's DVF once protected
        (0.01 ~ two orders of magnitude, a Chipkill-class mechanism).
    cost_per_byte:
        Overhead bytes per protected byte (0.125 = 12.5%, ECC-like).
    granularity:
        Knapsack weight quantum in bytes; smaller = more precise and
        slower.  Costs are rounded *up* to the quantum, so the budget
        is never exceeded.

    Returns
    -------
    ProtectionPlan
        The exact optimum of the knapsack relaxation described above.
    """
    if not 0 <= residual_factor <= 1:
        raise ValueError(f"residual_factor must be in [0, 1], got {residual_factor}")
    if not budget_bytes >= 0:  # NaN fails this too
        raise ValueError(f"budget_bytes must be >= 0, got {budget_bytes}")
    if cost_per_byte <= 0:
        raise ValueError(f"cost_per_byte must be positive, got {cost_per_byte}")
    if granularity < 1:
        raise ValueError(f"granularity must be >= 1, got {granularity}")

    structures = list(report.structures)
    dvf_before = report.dvf_application
    # Item weights in quanta (rounded up), values = DVF removed.
    weights = []
    values = []
    for s in structures:
        cost = s.size_bytes * cost_per_byte
        weights.append(max(int(-(-cost // granularity)), 1))
        values.append(s.dvf * (1.0 - residual_factor))
    # A budget that covers every structure needs no larger table (and an
    # infinite one has no quanta to count).
    total = sum(weights)
    if budget_bytes >= total * granularity:
        capacity = total
    else:
        capacity = int(budget_bytes // granularity)

    # 0/1 knapsack DP over capacity quanta with choice reconstruction.
    n = len(structures)
    best = [[0.0] * (capacity + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        weight = weights[i - 1]
        value = values[i - 1]
        row = best[i]
        prev = best[i - 1]
        for c in range(capacity + 1):
            row[c] = prev[c]
            if weight <= c and prev[c - weight] + value > row[c]:
                row[c] = prev[c - weight] + value
    chosen: list[int] = []
    c = capacity
    for i in range(n, 0, -1):
        if best[i][c] != best[i - 1][c]:
            chosen.append(i - 1)
            c -= weights[i - 1]
    chosen.reverse()

    removed = sum(values[i] for i in chosen)
    cost = sum(weights[i] for i in chosen) * granularity
    return ProtectionPlan(
        protected=tuple(structures[i].name for i in chosen),
        cost=float(cost),
        dvf_before=dvf_before,
        dvf_after=dvf_before - removed,
    )


def greedy_ranking(report: DVFReport) -> list[tuple[str, float]]:
    """Structures ranked by DVF per protection byte (a quick heuristic).

    Useful when an exact budget is not yet known: protect from the top
    of this list until the overhead budget runs out.
    """
    rows = [
        (s.name, s.dvf / max(s.size_bytes, 1.0)) for s in report.structures
    ]
    rows.sort(key=lambda item: item[1], reverse=True)
    return rows

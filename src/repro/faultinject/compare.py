"""Comparing DVF rankings against empirical fault-injection results.

DVF and fault injection measure related but distinct quantities:

* a campaign's *failure rate* is `P(output corrupted | fault struck d)`;
* DVF_d is proportional to `P(fault strikes d)` x exposure
  (`FIT * T * S_d`) weighted by access intensity (`N_ha`).

The comparable quantity is the **empirical vulnerability**
`N_error(d) * failure_rate(d)` — expected visible failures chargeable
to d — whose ranking DVF approximates *without running a single fault*.
"""

from __future__ import annotations

from repro.core.dvf import DVFReport, n_error
from repro.faultinject.campaign import CampaignResult


def empirical_vulnerability(
    campaign: CampaignResult,
    report: DVFReport,
) -> dict[str, float]:
    """``N_error(d) * failure_rate(d)`` per structure.

    Uses the report's FIT and execution time so both sides of the
    comparison share the same exposure model.  Structures with zero
    counted trials (possible in a partial, interrupted campaign) are
    skipped — they carry no empirical information.
    """
    out: dict[str, float] = {}
    for stats in campaign.structures:
        if stats.trials == 0:
            continue
        row = report.structure(stats.structure)
        errors = n_error(report.fit, report.time_seconds, row.size_bytes)
        out[stats.structure] = errors * stats.failure_rate
    return out


def rank_agreement(
    campaign: CampaignResult, report: DVFReport
) -> tuple[float, dict[str, float]]:
    """Spearman rank correlation between DVF and empirical vulnerability.

    Returns ``(rho, empirical)``; ``rho = 1.0`` means DVF orders the
    structures exactly as the (much more expensive) campaign does.
    With fewer than two structures the correlation is defined as 1.0.
    """
    empirical = empirical_vulnerability(campaign, report)
    names = sorted(empirical)
    if len(names) < 2:
        return 1.0, empirical
    emp_values = [empirical[name] for name in names]
    if len(set(emp_values)) == 1:
        # Underpowered campaign (e.g. zero failures everywhere): no
        # ranking information — report NaN rather than a spurious value.
        return float("nan"), empirical
    dvf_values = [report.structure(name).dvf for name in names]
    from scipy import stats as sp_stats

    rho = sp_stats.spearmanr(dvf_values, emp_values).statistic
    return float(rho), empirical

"""Log aggregation for the reports.

Campaign logs reach a few thousand records; the aggregations the
reports and benches need (per-category counts, severity histograms,
wall-time percentiles, return-code distributions) are single passes
over the records with :class:`collections.Counter` — at this size a
plain loop costs less than importing an array library to do it.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter

from repro.fault.campaign import CampaignResult
from repro.fault.classify import Severity
from repro.fault.testlog import CampaignLog


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` by linear interpolation.

    The same definition as NumPy's default (``method="linear"``): the
    percentile sits at position ``(n - 1) * q / 100`` of the sorted
    values, interpolated between its two neighbours.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    ordered = sorted(values)
    position = (len(ordered) - 1) * (q / 100)
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    low, high = ordered[lower], ordered[upper]
    fraction = position - lower
    # Interpolate from the nearer end, as NumPy's lerp does, so the
    # result is bit-identical to it.
    if fraction >= 0.5:
        return high - (high - low) * (1 - fraction)
    return low + (high - low) * fraction


def tests_per_category(log: CampaignLog) -> dict[str, int]:
    """Category -> executed tests."""
    return dict(sorted(Counter(record.category for record in log).items()))


def rc_distribution(log: CampaignLog) -> dict[int, int]:
    """Return code -> count over first invocations that returned."""
    codes = Counter(
        record.first_rc for record in log if record.first_rc is not None
    )
    return dict(sorted(codes.items()))


def wall_time_stats(log: CampaignLog) -> dict[str, float]:
    """min/median/p95/max/total of per-test wall time, in seconds."""
    wall = [record.wall_time_s for record in log]
    if not wall:
        return {"min": 0.0, "median": 0.0, "p95": 0.0, "max": 0.0, "total": 0.0}
    return {
        "min": float(min(wall)),
        "median": float(statistics.median(wall)),
        "p95": float(percentile(wall, 95)),
        "max": float(max(wall)),
        "total": float(math.fsum(wall)),
    }


def durability_summary(log: CampaignLog) -> dict[str, int]:
    """Counts of the process-level outcomes the campaign supervisor sees.

    ``worker_killed`` are tests that took their worker process down;
    ``watchdog_expired`` are runaway runs aborted by the wall-clock
    watchdog (a subset of ``sim_hung``).  ``arbitrated`` counts
    verdicts that went through retry-with-quorum arbitration (more than
    one run consumed), ``retried_runs`` the extra runs arbitration
    spent beyond one per record, and ``quarantined`` the known killers
    skipped without execution.
    """
    return {
        "records": len(log),
        "worker_killed": sum(1 for r in log if r.worker_killed),
        "watchdog_expired": sum(1 for r in log if r.watchdog_expired),
        "sim_hung": sum(1 for r in log if r.sim_hung),
        "sim_crashed": sum(1 for r in log if r.sim_crashed),
        "arbitrated": sum(1 for r in log if r.arbitrated),
        "retried_runs": sum(r.attempts - 1 for r in log),
        "quarantined": sum(1 for r in log if r.quarantined),
    }


def severity_matrix(result: CampaignResult) -> tuple[list[str], list[list[int]]]:
    """(category labels, category x severity count rows).

    One row per category (sorted), one column per :class:`Severity` in
    declaration order.
    """
    counts = Counter(
        (record.category, classification.severity)
        for record, _expectation, classification in result.classified
    )
    categories = sorted({category for category, _severity in counts})
    matrix = [
        [counts[(category, severity)] for severity in Severity]
        for category in categories
    ]
    return categories, matrix


def response_diversity(result: CampaignResult, function: str) -> dict[str, set[str]]:
    """Distinct system responses per argument tuple for one hypercall.

    §V observes that "different invalid values often elicit different
    system responses from a given hypercall"; this maps each dataset
    (by its labels) to the set of distinct observable responses it drew
    (return-code name, or the failure mechanism), so a test
    administrator can see which value choices matter.
    """
    from repro.xm import rc as rc_mod

    out: dict[str, set[str]] = {}
    for record, _expectation, classification in result.classified:
        if record.function != function:
            continue
        key = ", ".join(record.arg_labels)
        responses = out.setdefault(key, set())
        if classification.is_failure:
            responses.add(classification.kind.value)
        for invocation in record.invocations:
            if invocation.returned and invocation.rc is not None:
                responses.add(rc_mod.name_of(invocation.rc))
            elif not invocation.returned:
                responses.add("no return")
    return out


def distinct_response_count(result: CampaignResult, function: str) -> int:
    """How many distinct responses one hypercall produced overall."""
    responses: set[str] = set()
    for per_dataset in response_diversity(result, function).values():
        responses |= per_dataset
    return len(responses)


def failure_rate_by_function(result: CampaignResult) -> dict[str, float]:
    """Function -> fraction of its tests that failed."""
    totals: dict[str, int] = {}
    fails: dict[str, int] = {}
    for record, _expectation, classification in result.classified:
        totals[record.function] = totals.get(record.function, 0) + 1
        if classification.is_failure:
            fails[record.function] = fails.get(record.function, 0) + 1
    return {
        fn: fails.get(fn, 0) / total for fn, total in sorted(totals.items())
    }

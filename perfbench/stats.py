"""Summary statistics shared by every workload.

Timings are reported as a median plus the *tail*: the highest
percentile that still has at least ten samples beyond it, together
with the sample count, so a tail is never read off a handful of
outliers.
"""

import statistics

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values, beyond=TAIL_BEYOND):
    """``(value, percentile, n)`` for the highest percentile with at
    least ``beyond`` samples above it.

    With nearest-rank percentiles the candidate is the sample at sorted
    index ``n - beyond - 1``: exactly ``beyond`` samples lie past it and
    it is the ``100 * (n - beyond) / n`` percentile.  With ``beyond`` or
    fewer samples no percentile qualifies; the maximum is returned with
    percentile 100 so the report still shows it, flagged by ``n``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= beyond:
        return ordered[-1], 100.0, n
    index = n - beyond - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def spread(values):
    """Interquartile distance as a share of the median (0 when undefined)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0

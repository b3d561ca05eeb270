"""Order statistics and job tallies shared by the benchmark driver and its tests."""

from __future__ import annotations

import math
from dataclasses import dataclass

# candidate tail percentiles, highest first; one is reported only when at
# least TAIL_MIN_BEYOND samples lie beyond it
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default rule) of a nonempty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with at least ten of ``n`` samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) >= TAIL_MIN_BEYOND * 100.0 - 1e-6:  # 100 - 99.9 is inexact
            return p
    return None


def summarize(values) -> dict:
    """Sample count, minimum, median and the tail percentile the count supports (or None)."""
    n = len(values)
    p = tail_percentile(n)
    return {
        "n": n,
        "min": min(values),
        "median": median(values),
        "tail_p": p,
        "tail": percentile(values, p) if p is not None else None,
    }


@dataclass(frozen=True)
class Job:
    """One checked unit of work: a sweep row, a quartic run, a conjugacy level or a suite."""

    label: str
    ok: bool
    detail: str = ""


def tally(jobs) -> tuple[int, int, float]:
    """(attempted, failed, failed / attempted); an empty list counts as one failure."""
    jobs = list(jobs)
    attempted = len(jobs)
    failed = sum(1 for j in jobs if not j.ok)
    if attempted == 0:
        return 1, 1, 1.0
    return attempted, failed, failed / attempted

"""Hour-of-day analytics (Fig. 4).

"We consider the downloaded volume in each 10 minute-long time interval.
We then average all values seen for the same time bin in all days of a
month.  At last we compute the ratio between April 2017 and April 2014...
curves are smoothed using a Bezier interpolation."
"""

from __future__ import annotations

import calendar
import datetime
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.dataflow.columnar import ColumnBatch
from repro.synthesis.flowgen import HOURLY_CODEC, HourlyVolume
from repro.synthesis.population import Technology
from repro.synthesis.studycalendar import BINS_PER_DAY


@dataclass(frozen=True)
class HourlyProfile:
    """Mean bytes per 10-minute bin over the days of one month."""

    technology: Technology
    month: Tuple[int, int]
    bins: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.bins) != BINS_PER_DAY:
            raise ValueError(f"expected {BINS_PER_DAY} bins, got {len(self.bins)}")


def monthly_profile(
    volumes: Iterable[HourlyVolume],
    technology: Technology,
    year: int,
    month: int,
) -> HourlyProfile:
    """Average the per-bin volumes over all days of (year, month)."""
    table = ColumnBatch.of(volumes, HOURLY_CODEC)
    columns = table.columns
    first = datetime.date(year, month, 1).toordinal()
    rows = table.equals("technology", technology.value) & (columns["day"] >= first)
    rows &= columns["day"] < first + calendar.monthrange(year, month)[1]
    if not rows.any():
        raise ValueError(f"no hourly data for {technology} in {year}-{month:02d}")
    # floats summed in row order, as a running per-bin total would
    sums = np.zeros(BINS_PER_DAY)
    np.add.at(sums, columns["bin_index"][rows], columns["bytes_down"][rows].astype(float))
    count = np.unique(columns["day"][rows]).size
    return HourlyProfile(
        technology=technology,
        month=(year, month),
        bins=tuple(total / count for total in sums.tolist()),
    )


def profile_ratio(later: HourlyProfile, earlier: HourlyProfile) -> List[float]:
    """Per-bin ratio later/earlier (the Fig. 4 series before smoothing)."""
    if later.technology is not earlier.technology:
        raise ValueError("profiles of different technologies")
    ratios = []
    for late, early in zip(later.bins, earlier.bins):
        ratios.append(late / early if early > 0 else 0.0)
    return ratios


def bezier_smooth(values: List[float], window: int = 9) -> List[float]:
    """Smooth a series the way gnuplot's Bézier option does, approximately.

    A full Bernstein-polynomial fit over 144 points is numerically
    degenerate; like gnuplot we approximate with an iterated
    binomial-weighted moving average, which converges to the Bézier curve
    shape for interior points.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be odd and positive")
    half = window // 2
    weights = _binomial_weights(window)
    smoothed = []
    count = len(values)
    for index in range(count):
        total = 0.0
        weight_sum = 0.0
        for offset in range(-half, half + 1):
            neighbor = index + offset
            if 0 <= neighbor < count:
                weight = weights[offset + half]
                total += values[neighbor] * weight
                weight_sum += weight
        smoothed.append(total / weight_sum)
    return smoothed


def _binomial_weights(window: int) -> List[float]:
    weights = [1.0]
    for _ in range(window - 1):
        weights = [1.0] + [
            weights[i] + weights[i + 1] for i in range(len(weights) - 1)
        ] + [1.0]
    total = sum(weights)
    return [weight / total for weight in weights]


def bins_to_hours(values: List[float]) -> Dict[int, float]:
    """Average 10-minute bins into hourly values (for compact reporting)."""
    bins_per_hour = BINS_PER_DAY // 24
    hours: Dict[int, float] = {}
    for hour in range(24):
        chunk = values[hour * bins_per_hour : (hour + 1) * bins_per_hour]
        hours[hour] = sum(chunk) / len(chunk)
    return hours

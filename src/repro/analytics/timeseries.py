"""Monthly time-series analytics (Fig. 3, 6, 7, 9 backbones).

Rolls subscriber-day data up to monthly means, keeping missing months
(probe outages) as genuine gaps — the paper's curves "contain
interruptions caused by outages in monitoring probes, without affecting
trends".
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analytics.activity import SubscriberDay
from repro.synthesis.population import Technology

Month = Tuple[int, int]


def month_of(day: datetime.date) -> Month:
    return (day.year, day.month)


@dataclass(frozen=True)
class MonthlySeries:
    """A per-month series with explicit gaps (None) for missing months."""

    months: Tuple[Month, ...]
    values: Tuple[Optional[float], ...]

    def value_at(self, year: int, month: int) -> Optional[float]:
        try:
            index = self.months.index((year, month))
        except ValueError:
            return None
        return self.values[index]

    def defined(self) -> List[Tuple[Month, float]]:
        return [
            (month, value)
            for month, value in zip(self.months, self.values)
            if value is not None
        ]

    def gap_months(self) -> List[Month]:
        return [
            month
            for month, value in zip(self.months, self.values)
            if value is None
        ]


def monthly_mean(
    samples: Iterable[Tuple[datetime.date, float]],
    months: List[Month],
) -> MonthlySeries:
    """Mean of daily samples per month; months with no samples become None."""
    sums: Dict[Month, float] = {}
    counts: Dict[Month, int] = {}
    for day, value in samples:
        month = month_of(day)
        sums[month] = sums.get(month, 0.0) + value
        counts[month] = counts.get(month, 0) + 1
    values: List[Optional[float]] = []
    for month in months:
        if counts.get(month):
            values.append(sums[month] / counts[month])
        else:
            values.append(None)
    return MonthlySeries(months=tuple(months), values=tuple(values))


def mean_daily_traffic_per_subscriber(
    days: Iterable[SubscriberDay],
    months: List[Month],
    technology: Technology,
    direction: str = "down",
    active_only: bool = True,
) -> MonthlySeries:
    """Fig. 3: average per-subscription daily traffic, by month and tech.

    Per day, the mean over (active) subscribers of that day's bytes; per
    month, the mean over days.
    """
    if direction not in ("down", "up"):
        raise ValueError(f"bad direction {direction!r}")
    by_day: Dict[datetime.date, List[int]] = {}
    for entry in days:
        if entry.technology is not technology:
            continue
        if active_only and not entry.active:
            continue
        value = entry.bytes_down if direction == "down" else entry.bytes_up
        by_day.setdefault(entry.day, []).append(value)
    daily_means = [
        (day, sum(values) / len(values)) for day, values in by_day.items() if values
    ]
    return monthly_mean(daily_means, months)


def daily_series(
    samples: Iterable[Tuple[datetime.date, float]]
) -> List[Tuple[datetime.date, float]]:
    """Sort (day, value) samples by day (Fig. 9 uses daily resolution)."""
    return sorted(samples, key=lambda pair: pair[0])


def growth_factor(series: MonthlySeries) -> Optional[float]:
    """Last defined value over first defined value (trend summary)."""
    defined = series.defined()
    if len(defined) < 2 or defined[0][1] == 0:
        return None
    return defined[-1][1] / defined[0][1]

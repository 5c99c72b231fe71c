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

import numpy as np

from repro.analytics.activity import SUBSCRIBER_DAY_CODEC, SubscriberDay, group_rows
from repro.dataflow.columnar import ColumnBatch
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

    Per day, the mean over (active) subscribers of that day's bytes — the
    exact integer sum over the count; per month, the mean over days, taken
    in the order the days first appear.
    """
    if direction not in ("down", "up"):
        raise ValueError(f"bad direction {direction!r}")
    table = ColumnBatch.of(days, SUBSCRIBER_DAY_CODEC)
    rows = table.equals("technology", technology.value)
    if active_only:
        rows &= table.columns["active"]
    ordinals = table.columns["day"][rows]
    order, starts = group_rows(ordinals)
    totals = np.add.reduceat(table.columns[f"bytes_{direction}"][rows][order], starts)
    counts = np.diff(starts, append=order.size)
    first = np.argsort(order[starts])  # the days in first-appearance order
    to_date = table.cell_decoder("day")
    return monthly_mean(
        (
            (to_date(ordinal), total / count)
            for ordinal, total, count in zip(
                ordinals[order[starts]][first].tolist(),
                totals[first].tolist(),
                counts[first].tolist(),
            )
        ),
        months,
    )


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

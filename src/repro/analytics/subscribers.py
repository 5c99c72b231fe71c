"""Subscriber-dynamics analytics: churn and heavy-day behaviour.

Two observations of the paper that sit outside its numbered figures:

* Section 2.1 — "a steady reduction on the number of active ADSL users
  and an increase in FTTH installations" (churn and technology upgrades);
* Section 3.1 — "many different subscribers present days of heavy usage,
  often alternating between days of light and heavy usage".

Both are measurable from the subscriber-day table; this module computes
them from its columns so the claims can be asserted instead of eyeballed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.analytics.activity import SUBSCRIBER_DAY_CODEC, SubscriberDay, group_rows
from repro.analytics.timeseries import Month, MonthlySeries, monthly_mean
from repro.dataflow.columnar import ColumnBatch
from repro.synthesis.population import Technology

GB = 1_000_000_000


def observed_subscribers(
    days: Iterable[SubscriberDay],
    months: List[Month],
    technology: Technology,
) -> MonthlySeries:
    """Mean daily count of observed subscribers per month, one technology."""
    table = ColumnBatch.of(days, SUBSCRIBER_DAY_CODEC)
    ordinals = table.columns["day"][table.equals("technology", technology.value)]
    distinct, counts = np.unique(ordinals, return_counts=True)
    dates = map(table.cell_decoder("day"), distinct.tolist())
    return monthly_mean(zip(dates, map(float, counts.tolist())), months)


def churn_trend(
    days: Iterable[SubscriberDay], months: List[Month]
) -> Dict[Technology, Optional[float]]:
    """End-over-start ratio of observed subscribers per technology.

    The paper's expectation: ADSL < 1 (decline), FTTH > 1 (growth).
    """
    table = ColumnBatch.of(days, SUBSCRIBER_DAY_CODEC)
    trends: Dict[Technology, Optional[float]] = {}
    for technology in Technology:
        series = observed_subscribers(table, months, technology)
        defined = series.defined()
        if len(defined) < 2 or defined[0][1] == 0:
            trends[technology] = None
            continue
        first = sum(value for _, value in defined[:3]) / min(3, len(defined))
        last = sum(value for _, value in defined[-3:]) / min(3, len(defined))
        trends[technology] = last / first if first else None
    return trends


@dataclass(frozen=True)
class HeavyDayStats:
    """Section 3.1's alternation claim, quantified."""

    threshold_bytes: int
    subscribers_observed: int
    subscribers_with_heavy_days: int
    mean_heavy_fraction: float  # among subscribers with ≥1 heavy day
    alternation_rate: float  # P(next observed day is light | heavy day)

    @property
    def heavy_subscriber_share(self) -> float:
        if self.subscribers_observed == 0:
            return 0.0
        return self.subscribers_with_heavy_days / self.subscribers_observed


def heavy_day_stats(
    days: Iterable[SubscriberDay],
    threshold_bytes: int = GB,
    active_only: bool = True,
) -> HeavyDayStats:
    """Quantify who has heavy (>threshold download) days and whether they
    alternate with light days rather than clustering.

    Each subscriber's days are taken in day order; a transition is a pair
    of consecutive observed days of one subscriber."""
    table = ColumnBatch.of(days, SUBSCRIBER_DAY_CODEC)
    rows = table.columns["active"] if active_only else slice(None)
    subscribers = table.columns["subscriber_id"][rows]
    order, _ = group_rows(subscribers, table.columns["day"][rows])
    subscribers = subscribers[order]
    heavy = (table.columns["bytes_down"][rows] > threshold_bytes)[order]
    starts = group_rows(subscribers)[1]  # each subscriber's first day
    same = subscribers[1:] == subscribers[:-1]  # consecutive days of one subscriber
    heavy_days = np.add.reduceat(heavy.astype(np.int64), starts)
    with_heavy = heavy_days > 0
    fractions = heavy_days[with_heavy] / np.diff(starts, append=subscribers.size)[with_heavy]
    after_heavy = heavy[:-1] & same
    transitions = int(np.count_nonzero(after_heavy))
    alternations = int(np.count_nonzero(after_heavy & ~heavy[1:]))
    return HeavyDayStats(
        threshold_bytes=threshold_bytes,
        subscribers_observed=int(starts.size),
        subscribers_with_heavy_days=int(fractions.size),
        mean_heavy_fraction=(
            math.fsum(fractions.tolist()) / fractions.size if fractions.size else 0.0
        ),
        alternation_rate=alternations / transitions if transitions else 0.0,
    )

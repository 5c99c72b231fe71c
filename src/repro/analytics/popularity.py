"""Service popularity and traffic-share analytics (Figs. 5-7 backbones).

Popularity of a service on a day = fraction of *active* subscribers whose
traffic to the service passed its visit threshold (Section 4.1).  Traffic
share = the service's bytes over all bytes in the mix that day.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analytics.activity import SubscriberDay, group_ids, group_rows
from repro.analytics.timeseries import Month, MonthlySeries, monthly_mean
from repro.dataflow.columnar import ColumnBatch
from repro.services.thresholds import VisitClassifier
from repro.synthesis.flowgen import USAGE_CODEC, DailyUsage
from repro.synthesis.population import Technology


@dataclass(frozen=True)
class DailyServiceStats:
    """One (day, service) cell of the Fig. 5 heatmaps.

    ``technology`` is the restriction under which the cell was computed
    (None = all access technologies).  Counts and byte totals are additive
    across technologies, so per-tech cells can be merged.
    """

    day: datetime.date
    service: str
    visitors: int
    active_subscribers: int
    bytes_down: int
    bytes_total: int
    visitor_bytes: int = 0  # down+up of threshold-passing subscribers only
    technology: Optional[Technology] = None

    @property
    def popularity(self) -> float:
        if self.active_subscribers == 0:
            return 0.0
        return self.visitors / self.active_subscribers

    @property
    def mean_visitor_bytes(self) -> float:
        """Mean daily bytes per visiting subscriber (Figs. 6/7 bottom)."""
        if self.visitors == 0:
            return 0.0
        return self.visitor_bytes / self.visitors

    def merged(self, other: "DailyServiceStats") -> "DailyServiceStats":
        """Combine two cells of the same (day, service) across technologies."""
        if (self.day, self.service) != (other.day, other.service):
            raise ValueError("cannot merge cells of different (day, service)")
        return DailyServiceStats(
            day=self.day,
            service=self.service,
            visitors=self.visitors + other.visitors,
            active_subscribers=self.active_subscribers + other.active_subscribers,
            bytes_down=self.bytes_down + other.bytes_down,
            bytes_total=self.bytes_total + other.bytes_total,
            visitor_bytes=self.visitor_bytes + other.visitor_bytes,
            technology=self.technology
            if self.technology == other.technology
            else None,
        )


def visit_rows(
    usage: "ColumnBatch[DailyUsage]", classifier: VisitClassifier
) -> np.ndarray:
    """Per usage row: does its volume pass its service's visit threshold?"""
    thresholds = np.array(
        [classifier.threshold_for(name) for name in usage.dictionaries["service"]],
        dtype=np.int64,
    )
    columns = usage.columns
    return (
        columns["bytes_down"] + columns["bytes_up"]
        >= thresholds[columns["service"]]
    )


def daily_service_stats(
    usage: Iterable[DailyUsage],
    subscriber_days: Iterable[SubscriberDay],
    classifier: VisitClassifier = VisitClassifier(),
    technology: Optional[Technology] = None,
) -> List[DailyServiceStats]:
    """Per (day, service) visitor counts and byte totals.

    ``technology`` restricts both the active set and the usage rows
    (Fig. 5 shows ADSL only).
    """
    batch = ColumnBatch.of(usage, USAGE_CODEC)
    columns = batch.columns
    active = np.array(
        [
            (entry.day.toordinal(), entry.subscriber_id)
            for entry in subscriber_days
            if entry.active and (technology is None or entry.technology is technology)
        ],
        dtype=np.int64,
    ).reshape(-1, 2)
    # One grouping of the active (day, subscriber) pairs and the rows' pairs
    # together: the sort is stable and the active pairs come first, so a
    # group holds an active pair exactly when its first member is one.
    days = np.concatenate([active[:, 0], columns["day"]])
    order, starts = group_rows(
        days, np.concatenate([active[:, 1], columns["subscriber_id"]])
    )
    group_active = order[starts] < len(active)
    keep = group_active[group_ids(order, starts)[len(active):]]
    if technology is not None:
        codes = [
            code
            for code, value in enumerate(batch.dictionaries["technology"])
            if value == technology.value
        ]
        keep &= np.isin(columns["technology"], codes)
    rows = np.nonzero(keep)[0]
    if not rows.size:
        return []
    active_days, active_counts = np.unique(
        days[order[starts[group_active]]], return_counts=True
    )
    active_per_day = dict(zip(active_days.tolist(), active_counts.tolist()))

    row_day, row_service = columns["day"][rows], columns["service"][rows]
    row_down = columns["bytes_down"][rows]
    row_total = row_down + columns["bytes_up"][rows]
    visit = visit_rows(batch, classifier)[rows]
    order, starts = group_rows(row_day, row_service)
    # visitors: distinct subscribers among a cell's threshold-passing rows
    visit_cell = group_ids(order, starts)[visit]
    visit_order, visit_starts = group_rows(
        visit_cell, columns["subscriber_id"][rows][visit]
    )
    visitors = np.bincount(
        visit_cell[visit_order[visit_starts]], minlength=starts.size
    )
    to_date = batch.cell_decoder("day")
    day_of = {ordinal: to_date(ordinal) for ordinal in np.unique(row_day).tolist()}
    services = batch.dictionaries["service"]
    cells = zip(
        row_day[order[starts]].tolist(),
        [services[code] for code in row_service[order[starts]].tolist()],
        visitors.tolist(),
        np.add.reduceat(row_down[order], starts).tolist(),
        np.add.reduceat(row_total[order], starts).tolist(),
        np.add.reduceat(np.where(visit, row_total, 0)[order], starts).tolist(),
    )
    return [
        DailyServiceStats(
            day=day_of[day],
            service=service,
            visitors=visitor_count,
            active_subscribers=active_per_day.get(day, 0),
            bytes_down=down,
            bytes_total=total,
            visitor_bytes=visitor_bytes,
            technology=technology,
        )
        for day, service, visitor_count, down, total, visitor_bytes in sorted(cells)
    ]


def popularity_series(
    stats: Iterable[DailyServiceStats], service: str, months: List[Month]
) -> MonthlySeries:
    """Monthly mean popularity (%) of one service (Figs. 6/7 top)."""
    samples = [
        (cell.day, 100.0 * cell.popularity)
        for cell in stats
        if cell.service == service
    ]
    return monthly_mean(samples, months)


def byte_share_series(
    stats: Sequence[DailyServiceStats], service: str, months: List[Month]
) -> MonthlySeries:
    """Monthly mean share (%) of downloaded bytes of one service (Fig. 5b)."""
    day_totals: Dict[datetime.date, int] = {}
    for cell in stats:
        day_totals[cell.day] = day_totals.get(cell.day, 0) + cell.bytes_down
    samples = []
    for cell in stats:
        if cell.service != service:
            continue
        total = day_totals.get(cell.day, 0)
        if total > 0:
            samples.append((cell.day, 100.0 * cell.bytes_down / total))
    return monthly_mean(samples, months)


def heatmap(
    stats: Sequence[DailyServiceStats],
    services: Sequence[str],
    months: List[Month],
    quantity: str = "popularity",
) -> Dict[str, MonthlySeries]:
    """service → monthly series, for the Fig. 5 heatmaps."""
    if quantity == "popularity":
        return {
            service: popularity_series(stats, service, months)
            for service in services
        }
    if quantity == "share":
        return {
            service: byte_share_series(stats, service, months)
            for service in services
        }
    raise ValueError(f"unknown quantity {quantity!r}")


def weekly_reach(
    usage: Iterable[DailyUsage],
    subscriber_days: Iterable[SubscriberDay],
    service: str,
    classifier: VisitClassifier,
    technology: Technology,
    year: int,
) -> float:
    """Fraction of subscribers visiting a service at least once per week,
    averaged over the weeks of ``year`` (the §4.3 weekly Netflix statistic)."""
    weeks_visited: Dict[Tuple[int, int], Set[int]] = {}
    weeks_active: Dict[Tuple[int, int], Set[int]] = {}
    for entry in subscriber_days:
        if entry.day.year != year or entry.technology is not technology:
            continue
        if entry.active:
            weeks_active.setdefault(entry.day.isocalendar()[:2], set()).add(
                entry.subscriber_id
            )
    for row in usage:
        if row.day.year != year or row.technology is not technology:
            continue
        if row.service != service:
            continue
        if classifier.is_visit(service, row.bytes_down + row.bytes_up):
            weeks_visited.setdefault(row.day.isocalendar()[:2], set()).add(
                row.subscriber_id
            )
    ratios = []
    for week, active in weeks_active.items():
        if active:
            ratios.append(len(weeks_visited.get(week, ())) / len(active))
    if not ratios:
        return 0.0
    return sum(ratios) / len(ratios)

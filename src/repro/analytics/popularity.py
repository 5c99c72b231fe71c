"""Service popularity and traffic-share analytics (Figs. 5-7 backbones).

Popularity of a service on a day = fraction of *active* subscribers whose
traffic to the service passed its visit threshold (Section 4.1).  Traffic
share = the service's bytes over all bytes in the mix that day.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.analytics.activity import (
    SUBSCRIBER_DAY_CODEC,
    SubscriberDay,
    group_ids,
    group_rows,
)
from repro.analytics.timeseries import Month, MonthlySeries, monthly_mean
from repro.dataflow.columnar import ColumnBatch, ColumnSpec, ColumnarCodec
from repro.services.thresholds import VisitClassifier
from repro.synthesis.flowgen import USAGE_CODEC, DailyUsage
from repro.synthesis.population import Technology


@dataclass(frozen=True)
class DailyServiceStats:
    """One (day, service) cell of the Fig. 5 heatmaps.

    ``technology`` is the restriction under which the cell was computed
    (None = all access technologies).  Counts and byte totals are additive
    across technologies and shards, so cells of one (day, service) add up.
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


#: Stage-1's per-(day, service, technology) output table (Fig. 5-9).
SERVICE_STATS_CODEC: ColumnarCodec[DailyServiceStats] = ColumnarCodec(
    columns=[
        ColumnSpec("day", "date"),
        ColumnSpec("service", "str"),
        ColumnSpec("visitors", "int"),
        ColumnSpec("active_subscribers", "int"),
        ColumnSpec("bytes_down", "int"),
        ColumnSpec("bytes_total", "int"),
        ColumnSpec("visitor_bytes", "int"),
        ColumnSpec("technology", "str", enum=Technology),
    ],
    record=DailyServiceStats,
    day_column="day",
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
) -> "ColumnBatch[DailyServiceStats]":
    """Per (day, service) visitor counts and byte totals, as a table in
    (day, service) order.

    ``technology`` restricts both the active set and the usage rows
    (Fig. 5 shows ADSL only).
    """
    batch = ColumnBatch.of(usage, USAGE_CODEC)
    columns = batch.columns
    table = ColumnBatch.of(subscriber_days, SUBSCRIBER_DAY_CODEC)
    chosen = table.columns["active"]
    if technology is not None:
        chosen = chosen & table.equals("technology", technology.value)
    active_days, active_ids = (table.columns[name][chosen] for name in ("day", "subscriber_id"))
    # One grouping of the active (day, subscriber) pairs and the rows' pairs
    # together: the sort is stable and the active pairs come first, so a
    # group holds an active pair exactly when its first member is one.
    days = np.concatenate([active_days, columns["day"]])
    order, starts = group_rows(
        days, np.concatenate([active_ids, columns["subscriber_id"]])
    )
    group_active = order[starts] < active_days.size
    keep = group_active[group_ids(order, starts)[active_days.size:]]
    if technology is not None:
        keep &= batch.equals("technology", technology.value)
    rows = np.nonzero(keep)[0]
    if not rows.size:
        return ColumnBatch.from_rows((), SERVICE_STATS_CODEC)
    active_days, active_counts = np.unique(
        days[order[starts[group_active]]], return_counts=True
    )
    active_per_day = dict(zip(active_days.tolist(), active_counts.tolist()))

    row_day, row_service = columns["day"][rows], columns["service"][rows]
    row_down = columns["bytes_down"][rows]
    row_total = row_down + columns["bytes_up"][rows]
    visit = visit_rows(batch, classifier)[rows]
    # cells in (day, service name) order
    order, starts = group_rows(row_day, batch.value_ranks("service")[row_service])
    # visitors: distinct subscribers among a cell's threshold-passing rows
    visit_cell = group_ids(order, starts)[visit]
    visit_order, visit_starts = group_rows(
        visit_cell, columns["subscriber_id"][rows][visit]
    )
    visitors = np.bincount(
        visit_cell[visit_order[visit_starts]], minlength=starts.size
    )
    cell_day = row_day[order[starts]]
    return ColumnBatch(
        SERVICE_STATS_CODEC,
        {
            "day": cell_day,
            "service": row_service[order[starts]],
            "visitors": visitors,
            "active_subscribers": [active_per_day.get(day, 0) for day in cell_day.tolist()],
            "bytes_down": np.add.reduceat(row_down[order], starts),
            "bytes_total": np.add.reduceat(row_total[order], starts),
            "visitor_bytes": np.add.reduceat(np.where(visit, row_total, 0)[order], starts),
            "technology": np.zeros(starts.size, dtype=np.int32),
        },
        {
            "service": batch.dictionaries["service"],
            "technology": [technology.value if technology else None],
        },
    )


def popularity_series(
    stats: Iterable[DailyServiceStats], service: str, months: List[Month]
) -> MonthlySeries:
    """Monthly mean popularity (%) of one service (Figs. 6/7 top)."""
    cells = ColumnBatch.of(stats, SERVICE_STATS_CODEC)
    visitors, active = cells.columns["visitors"], cells.columns["active_subscribers"]
    popularity = np.divide(visitors, active, out=np.zeros(len(cells)), where=active != 0)
    return _monthly(cells, cells.equals("service", service), 100.0 * popularity, months)


def byte_share_series(
    stats: Sequence[DailyServiceStats], service: str, months: List[Month]
) -> MonthlySeries:
    """Monthly mean share (%) of downloaded bytes of one service (Fig. 5b)."""
    cells = ColumnBatch.of(stats, SERVICE_STATS_CODEC)
    down = cells.columns["bytes_down"]
    _, day = np.unique(cells.columns["day"], return_inverse=True)
    totals = np.zeros(len(cells), dtype=np.int64)
    np.add.at(totals, day, down)
    totals = totals[day]
    shares = 100.0 * down / np.maximum(totals, 1)
    return _monthly(cells, cells.equals("service", service) & (totals > 0), shares, months)


def _monthly(
    cells: ColumnBatch, rows: np.ndarray, values: np.ndarray, months: List[Month]
) -> MonthlySeries:
    """:func:`monthly_mean` of the daily ``values`` of the cells at ``rows``."""
    days = map(cells.cell_decoder("day"), cells.columns["day"][rows].tolist())
    return monthly_mean(zip(days, values[rows].tolist()), months)


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


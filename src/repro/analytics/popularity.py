"""Service popularity and traffic-share analytics (Figs. 5-7 backbones).

Popularity of a service on a day = fraction of *active* subscribers whose
traffic to the service passed its visit threshold (Section 4.1).  Traffic
share = the service's bytes over all bytes in the mix that day.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analytics.activity import (
    SUBSCRIBER_DAY_CODEC,
    SubscriberDay,
    group_ids,
    group_rows,
)
from repro.analytics.timeseries import Month, MonthlySeries, monthly_mean
from repro.dataflow.columnar import ColumnBatch, ColumnSpec, ColumnarCodec, dictionary_codes
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
    active_days = days[order[starts[group_active]]]
    return _service_cells(
        batch,
        rows,
        np.zeros(rows.size, dtype=np.int64),
        [technology.value if technology else None],
        (np.zeros(active_days.size, dtype=np.int64), active_days),
        visit_rows(batch, classifier),
    )


def technology_positions(table: ColumnBatch) -> np.ndarray:
    """Per row of a table with a ``technology`` column, its member's place
    in :class:`Technology`."""
    members = list(Technology)
    places = [members.index(Technology(value)) for value in table.dictionaries["technology"]]
    return np.array(places, dtype=np.int64)[table.columns["technology"]]


def technology_service_stats(
    usage: "ColumnBatch[DailyUsage]",
    subscriber_days: "ColumnBatch[SubscriberDay]",
    slots: np.ndarray,
    visit: np.ndarray,
) -> "ColumnBatch[DailyServiceStats]":
    """:func:`daily_service_stats` of each :class:`Technology` in turn, as
    one table, in one grouping: ``subscriber_days`` are the usage rows'
    own (:func:`~repro.analytics.activity.subscriber_day_slots`), ``slots``
    each row's place among them, ``visit`` the rows' :func:`visit_rows`.

    A row counts towards its technology's cells when its subscriber day is
    active and of that technology.
    """
    technology = technology_positions(usage)
    day_technology = technology_positions(subscriber_days)
    active = subscriber_days.columns["active"]
    rows = np.nonzero(active[slots] & (technology == day_technology[slots]))[0]
    # the technologies with cells; an active day's first row is one of its cells
    present = np.flatnonzero(np.bincount(technology[rows], minlength=len(Technology)))
    members = list(Technology)
    return _service_cells(
        usage,
        rows,
        np.searchsorted(present, technology[rows]),
        [members[place].value for place in present.tolist()],
        (np.searchsorted(present, day_technology[active]), subscriber_days.columns["day"][active]),
        visit,
    )


def _service_cells(
    batch: "ColumnBatch[DailyUsage]",
    rows: np.ndarray,
    technology: np.ndarray,
    technologies: List[Optional[str]],
    active: Tuple[np.ndarray, np.ndarray],
    visit: np.ndarray,
) -> "ColumnBatch[DailyServiceStats]":
    """The cells of the usage ``rows`` in (technology, day, service name)
    order: ``technology`` codes each of them into ``technologies``,
    ``active`` is the (technology code, day) of every active subscriber
    day a cell's denominator counts, ``visit`` flags the batch's rows that
    pass their visit threshold."""
    if not rows.size:
        return ColumnBatch.from_rows((), SERVICE_STATS_CODEC)
    columns = batch.columns
    row_day, row_service = columns["day"][rows], columns["service"][rows]
    row_down = columns["bytes_down"][rows]
    row_total = row_down + columns["bytes_up"][rows]
    visit = visit[rows]
    order, starts = group_rows(technology, row_day, batch.value_ranks("service")[row_service])
    # visitors: distinct subscribers among a cell's threshold-passing rows
    visit_cell = group_ids(order, starts)[visit]
    visit_order, visit_starts = group_rows(
        visit_cell, columns["subscriber_id"][rows][visit]
    )
    visitors = np.bincount(
        visit_cell[visit_order[visit_starts]], minlength=starts.size
    )
    firsts = order[starts]
    cell_technology, cell_day = technology[firsts], row_day[firsts]
    # active subscriber days per (day, technology), keyed as one integer
    width = len(technologies)
    counted, counts = np.unique(active[1] * width + active[0], return_counts=True)
    active_count = dict(zip(counted.tolist(), counts.tolist()))
    cell_service, services = row_service[firsts], batch.dictionaries["service"]
    if len(technologies) > 1:  # as ColumnBatch.concat joins one table per technology
        ids: Dict[Optional[str], int] = {}
        cell_service = dictionary_codes(services, ids)[cell_service]
        services = list(ids)
    return ColumnBatch(
        SERVICE_STATS_CODEC,
        {
            "day": cell_day,
            "service": cell_service,
            "visitors": visitors,
            "active_subscribers": [
                active_count.get(key, 0) for key in (cell_day * width + cell_technology).tolist()
            ],
            "bytes_down": np.add.reduceat(row_down[order], starts),
            "bytes_total": np.add.reduceat(row_total[order], starts),
            "visitor_bytes": np.add.reduceat(np.where(visit, row_total, 0)[order], starts),
            "technology": cell_technology,
        },
        {"service": services, "technology": technologies},
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


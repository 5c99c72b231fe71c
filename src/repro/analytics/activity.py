"""Active-subscriber determination (Section 3).

"Subscribers are considered active if they have generated at least
10 flows, downloaded more than 15 kB and uploaded more than 5 kB."  On
average ~80 % of subscribers observed in the trace are active on a day.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, Iterable, Set, Tuple

import numpy as np

from repro.dataflow.columnar import ColumnBatch, ColumnSpec, ColumnarCodec
from repro.services.thresholds import ActiveSubscriberCriterion
from repro.synthesis.flowgen import USAGE_CODEC, DailyUsage
from repro.synthesis.population import Technology


@dataclass(frozen=True)
class SubscriberDay:
    """One subscriber's totals on one day."""

    day: datetime.date
    subscriber_id: int
    technology: Technology
    bytes_down: int
    bytes_up: int
    flows: int
    active: bool


#: Stage-1's per-(day, subscriber) table (``StudyData.subscriber_days``,
#: Figs. 2-3).  ``active`` is a ``bool`` column, so its cells stay Python
#: bools (the digest writes them ``true``/``false``).
SUBSCRIBER_DAY_CODEC: ColumnarCodec[SubscriberDay] = ColumnarCodec(
    columns=[
        ColumnSpec("day", "date"),
        ColumnSpec("subscriber_id", "int"),
        ColumnSpec("technology", "str", enum=Technology),
        ColumnSpec("bytes_down", "int"),
        ColumnSpec("bytes_up", "int"),
        ColumnSpec("flows", "int"),
        ColumnSpec("active", "bool"),
    ],
    record=SubscriberDay,
    day_column="day",
)


def group_rows(*keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rows grouped by equal key tuples: ``(order, starts)``.

    ``order`` sorts the rows by ``keys`` (first key most significant),
    stably, so a group's rows keep their order and ``order[starts]`` are
    the groups' first rows; ``np.add.reduceat(values[order], starts)`` are
    the group sums.  The one grouping arithmetic of the aggregate tier.
    """
    order = np.lexsort(keys[::-1])
    boundary = np.zeros(order.size, dtype=bool)
    boundary[:1] = True
    for key in keys:
        ordered = key[order]
        boundary[1:] |= ordered[1:] != ordered[:-1]
    return order, np.nonzero(boundary)[0]


def group_ids(order: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each row's group number under :func:`group_rows` (groups numbered in
    key order, so ``order[starts][ids]`` is every row's group's first row)."""
    ids = np.zeros(order.size, dtype=np.int64)
    ids[starts[1:]] = 1
    ids[order] = np.cumsum(ids)
    return ids


def subscriber_days(
    usage: Iterable[DailyUsage],
    criterion: ActiveSubscriberCriterion = ActiveSubscriberCriterion(),
) -> "ColumnBatch[SubscriberDay]":
    """Roll per-service rows up to per-subscriber days with the activity flag,
    as a :data:`SUBSCRIBER_DAY_CODEC` table.

    One row per (day, subscriber) in first-appearance order, carrying the
    technology of its first usage row.
    """
    return subscriber_day_slots(ColumnBatch.of(usage, USAGE_CODEC), criterion)[0]


def subscriber_day_slots(
    batch: "ColumnBatch[DailyUsage]", criterion: ActiveSubscriberCriterion
) -> Tuple["ColumnBatch[SubscriberDay]", np.ndarray]:
    """:func:`subscriber_days` of a usage batch, and per usage row the
    position of its subscriber day in that table."""
    if not batch:
        return ColumnBatch.from_rows((), SUBSCRIBER_DAY_CODEC), np.zeros(0, dtype=np.int64)
    columns = batch.columns
    order, starts = group_rows(columns["day"], columns["subscriber_id"])
    firsts = order[starts]
    appearance = np.argsort(firsts)  # groups in first-appearance order
    position = np.empty(starts.size, dtype=np.int64)
    position[appearance] = np.arange(starts.size)
    firsts = firsts[appearance]
    down, up, flows = (
        np.add.reduceat(columns[name][order], starts)[appearance]
        for name in ("bytes_down", "bytes_up", "flows")
    )
    table = ColumnBatch(
        SUBSCRIBER_DAY_CODEC,
        {
            "day": columns["day"][firsts],
            "subscriber_id": columns["subscriber_id"][firsts],
            "technology": columns["technology"][firsts],
            "bytes_down": down,
            "bytes_up": up,
            "flows": flows,
            "active": (
                (flows >= criterion.min_flows)
                & (down > criterion.min_bytes_down)
                & (up > criterion.min_bytes_up)
            ),
        },
        {
            "day": batch.dictionaries.get("day", {}),
            "technology": batch.dictionaries["technology"],
        },
    )
    return table, position[group_ids(order, starts)]


def active_subscribers_by_day(
    days: Iterable[SubscriberDay],
) -> Dict[datetime.date, Set[int]]:
    """day → the set of active subscriber ids, days in first-appearance order."""
    table = ColumnBatch.of(days, SUBSCRIBER_DAY_CODEC)
    rows = np.nonzero(table.columns["active"])[0]
    ordinals = table.columns["day"][rows]
    order, starts = group_rows(ordinals)
    members = np.split(table.columns["subscriber_id"][rows][order], starts[1:])
    to_date = table.cell_decoder("day")
    return {
        to_date(int(ordinals[order[starts[group]]])): set(members[group].tolist())
        for group in np.argsort(order[starts]).tolist()
    }


def activity_rate(days: Iterable[SubscriberDay]) -> float:
    """Fraction of observed subscriber-days that are active (paper: ~0.8)."""
    table = ColumnBatch.of(days, SUBSCRIBER_DAY_CODEC)
    if not table:
        return 0.0
    return int(np.count_nonzero(table.columns["active"])) / len(table)

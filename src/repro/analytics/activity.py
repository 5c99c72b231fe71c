"""Active-subscriber determination (Section 3).

"Subscribers are considered active if they have generated at least
10 flows, downloaded more than 15 kB and uploaded more than 5 kB."  On
average ~80 % of subscribers observed in the trace are active on a day.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

import numpy as np

from repro.dataflow.columnar import ColumnBatch
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
) -> List[SubscriberDay]:
    """Roll per-service rows up to per-subscriber days with the activity flag.

    One entry per (day, subscriber) in first-appearance order, carrying the
    technology of its first row.
    """
    batch = ColumnBatch.of(usage, USAGE_CODEC)
    if not batch:
        return []
    columns = batch.columns
    order, starts = group_rows(columns["day"], columns["subscriber_id"])
    firsts = order[starts]
    appearance = np.argsort(firsts)  # groups in first-appearance order
    firsts = firsts[appearance]
    down, up, flows = (
        np.add.reduceat(columns[name][order], starts)[appearance]
        for name in ("bytes_down", "bytes_up", "flows")
    )
    active = (
        (flows >= criterion.min_flows)
        & (down > criterion.min_bytes_down)
        & (up > criterion.min_bytes_up)
    )
    ordinals, codes = columns["day"][firsts], columns["technology"][firsts]
    to_date = batch.cell_decoder("day")
    day_of = {ordinal: to_date(ordinal) for ordinal in np.unique(ordinals).tolist()}
    technology_of = {
        code: Technology(batch.dictionaries["technology"][code])
        for code in np.unique(codes).tolist()
    }
    return list(
        map(
            SubscriberDay,
            [day_of[ordinal] for ordinal in ordinals.tolist()],
            columns["subscriber_id"][firsts].tolist(),
            [technology_of[code] for code in codes.tolist()],
            down.tolist(),
            up.tolist(),
            flows.tolist(),
            active.tolist(),
        )
    )


def active_subscribers_by_day(
    days: Iterable[SubscriberDay],
) -> Dict[datetime.date, Set[int]]:
    """day → the set of active subscriber ids."""
    active: Dict[datetime.date, Set[int]] = {}
    for entry in days:
        if entry.active:
            active.setdefault(entry.day, set()).add(entry.subscriber_id)
    return active


def activity_rate(days: Iterable[SubscriberDay]) -> float:
    """Fraction of observed subscriber-days that are active (paper: ~0.8)."""
    total = 0
    active = 0
    for entry in days:
        total += 1
        active += int(entry.active)
    if total == 0:
        return 0.0
    return active / total

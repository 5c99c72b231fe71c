"""Stage-1 analytics: per-day aggregation of raw flow records.

"Our analytics methodology follows a two-stage approach: firstly data is
aggregated on a per day basis, secondly, advanced analytics and
visualizations are computed.  In the aggregation stage, queries compute
per-day and per-subscription aggregates about traffic consumption,
protocol usage, and contacted services." (Section 2.2)

The jobs here reduce a day of flows as columns: a :class:`FlowBatch` is
classified once per distinct server name (:meth:`FlowBatch.service_view`:
domain rules, then the P2P label, then ``"Other"``), its rows are grouped
by key (:func:`~repro.analytics.activity.group_rows`) and summed with
``np.add.reduceat``.  They produce the tables the aggregate-tier generator
emits, so the two tiers are interchangeable downstream (and tested
against each other).  A lake day is
``FlowBatch.concat(lake.read_day(...).blocks(), FLOW_CODEC)``.
"""

from __future__ import annotations

import datetime
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analytics.activity import group_rows
from repro.dataflow.columnar import ColumnBatch, dictionary_codes
from repro.services.rules import RuleSet
from repro.synthesis.flowgen import (
    PROTOCOL_CODEC,
    USAGE_CODEC,
    DailyUsage,
    ProtocolUsage,
)
from repro.synthesis.population import Technology
from repro.tstat.flow import FlowRecord
from repro.tstat.flowbatch import FlowBatch


def aggregate_usage(
    flows: Iterable[FlowRecord],
    rules: RuleSet,
    day: datetime.date,
    technologies: Optional[Dict[int, Technology]] = None,
    pops: Optional[Dict[int, str]] = None,
) -> "ColumnBatch[DailyUsage]":
    """Stage-1 job: flows → per (subscriber, service, vantage) daily usage,
    a :data:`USAGE_CODEC` table with keys in order of first appearance.

    ``technologies``/``pops`` map anonymized subscriber ids to their access
    line metadata (the deployment knows which DSLAM/OLT each id sits on);
    unknown ids default to ADSL at the flow's vantage.
    """
    technologies = technologies or {}
    pops = pops or {}
    batch, view = FlowBatch.classified(flows, rules)
    columns = batch.columns
    vantage, vantages = columns["vantage"], batch.dictionaries["vantage"]
    first, (down, up, count) = _sums_by_key(
        (columns["client_id"], view.flow_codes, vantage),
        (columns["bytes_down"], columns["bytes_up"], np.ones(len(batch), dtype=np.int64)),
    )
    clients = columns["client_id"][first].tolist()
    technology_ids: Dict[str, int] = {}
    pop_ids: Dict[str, int] = {}
    return ColumnBatch(
        USAGE_CODEC,
        {
            "day": np.full(first.size, day.toordinal()),
            "subscriber_id": columns["client_id"][first],
            "technology": dictionary_codes(
                (technologies.get(client, Technology.ADSL).value for client in clients),
                technology_ids,
            ),
            "pop": dictionary_codes(
                (
                    pops.get(client, vantages[code])
                    for client, code in zip(clients, vantage[first].tolist())
                ),
                pop_ids,
            ),
            "service": view.flow_codes[first],
            "bytes_down": down,
            "bytes_up": up,
            "flows": count,
        },
        {
            "day": {day.toordinal(): day},
            "technology": list(technology_ids),
            "pop": list(pop_ids),
            "service": view.services,
        },
    )


def aggregate_protocols(
    flows: Iterable[FlowRecord], rules: RuleSet, day: datetime.date
) -> "ColumnBatch[ProtocolUsage]":
    """Stage-1 job: flows → per (service, reported protocol) byte totals, a
    :data:`PROTOCOL_CODEC` table with keys in order of first appearance."""
    batch, view = FlowBatch.classified(flows, rules)
    protocol = batch.columns["protocol"]
    first, (total,) = _sums_by_key((view.flow_codes, protocol), (batch.total_bytes,))
    return ColumnBatch(
        PROTOCOL_CODEC,
        {
            "day": np.full(first.size, day.toordinal()),
            "service": view.flow_codes[first],
            "protocol": protocol[first],
            "total_bytes": total,
        },
        {
            "day": {day.toordinal(): day},
            "service": view.services,
            "protocol": batch.dictionaries["protocol"],
        },
    )


def _sums_by_key(
    keys: Sequence[np.ndarray], values: Sequence[np.ndarray]
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The reduce-by-key: each distinct ``keys`` tuple's first row and the
    sums of ``values`` over its rows, keys in order of first appearance —
    the order a dict fold over the rows inserts them in."""
    order, starts = group_rows(*keys)
    appearance = np.argsort(order[starts])
    sums = [np.add.reduceat(value[order], starts)[appearance] for value in values]
    return order[starts][appearance], sums

"""Web-protocol breakdown analytics (Fig. 8).

The breakdown is over *web* traffic only — HTTP, TLS/HTTPS, SPDY, HTTP/2,
QUIC and FB-Zero — and uses the labels *as reported by the probe software
of each day* (SPDY hides inside TLS before June 2015, event C).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.analytics.activity import group_rows
from repro.analytics.timeseries import Month, month_of
from repro.dataflow.columnar import ColumnBatch
from repro.synthesis.flowgen import PROTOCOL_CODEC, ProtocolUsage
from repro.tstat.flow import WebProtocol

#: Stack order of Fig. 8 (bottom to top).
FIGURE8_PROTOCOLS: Tuple[WebProtocol, ...] = (
    WebProtocol.HTTP,
    WebProtocol.QUIC,
    WebProtocol.TLS,
    WebProtocol.HTTP2,
    WebProtocol.SPDY,
    WebProtocol.FBZERO,
)


@dataclass(frozen=True)
class ProtocolShares:
    """Web-traffic shares of one period (sums to ~1 when traffic exists)."""

    period: Month
    shares: Dict[WebProtocol, float]

    def share(self, protocol: WebProtocol) -> float:
        return self.shares.get(protocol, 0.0)


def monthly_protocol_shares(
    rows: Iterable[ProtocolUsage], months: List[Month]
) -> List[ProtocolShares]:
    """Monthly share of each web protocol over web bytes."""
    table = ColumnBatch.of(rows, PROTOCOL_CODEC)
    labels = [WebProtocol(value) for value in table.dictionaries["protocol"]]
    web = np.array([label.is_web for label in labels], dtype=bool)[table.columns["protocol"]]
    ordinals, day = np.unique(table.columns["day"][web], return_inverse=True)
    day_months = [month_of(datetime.date.fromordinal(o)) for o in ordinals.tolist()]
    codes = table.columns["protocol"][web]
    order, starts = group_rows(np.array([y * 12 + m for y, m in day_months])[day], codes)
    volumes = np.add.reduceat(table.columns["total_bytes"][web][order], starts).tolist()
    totals: Dict[Month, Dict[WebProtocol, int]] = {}
    for first, volume in sorted(zip(order[starts].tolist(), volumes)):  # first-row order
        bucket = totals.setdefault(day_months[day[first]], {})
        bucket[labels[codes[first]]] = bucket.get(labels[codes[first]], 0) + volume
    shares = []
    for month in months:
        bucket = totals.get(month, {})
        month_total = sum(bucket.values())
        if month_total == 0:
            shares.append(ProtocolShares(period=month, shares={}))
            continue
        shares.append(
            ProtocolShares(
                period=month,
                shares={
                    protocol: volume / month_total
                    for protocol, volume in bucket.items()
                },
            )
        )
    return shares


def share_series(
    shares: List[ProtocolShares], protocol: WebProtocol
) -> List[Tuple[Month, float]]:
    """(month, share) pairs of one protocol, skipping empty months."""
    return [
        (entry.period, entry.share(protocol))
        for entry in shares
        if entry.shares
    ]


def detect_jumps(
    shares: List[ProtocolShares], protocol: WebProtocol, threshold: float = 0.04
) -> List[Tuple[Month, float]]:
    """Months where a protocol's share moved by more than ``threshold``.

    Surfaces the sudden events of Fig. 8 (QUIC kill switch, FB-Zero launch,
    the SPDY reveal) directly from the measured series.
    """
    series = share_series(shares, protocol)
    jumps = []
    for index in range(1, len(series)):
        delta = series[index][1] - series[index - 1][1]
        if abs(delta) >= threshold:
            jumps.append((series[index][0], delta))
    return jumps


def service_protocol_volume(
    rows: Iterable[ProtocolUsage], service: str
) -> Dict[WebProtocol, int]:
    """Total bytes per protocol for one service (e.g. FB-Zero vs rest)."""
    totals: Dict[WebProtocol, int] = {}
    for row in rows:
        if row.service != service:
            continue
        totals[row.protocol] = totals.get(row.protocol, 0) + row.total_bytes
    return totals

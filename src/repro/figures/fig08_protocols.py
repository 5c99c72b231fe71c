"""Figure 8: web-protocol breakdown over five years, events A-F.

Shape targets (Section 5): 2013 starts at roughly 87 % HTTP / 13 % TLS;
(A) YouTube's 2014 HTTPS migration pushes TLS towards 40 % by end 2014;
(B) QUIC appears October 2014 and grows; (C) the June 2015 probe upgrade
reveals ~10 % of traffic as SPDY, previously counted as TLS; (D) QUIC
collapses in December 2015 and returns a month later; (E) SPDY migrates
to HTTP/2 from February 2016; (F) FB-Zero jumps to ~8 % of web traffic in
November 2016 and carries more than half of Facebook's traffic.  End of
2017: HTTP down to ~25 %, QUIC+Zero together 20-25 %.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import List, Optional

from repro.analytics.protocols import (
    ProtocolShares,
    monthly_protocol_shares,
    service_protocol_volume,
)
from repro.core.study import StudyData
from repro.dataflow.columnar import ColumnBatch
from repro.figures.common import Expectation, within
from repro.services import catalog
from repro.synthesis.flowgen import PROTOCOL_CODEC
from repro.tstat.flow import WebProtocol


@dataclass(frozen=True)
class Fig8Data:
    shares: List[ProtocolShares]
    fbzero_facebook_share: Optional[float]  # Zero share of FB traffic, 2017

    def share_at(self, year: int, month: int, protocol: WebProtocol) -> Optional[float]:
        for entry in self.shares:
            if entry.period == (year, month):
                return entry.share(protocol) if entry.shares else None
        return None


def compute(data: StudyData) -> Fig8Data:
    rows = ColumnBatch.of(data.protocol_rows, PROTOCOL_CODEC)
    shares = monthly_protocol_shares(rows, data.months)
    day_of_2017 = rows.columns["day"] - datetime.date(2017, 1, 1).toordinal()
    in_2017 = (day_of_2017 >= 0) & (day_of_2017 < 365)
    fb_rows = rows.take(rows.equals("service", catalog.FACEBOOK) & in_2017)
    fb_by_protocol = service_protocol_volume(fb_rows, catalog.FACEBOOK)
    fb_total = sum(fb_by_protocol.values())
    zero_share = (
        fb_by_protocol.get(WebProtocol.FBZERO, 0) / fb_total if fb_total else None
    )
    return Fig8Data(shares=shares, fbzero_facebook_share=zero_share)


def report(fig: Fig8Data) -> List[str]:
    lines = ["Figure 8: web protocol breakdown, events A-F"]
    expectations: List[Expectation] = []

    http_2013 = fig.share_at(2013, 8, WebProtocol.HTTP)
    tls_2013 = fig.share_at(2013, 8, WebProtocol.TLS)
    if http_2013 is not None:
        expectations.append(
            Expectation(
                name="HTTP share mid-2013",
                paper="majority clear-text, ~87%",
                measured=http_2013,
                ok=within(http_2013, 0.70, 0.95),
            )
        )
    if tls_2013 is not None:
        expectations.append(
            Expectation(
                name="TLS share mid-2013",
                paper="~13%",
                measured=tls_2013,
                ok=within(tls_2013, 0.05, 0.30),
            )
        )

    # A: TLS tops ~40% at the end of 2014, driven by YouTube.
    tls_end_2014 = fig.share_at(2014, 12, WebProtocol.TLS)
    if tls_end_2014 is not None:
        expectations.append(
            Expectation(
                name="event A: HTTPS share end 2014",
                paper="tops to 40% already",
                measured=tls_end_2014,
                ok=within(tls_end_2014, 0.28, 0.60),
            )
        )

    # B: QUIC absent before Oct 2014, present after.
    quic_before = fig.share_at(2014, 8, WebProtocol.QUIC) or 0.0
    quic_after = fig.share_at(2015, 6, WebProtocol.QUIC) or 0.0
    expectations.append(
        Expectation(
            name="event B: QUIC appears after Oct 2014",
            paper="QUIC starts growing steadily",
            measured=quic_after,
            ok=quic_before < 0.01 and quic_after > 0.02,
        )
    )

    # C: SPDY hidden before June 2015, ~10% after the probe upgrade.
    spdy_before = fig.share_at(2015, 4, WebProtocol.SPDY) or 0.0
    spdy_after = fig.share_at(2015, 8, WebProtocol.SPDY) or 0.0
    expectations.append(
        Expectation(
            name="event C: SPDY revealed at ~10% after probe upgrade",
            paper="discover 10% of traffic as SPDY",
            measured=spdy_after,
            ok=spdy_before < 0.005 and within(spdy_after, 0.05, 0.18),
        )
    )

    # D: QUIC killed December 2015, back by February 2016.
    quic_nov = fig.share_at(2015, 11, WebProtocol.QUIC) or 0.0
    quic_dec = fig.share_at(2015, 12, WebProtocol.QUIC) or 0.0
    quic_feb = fig.share_at(2016, 2, WebProtocol.QUIC) or 0.0
    expectations.append(
        Expectation(
            name="event D: QUIC kill switch Dec 2015",
            paper="suddenly 8% falls back to TCP; back a month later",
            measured=quic_dec,
            ok=quic_dec < 0.3 * max(quic_nov, 1e-9) and quic_feb > 0.5 * quic_nov,
        )
    )

    # E: SPDY fades after Feb 2016, HTTP/2 rises.
    spdy_2017 = fig.share_at(2017, 6, WebProtocol.SPDY) or 0.0
    http2_2017 = fig.share_at(2017, 6, WebProtocol.HTTP2) or 0.0
    expectations.append(
        Expectation(
            name="event E: SPDY -> HTTP/2 migration",
            paper="Google migrates Feb 2016, slowly followed",
            measured=http2_2017,
            ok=spdy_2017 < 0.03 and http2_2017 > 0.05,
        )
    )

    # F: FB-Zero jumps in Nov 2016.
    zero_oct = fig.share_at(2016, 10, WebProtocol.FBZERO) or 0.0
    zero_dec = fig.share_at(2016, 12, WebProtocol.FBZERO) or 0.0
    expectations.append(
        Expectation(
            name="event F: FB-Zero sudden deployment Nov 2016",
            paper="suddenly ~8% of web traffic",
            measured=zero_dec,
            ok=zero_oct < 0.005 and within(zero_dec, 0.02, 0.15),
        )
    )
    if fig.fbzero_facebook_share is not None:
        expectations.append(
            Expectation(
                name="FB-Zero share of Facebook traffic (2017)",
                paper="more than a half",
                measured=fig.fbzero_facebook_share,
                ok=fig.fbzero_facebook_share > 0.45,
            )
        )

    # End of 2017 landscape.
    http_2017 = fig.share_at(2017, 11, WebProtocol.HTTP)
    if http_2017 is not None:
        expectations.append(
            Expectation(
                name="HTTP share end 2017",
                paper="down to 25%",
                measured=http_2017,
                ok=within(http_2017, 0.15, 0.38),
            )
        )
    quic_zero = (fig.share_at(2017, 11, WebProtocol.QUIC) or 0.0) + (
        fig.share_at(2017, 11, WebProtocol.FBZERO) or 0.0
    )
    expectations.append(
        Expectation(
            name="QUIC+Zero share end 2017",
            paper="20-25% of web traffic",
            measured=quic_zero,
            ok=within(quic_zero, 0.12, 0.35),
        )
    )

    lines.extend(expectation.line() for expectation in expectations)
    return lines

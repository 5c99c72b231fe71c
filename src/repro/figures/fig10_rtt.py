"""Figure 10: CDFs of per-flow minimum RTT, April 2014 vs April 2017.

Shape targets (Section 6.1): in 2014 Facebook/Instagram flows are spread
over steps at ~3/10/20/30 ms with ~7 % beyond 100 ms; by 2017 ~80 % of
both sit at the 3 ms edge nodes.  YouTube already had ~80 % at 3 ms in
2014 and breaks below one millisecond in 2017 (in-PoP caches); Google
search stays at a few milliseconds but not sub-ms; WhatsApp remains
centralized at ~100 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analytics.activity import group_rows
from repro.analytics.distributions import EmpiricalDistribution, log_grid
from repro.analytics.rtt import RTT_CODEC
from repro.core.study import StudyData
from repro.dataflow.columnar import ColumnBatch
from repro.figures.common import Expectation, within
from repro.services import catalog


@dataclass(frozen=True)
class Fig10Data:
    """(service, year) → min-RTT distribution."""

    distributions: Dict[Tuple[str, int], EmpiricalDistribution]

    def curve(self, service: str, year: int) -> Optional[EmpiricalDistribution]:
        return self.distributions.get((service, year))

    def cdf_series(self, service: str, year: int) -> List[Tuple[float, float]]:
        distribution = self.distributions[(service, year)]
        return distribution.cdf_points(log_grid(0.1, 300.0))


def compute(data: StudyData, trim_tails: float = 0.01) -> Fig10Data:
    rtt = ColumnBatch.of(data.rtt, RTT_CODEC)
    services, years = rtt.columns["service"], rtt.columns["year"]
    order, starts = group_rows(services, years)
    groups = np.split(rtt.columns["ms"][order], starts[1:])
    distributions = {}
    for first, samples in zip(order[starts].tolist(), groups):
        key = (rtt.dictionaries["service"][services[first]], int(years[first]))
        ordered = sorted(samples.tolist())
        cut = int(len(ordered) * trim_tails)
        body = ordered[cut : len(ordered) - cut] if cut else ordered
        distributions[key] = EmpiricalDistribution.from_samples(body or ordered)
    return Fig10Data(distributions=distributions)


def report(fig: Fig10Data) -> List[str]:
    lines = ["Figure 10: CDFs of min per-flow RTT, 2014 vs 2017"]
    expectations: List[Expectation] = []

    for service in (catalog.FACEBOOK, catalog.INSTAGRAM):
        early = fig.curve(service, 2014)
        late = fig.curve(service, 2017)
        if early is not None:
            near_2014 = early.cdf(5.0)
            far_2014 = early.ccdf(80.0)
            expectations.append(
                Expectation(
                    name=f"{service} 2014 share served within 5ms",
                    paper="~10% at the 3ms nodes",
                    measured=near_2014,
                    ok=near_2014 < 0.45,
                )
            )
            expectations.append(
                Expectation(
                    name=f"{service} 2014 intercontinental share (>80ms)",
                    paper="~7% beyond 100ms",
                    measured=far_2014,
                    ok=within(far_2014, 0.02, 0.40),
                )
            )
        if late is not None:
            near_2017 = late.cdf(5.0)
            expectations.append(
                Expectation(
                    name=f"{service} 2017 share served within 5ms",
                    paper="~80% at the 3ms CDN nodes",
                    measured=near_2017,
                    ok=near_2017 >= 0.6,
                )
            )

    yt_2014 = fig.curve(catalog.YOUTUBE, 2014)
    yt_2017 = fig.curve(catalog.YOUTUBE, 2017)
    if yt_2014 is not None:
        expectations.append(
            Expectation(
                name="YouTube 2014 share within 5ms",
                paper="80% already at 3ms",
                measured=yt_2014.cdf(5.0),
                ok=yt_2014.cdf(5.0) >= 0.6,
            )
        )
        expectations.append(
            Expectation(
                name="YouTube 2014 sub-millisecond share",
                paper="none yet",
                measured=yt_2014.cdf(1.0),
                ok=yt_2014.cdf(1.0) < 0.10,
            )
        )
    if yt_2017 is not None:
        expectations.append(
            Expectation(
                name="YouTube 2017 sub-millisecond share",
                paper="video cache breaks the sub-ms RTT",
                measured=yt_2017.cdf(1.0),
                ok=yt_2017.cdf(1.0) >= 0.35,
            )
        )

    google_2017 = fig.curve(catalog.GOOGLE, 2017)
    if google_2017 is not None:
        expectations.append(
            Expectation(
                name="Google search 2017 sub-millisecond share",
                paper="not yet such fine-grained penetration",
                measured=google_2017.cdf(1.0),
                ok=google_2017.cdf(1.0) < 0.10,
            )
        )

    whatsapp_2017 = fig.curve(catalog.WHATSAPP, 2017)
    if whatsapp_2017 is not None:
        expectations.append(
            Expectation(
                name="WhatsApp 2017 median RTT (ms)",
                paper="still centralized, ~100ms",
                measured=whatsapp_2017.median,
                ok=within(whatsapp_2017.median, 60, 160),
            )
        )

    lines.extend(expectation.line() for expectation in expectations)
    return lines

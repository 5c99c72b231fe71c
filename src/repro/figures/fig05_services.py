"""Figure 5: popularity and downloaded-byte share of 17 services (ADSL).

Shape targets (Section 4.1): Google stable ~60 % daily reach; Bing growing
from <15 % to ~45 % (Windows telemetry); DuckDuckGo well below 1 %;
Facebook / Instagram / WhatsApp / Netflix gaining traffic share; SnapChat
gaining momentum only for a limited period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analytics.popularity import SERVICE_STATS_CODEC, heatmap
from repro.analytics.timeseries import MonthlySeries
from repro.core.study import StudyData
from repro.dataflow.columnar import ColumnBatch
from repro.figures.common import Expectation, within
from repro.services import catalog
from repro.synthesis.population import Technology


@dataclass(frozen=True)
class Fig5Data:
    """service → monthly popularity (%) and share-of-bytes (%) series."""

    popularity: Dict[str, MonthlySeries]
    byte_share: Dict[str, MonthlySeries]
    services: Tuple[str, ...]

    def popularity_at(self, service: str, year: int, month: int) -> Optional[float]:
        return self.popularity[service].value_at(year, month)

    def share_at(self, service: str, year: int, month: int) -> Optional[float]:
        return self.byte_share[service].value_at(year, month)


def compute(
    data: StudyData, technology: Technology = Technology.ADSL
) -> Fig5Data:
    services = catalog.FIGURE5_SERVICES
    stats = ColumnBatch.of(data.service_stats, SERVICE_STATS_CODEC)
    cells = stats.take(stats.equals("technology", technology.value))
    return Fig5Data(
        popularity=heatmap(cells, services, data.months, "popularity"),
        byte_share=heatmap(cells, services, data.months, "share"),
        services=services,
    )


def _mean_defined(series: MonthlySeries, year: int) -> Optional[float]:
    values = [
        value for (y, _), value in series.defined() if y == year
    ]
    if not values:
        return None
    return sum(values) / len(values)


def report(fig: Fig5Data) -> List[str]:
    lines = ["Figure 5: service popularity and byte share (ADSL)"]
    expectations: List[Expectation] = []

    google_2014 = _mean_defined(fig.popularity[catalog.GOOGLE], 2014)
    google_2017 = _mean_defined(fig.popularity[catalog.GOOGLE], 2017)
    if google_2014 is not None and google_2017 is not None:
        expectations.append(
            Expectation(
                name="Google popularity stability (%)",
                paper="~60% of active users, constant",
                measured=google_2017,
                ok=within(google_2017, 45, 75)
                and abs(google_2017 - google_2014) < 12,
            )
        )

    bing_2013 = _mean_defined(fig.popularity[catalog.BING], 2013)
    bing_2017 = _mean_defined(fig.popularity[catalog.BING], 2017)
    if bing_2013 is not None and bing_2017 is not None:
        expectations.append(
            Expectation(
                name="Bing popularity growth (% 2013 -> % 2017)",
                paper="<15% -> ~45%",
                measured=bing_2017,
                ok=bing_2013 < 20 and within(bing_2017, 30, 55),
            )
        )

    ddg_2017 = _mean_defined(fig.popularity[catalog.DUCKDUCKGO], 2017)
    if ddg_2017 is not None:
        expectations.append(
            Expectation(
                name="DuckDuckGo popularity (%)",
                paper="<0.3% of population",
                measured=ddg_2017,
                ok=ddg_2017 < 1.5,
            )
        )

    for service in (catalog.INSTAGRAM, catalog.NETFLIX, catalog.WHATSAPP):
        early = _mean_defined(fig.byte_share[service], 2014)
        late = _mean_defined(fig.byte_share[service], 2017)
        expectations.append(
            Expectation(
                name=f"{service} byte-share growth (% of mix, 2017)",
                paper="increased traffic share over the years",
                measured=late if late is not None else 0.0,
                ok=late is not None and (early is None or late > early),
            )
        )

    snap_2016 = _mean_defined(fig.byte_share[catalog.SNAPCHAT], 2016)
    snap_2017 = _mean_defined(fig.byte_share[catalog.SNAPCHAT], 2017)
    if snap_2016 is not None and snap_2017 is not None:
        expectations.append(
            Expectation(
                name="SnapChat byte share 2017 vs 2016",
                paper="momentum only for a limited period",
                measured=snap_2017 / snap_2016 if snap_2016 else 0.0,
                ok=snap_2016 > 0 and snap_2017 < snap_2016,
            )
        )

    lines.extend(expectation.line() for expectation in expectations)
    return lines

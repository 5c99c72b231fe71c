"""Figure 3: average per-subscription daily traffic over 54 months.

Shape targets (Section 3.2): ADSL download grows at a constant rate from
~300 MB (2013) to ~700 MB (late 2017); FTTH ~25 % above ADSL, topping
~1 GB/day; ADSL upload flat (1 Mb/s bottleneck), FTTH upload modestly
increasing; probe outages leave gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analytics.timeseries import (
    MonthlySeries,
    mean_daily_traffic_per_subscriber,
)
from repro.core.study import StudyData
from repro.figures.common import MB, Expectation, monthly_row, ratio, within
from repro.synthesis.population import Technology


@dataclass(frozen=True)
class Fig3Data:
    """Four monthly series: (technology, direction) → mean bytes/day."""

    series: Dict[Tuple[Technology, str], MonthlySeries]

    def get(self, technology: Technology, direction: str) -> MonthlySeries:
        return self.series[(technology, direction)]


def compute(data: StudyData) -> Fig3Data:
    table = data.all_subscriber_days()
    series = {}
    for technology in Technology:
        for direction in ("down", "up"):
            series[(technology, direction)] = mean_daily_traffic_per_subscriber(
                table, data.months, technology, direction
            )
    return Fig3Data(series=series)


def _first_last(series: MonthlySeries) -> Tuple[Optional[float], Optional[float]]:
    defined = series.defined()
    if not defined:
        return None, None
    # Average the first/last three defined months to damp daily noise.
    first = sum(value for _, value in defined[:3]) / min(3, len(defined))
    last = sum(value for _, value in defined[-3:]) / min(3, len(defined))
    return first, last


def report(fig: Fig3Data) -> List[str]:
    lines = ["Figure 3: average per-subscription daily traffic (54 months)"]
    expectations: List[Expectation] = []

    adsl_down = fig.get(Technology.ADSL, "down")
    first, last = _first_last(adsl_down)
    if first is not None and last is not None:
        expectations.append(
            Expectation(
                name="ADSL mean download start (MB/day)",
                paper="~300MB in 2013",
                measured=first / MB,
                ok=within(first / MB, 200, 450),
            )
        )
        expectations.append(
            Expectation(
                name="ADSL mean download end (MB/day)",
                paper="~700MB late 2017",
                measured=last / MB,
                ok=within(last / MB, 520, 900),
            )
        )

    ftth_down = fig.get(Technology.FTTH, "down")
    _, ftth_last = _first_last(ftth_down)
    if ftth_last is not None and last is not None:
        gap = ratio(ftth_last, last)
        expectations.append(
            Expectation(
                name="FTTH/ADSL download gap (end of span)",
                paper="FTTH ~25% above, ~1GB/day",
                measured=gap or 0.0,
                ok=gap is not None and within(gap, 1.05, 1.6),
            )
        )

    adsl_up = fig.get(Technology.ADSL, "up")
    up_first, up_last = _first_last(adsl_up)
    if up_first is not None and up_last is not None and up_first > 0:
        flatness = up_last / up_first
        expectations.append(
            Expectation(
                name="ADSL upload flatness (end/start)",
                paper="constant (bottlenecked)",
                measured=flatness,
                ok=within(flatness, 0.6, 1.5),
            )
        )

    ftth_up = fig.get(Technology.FTTH, "up")
    fup_first, fup_last = _first_last(ftth_up)
    if fup_first is not None and fup_last is not None and fup_first > 0:
        growth = fup_last / fup_first
        expectations.append(
            Expectation(
                name="FTTH upload growth (end/start)",
                paper="modest increase",
                measured=growth,
                ok=within(growth, 0.9, 2.5),
            )
        )

    gaps = adsl_down.gap_months()
    expectations.append(
        Expectation(
            name="outage gaps in the monthly series",
            paper="interruptions from probe outages",
            measured=float(len(gaps)),
            ok=True,  # informational; full-span runs show the 2016 hole
        )
    )

    lines.extend(expectation.line() for expectation in expectations)
    pairs = [
        (month, (value / MB if value is not None else None))
        for month, value in zip(adsl_down.months, adsl_down.values)
    ]
    lines.append(monthly_row("ADSL down MB/day", pairs[::6]))
    return lines

"""Figure 2: CCDF of per-active-subscriber daily traffic, 2014 vs 2017.

Shape targets (Section 3.1): bimodal distribution (≈50 % of days below
100 MB down / 10 MB up; >10 % above 1 GB / 100 MB); medians roughly double
from April 2014 to April 2017; FTTH ≈ +25 % on heavy download days and ×2
uploads; the 2014 upload tail bump (P2P seeding) gone by 2017.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analytics.activity import SUBSCRIBER_DAY_CODEC
from repro.analytics.distributions import EmpiricalDistribution, log_grid
from repro.core.study import StudyData
from repro.dataflow.columnar import ColumnBatch
from repro.figures.common import MB, Expectation, ratio, within
from repro.synthesis.population import Technology

#: (year, technology, direction) keys of the eight plotted curves.
CURVE_KEYS: Tuple[Tuple[int, Technology, str], ...] = tuple(
    (year, technology, direction)
    for year in (2014, 2017)
    for technology in Technology
    for direction in ("down", "up")
)


@dataclass(frozen=True)
class Fig2Data:
    """One empirical distribution per (year, technology, direction)."""

    distributions: Dict[Tuple[int, Technology, str], EmpiricalDistribution]

    def curve(
        self, year: int, technology: Technology, direction: str
    ) -> Optional[EmpiricalDistribution]:
        return self.distributions.get((year, technology, direction))

    def ccdf_series(
        self, year: int, technology: Technology, direction: str
    ) -> List[Tuple[float, float]]:
        distribution = self.distributions[(year, technology, direction)]
        grid = log_grid(100e3, 50e9) if direction == "down" else log_grid(10e3, 5e9)
        return distribution.ccdf_points(grid)


def compute(data: StudyData, month: int = 4) -> Fig2Data:
    """Build the eight distributions from April 2014/2017 subscriber-days."""
    samples: Dict[Tuple[int, Technology, str], List[float]] = {
        key: [] for key in CURVE_KEYS
    }
    for day, table in data.subscriber_days.items():
        if day.month != month or day.year not in (2014, 2017):
            continue
        table = ColumnBatch.of(table, SUBSCRIBER_DAY_CODEC)
        for technology in Technology:
            rows = table.columns["active"] & table.equals("technology", technology.value)
            for direction in ("down", "up"):
                values = table.columns[f"bytes_{direction}"][rows]
                samples[(day.year, technology, direction)].extend(
                    values.astype(np.float64).tolist()
                )
    distributions = {
        key: EmpiricalDistribution.from_samples(values)
        for key, values in samples.items()
        if values
    }
    return Fig2Data(distributions=distributions)


def _mean_above_median(distribution: EmpiricalDistribution) -> float:
    """Mean of the heavy half of the samples (stable heavy-day statistic)."""
    samples = distribution.samples
    upper = samples[len(samples) // 2 :]
    return sum(upper) / len(upper)


def report(fig: Fig2Data) -> List[str]:
    lines = ["Figure 2: CCDF of per-active-subscriber daily traffic"]
    expectations: List[Expectation] = []

    for technology in Technology:
        for direction in ("down", "up"):
            early = fig.curve(2014, technology, direction)
            late = fig.curve(2017, technology, direction)
            if early is None or late is None:
                continue
            growth = ratio(late.median, early.median)
            expectations.append(
                Expectation(
                    name=f"median growth {technology.value} {direction} 2014->2017",
                    paper="factor ~2",
                    measured=growth or 0.0,
                    ok=growth is not None and within(growth, 1.4, 3.4),
                )
            )

    down_2014 = fig.curve(2014, Technology.ADSL, "down")
    if down_2014 is not None:
        light = down_2014.cdf(100 * MB)
        expectations.append(
            Expectation(
                name="2014 ADSL share of days below 100MB down",
                paper="~50% light days",
                measured=light,
                ok=within(light, 0.30, 0.70),
            )
        )
    down_2017 = fig.curve(2017, Technology.ADSL, "down")
    if down_2017 is not None:
        heavy = down_2017.ccdf(1000 * MB)
        expectations.append(
            Expectation(
                name="2017 ADSL share of days above 1GB down",
                paper=">10% heavy days",
                measured=heavy,
                ok=heavy >= 0.08,
            )
        )

    adsl_2017 = fig.curve(2017, Technology.ADSL, "down")
    ftth_2017 = fig.curve(2017, Technology.FTTH, "down")
    if adsl_2017 is not None and ftth_2017 is not None:
        heavy_gap = ratio(
            _mean_above_median(ftth_2017), _mean_above_median(adsl_2017)
        )
        expectations.append(
            Expectation(
                name="FTTH/ADSL heavy-day download ratio (2017)",
                paper="~1.25 (moderate)",
                measured=heavy_gap or 0.0,
                ok=heavy_gap is not None and within(heavy_gap, 1.0, 1.7),
            )
        )
    adsl_up = fig.curve(2017, Technology.ADSL, "up")
    ftth_up = fig.curve(2017, Technology.FTTH, "up")
    if adsl_up is not None and ftth_up is not None:
        up_gap = ratio(ftth_up.mean, adsl_up.mean)
        expectations.append(
            Expectation(
                name="FTTH/ADSL upload ratio (mean, 2017)",
                paper="~2x",
                measured=up_gap or 0.0,
                ok=up_gap is not None and within(up_gap, 1.4, 3.0),
            )
        )

    # The 2014 upload tail bump (P2P) must shrink by 2017.
    early_up = fig.curve(2014, Technology.ADSL, "up")
    if early_up is not None and adsl_up is not None:
        tail_2014 = early_up.ccdf(300 * MB)
        tail_2017 = adsl_up.ccdf(300 * MB)
        expectations.append(
            Expectation(
                name="ADSL upload tail P(>300MB) 2017 vs 2014",
                paper="tail bump disappears",
                measured=tail_2017 / tail_2014 if tail_2014 else 0.0,
                ok=tail_2014 == 0 or tail_2017 <= tail_2014,
            )
        )
    lines.extend(expectation.line() for expectation in expectations)
    return lines

"""Figure 11: Facebook / Instagram / YouTube infrastructure evolution.

Shape targets (Section 6.2):

* Facebook: a good fraction of addresses shared with other services in
  2013-2014; from the second half of 2015 fewer servers and full
  specialization (3 800 → <1 000 daily IPs, shared → few); ASN migration
  from Akamai to the Facebook CDN completed by end 2015; domain migration
  akamaihd.net → fbcdn.net.
* Instagram: served by Telia/GTT/Akamai, integrated into Facebook's CDN by
  end 2015 (~300 daily IPs); domains → cdninstagram.com / instagram.com.
* YouTube: always dedicated; address footprint keeps growing; ISP-hosted
  caches serve most traffic from the end of 2015; domains youtube.com →
  googlevideo.com (2014) → + gvt1.com (2015).

Daily-IP absolutes are scaled by the world's ``ip_scale`` (DESIGN.md §5);
the comparisons below are ratios, which survive the scaling.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analytics.infrastructure import (
    AsnBreakdown,
    DailyServerStats,
    IpRaster,
    build_ip_raster,
    server_roles,
    shares_from_totals,
)
from repro.core.study import StudyData
from repro.figures.common import Expectation
from repro.services import catalog

SERVICES = (catalog.FACEBOOK, catalog.INSTAGRAM, catalog.YOUTUBE)


@dataclass(frozen=True)
class ServiceInfraPanel:
    service: str
    census: List[DailyServerStats]
    asn: List[AsnBreakdown]
    domains: List[Tuple[datetime.date, Dict[str, float]]]
    cumulative_ips: List[Tuple[datetime.date, int]]
    raster: Optional[IpRaster] = None  # the top-panel dot matrix

    def census_in_year(self, year: int) -> List[DailyServerStats]:
        return [entry for entry in self.census if entry.day.year == year]

    def mean_total_ips(self, year: int) -> Optional[float]:
        cells = self.census_in_year(year)
        if not cells:
            return None
        return sum(cell.total_ips for cell in cells) / len(cells)

    def mean_shared_fraction(self, year: int) -> Optional[float]:
        cells = [cell for cell in self.census_in_year(year) if cell.total_ips]
        if not cells:
            return None
        return math.fsum(cell.shared_ips / cell.total_ips for cell in cells) / len(cells)

    def asn_share(self, year: int, asn_name: str) -> Optional[float]:
        cells = [entry for entry in self.asn if entry.day.year == year]
        if not cells:
            return None
        return sum(entry.share(asn_name) for entry in cells) / len(cells)

    def domain_share(self, year: int, sld: str) -> Optional[float]:
        cells = [
            shares for day, shares in self.domains if day.year == year and shares
        ]
        if not cells:
            return None
        return math.fsum(shares.get(sld, 0.0) for shares in cells) / len(cells)


@dataclass(frozen=True)
class Fig11Data:
    panels: Dict[str, ServiceInfraPanel]


def compute(data: StudyData) -> Fig11Data:
    # Shares divide only over a whole day: each (day, service)'s SLD totals.
    totals: Dict[Tuple[datetime.date, str], Dict[str, int]] = {}
    for row in data.domain_bytes:
        totals.setdefault((row.day, row.service), {})[row.sld] = row.bytes
    panels = {}
    for service in SERVICES:
        asn = sorted(
            (entry for entry in data.asn if entry.service == service),
            key=lambda entry: entry.day,
        )
        domains = [
            (day, shares_from_totals(totals.get((day, service), {})))
            for day in data.flow_days
        ]
        roles = server_roles(data.servers, service, data.flow_days)
        cumulative, seen = [], set()
        for day, day_roles in roles:
            seen.update(day_roles)
            cumulative.append((day, len(seen)))
        panels[service] = ServiceInfraPanel(
            service=service,
            census=[DailyServerStats.of(day, service, day_roles) for day, day_roles in roles],
            asn=asn,
            domains=domains,
            cumulative_ips=cumulative,
            raster=build_ip_raster(service, roles) if roles else None,
        )
    return Fig11Data(panels=panels)


def report(fig: Fig11Data) -> List[str]:
    lines = ["Figure 11: big players' infrastructure evolution"]
    expectations: List[Expectation] = []

    facebook = fig.panels[catalog.FACEBOOK]
    fb_ips_2014 = facebook.mean_total_ips(2014)
    fb_ips_2017 = facebook.mean_total_ips(2017)
    if fb_ips_2014 and fb_ips_2017:
        expectations.append(
            Expectation(
                name="Facebook daily IPs 2017/2014",
                paper="3800 -> <1000 (factor ~0.26)",
                measured=fb_ips_2017 / fb_ips_2014,
                ok=fb_ips_2017 < 0.75 * fb_ips_2014,
            )
        )
    fb_shared_2014 = facebook.mean_shared_fraction(2014)
    fb_shared_2017 = facebook.mean_shared_fraction(2017)
    if fb_shared_2014 is not None and fb_shared_2017 is not None:
        expectations.append(
            Expectation(
                name="Facebook shared-IP fraction 2014",
                paper="a good fraction shared",
                measured=fb_shared_2014,
                ok=fb_shared_2014 > 0.15,
            )
        )
        expectations.append(
            Expectation(
                name="Facebook shared-IP fraction 2017",
                paper="shared drop to very few",
                measured=fb_shared_2017,
                ok=fb_shared_2017 < 0.5 * max(fb_shared_2014, 1e-9),
            )
        )
    fb_akamai_2013 = facebook.asn_share(2013, "AKAMAI")
    fb_own_2017 = facebook.asn_share(2017, "FACEBOOK")
    if fb_akamai_2013 is not None:
        expectations.append(
            Expectation(
                name="Facebook on Akamai ASN, 2013 (IP share)",
                paper="third-party CDNs in 2013",
                measured=fb_akamai_2013,
                ok=fb_akamai_2013 > 0.25,
            )
        )
    if fb_own_2017 is not None:
        expectations.append(
            Expectation(
                name="Facebook on own ASN, 2017 (IP share)",
                paper="migration completed by end 2015",
                measured=fb_own_2017,
                ok=fb_own_2017 > 0.85,
            )
        )
    fb_akamaihd_2013 = facebook.domain_share(2013, "akamaihd.net")
    fb_fbcdn_2017 = facebook.domain_share(2017, "fbcdn.net")
    if fb_akamaihd_2013 is not None:
        expectations.append(
            Expectation(
                name="Facebook akamaihd.net traffic share 2013",
                paper="generic Akamai CDN serves Facebook statics",
                measured=fb_akamaihd_2013,
                ok=fb_akamaihd_2013 > 0.10,
            )
        )
    if fb_fbcdn_2017 is not None:
        expectations.append(
            Expectation(
                name="Facebook fbcdn.net traffic share 2017",
                paper="proprietary infrastructure",
                measured=fb_fbcdn_2017,
                ok=fb_fbcdn_2017 > 0.30,
            )
        )

    instagram = fig.panels[catalog.INSTAGRAM]
    ig_fb_asn_2017 = instagram.asn_share(2017, "FACEBOOK")
    ig_telia_2013 = instagram.asn_share(2013, "TELIANET")
    ig_cdninsta_2017 = instagram.domain_share(2017, "cdninstagram.com")
    if ig_telia_2013 is not None:
        expectations.append(
            Expectation(
                name="Instagram on Telia ASN 2013 (IP share)",
                paper="third-party CDNs before integration",
                measured=ig_telia_2013,
                ok=ig_telia_2013 > 0.15,
            )
        )
    if ig_fb_asn_2017 is not None:
        expectations.append(
            Expectation(
                name="Instagram on Facebook ASN 2017 (IP share)",
                paper="integration completed by end 2015",
                measured=ig_fb_asn_2017,
                ok=ig_fb_asn_2017 > 0.85,
            )
        )
    if ig_cdninsta_2017 is not None:
        expectations.append(
            Expectation(
                name="Instagram cdninstagram.com share 2017",
                paper="evident domain migration",
                measured=ig_cdninsta_2017,
                ok=ig_cdninsta_2017 > 0.4,
            )
        )

    youtube = fig.panels[catalog.YOUTUBE]
    yt_shared_2017 = youtube.mean_shared_fraction(2017)
    if yt_shared_2017 is not None:
        expectations.append(
            Expectation(
                name="YouTube shared-IP fraction (always dedicated)",
                paper="totally dedicated infrastructure",
                measured=yt_shared_2017,
                ok=yt_shared_2017 < 0.10,
            )
        )
    yt_ips_2013 = youtube.mean_total_ips(2013)
    yt_ips_2017 = youtube.mean_total_ips(2017)
    if yt_ips_2013 and yt_ips_2017:
        expectations.append(
            Expectation(
                name="YouTube daily-IP growth 2017/2013",
                paper="keeps growing (to ~40000/day)",
                measured=yt_ips_2017 / yt_ips_2013,
                ok=yt_ips_2017 > yt_ips_2013,
            )
        )
    yt_isp_2017 = youtube.asn_share(2017, "ISP")
    yt_isp_2014 = youtube.asn_share(2014, "ISP")
    if yt_isp_2017 is not None:
        expectations.append(
            Expectation(
                name="YouTube IPs inside the ISP, 2017",
                paper="ISP caches serve most traffic from end 2015",
                measured=yt_isp_2017,
                ok=(yt_isp_2014 or 0.0) < 0.05 and yt_isp_2017 > 0.10,
            )
        )
    yt_dom_2013 = youtube.domain_share(2013, "youtube.com")
    yt_gvideo_2015 = youtube.domain_share(2015, "googlevideo.com")
    yt_gvt1_2017 = youtube.domain_share(2017, "gvt1.com")
    if yt_dom_2013 is not None:
        expectations.append(
            Expectation(
                name="YouTube youtube.com share 2013",
                paper="all traffic served by youtube.com until Jan 2014",
                measured=yt_dom_2013,
                ok=yt_dom_2013 > 0.75,
            )
        )
    if yt_gvideo_2015 is not None:
        expectations.append(
            Expectation(
                name="YouTube googlevideo.com share 2015",
                paper="immediately handles the majority of traffic",
                measured=yt_gvideo_2015,
                ok=yt_gvideo_2015 > 0.5,
            )
        )
    if yt_gvt1_2017 is not None:
        expectations.append(
            Expectation(
                name="YouTube gvt1.com present from 2015",
                paper="introduced in 2015",
                measured=yt_gvt1_2017,
                ok=yt_gvt1_2017 > 0.02,
            )
        )

    # Cumulative growth: new addresses keep appearing.
    for service in SERVICES:
        cumulative = fig.panels[service].cumulative_ips
        if len(cumulative) >= 2:
            expectations.append(
                Expectation(
                    name=f"{service} cumulative unique IPs keep growing",
                    paper="new IP addresses keep appearing over time",
                    measured=float(cumulative[-1][1]),
                    ok=cumulative[-1][1] > cumulative[0][1],
                )
            )

    # Raster view: even late in the span, fresh addresses still appear
    # (the top panels' ever-rising upper edge).
    for service in SERVICES:
        raster = fig.panels[service].raster
        if raster is None or len(raster.days) < 6:
            continue
        appearances = raster.appearance_counts()
        late_third = appearances[2 * len(appearances) // 3 :]
        late_new = sum(count for _, count in late_third)
        expectations.append(
            Expectation(
                name=f"{service} raster: new addresses in the last third of the span",
                paper="addresses keep appearing until the end",
                measured=float(late_new),
                ok=late_new > 0,
            )
        )

    lines.extend(expectation.line() for expectation in expectations)
    return lines

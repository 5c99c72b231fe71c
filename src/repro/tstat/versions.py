"""Probe software versioning — what the probe could *recognize*, and when.

Keeping pace with protocol evolution is one of the paper's explicit
operational challenges (Section 2.3): large providers deploy undocumented
protocols overnight, and probe software is upgraded to follow.  Two of the
Fig. 8 events are measurement artifacts of exactly this:

* event C (June 2015): the probes start reporting SPDY explicitly —
  before the upgrade those flows were generically labelled HTTPS/TLS;
* event F (November 2016): FB-Zero appears and a recognizer is shipped.

:class:`ProbeCapabilities` encodes the upgrade history so both the packet
probe and the flow-tier generator report protocols exactly as the probe of
that day would have.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.tstat.flow import WebProtocol

SPDY_REPORTING_DATE = datetime.date(2015, 6, 1)
HTTP2_REPORTING_DATE = datetime.date(2015, 6, 1)
FBZERO_REPORTING_DATE = datetime.date(2016, 11, 10)
QUIC_REPORTING_DATE = datetime.date(2014, 8, 1)
#: Every day a reported label can change on: each reporting flag of
#: :func:`capabilities_on` is ``day >= one of them``.
REPORTING_DATES = (
    SPDY_REPORTING_DATE,
    HTTP2_REPORTING_DATE,
    FBZERO_REPORTING_DATE,
    QUIC_REPORTING_DATE,
)


@dataclass(frozen=True)
class ProbeCapabilities:
    """Recognition capabilities of the probe software deployed on a date."""

    version: str
    reports_spdy: bool
    reports_http2: bool
    reports_quic: bool
    reports_fbzero: bool

    def reported_label(self, true_protocol: WebProtocol) -> WebProtocol:
        """Map the on-the-wire protocol to what this probe version exports."""
        if true_protocol is WebProtocol.SPDY and not self.reports_spdy:
            return WebProtocol.TLS
        if true_protocol is WebProtocol.HTTP2 and not self.reports_http2:
            return WebProtocol.TLS
        if true_protocol is WebProtocol.FBZERO and not self.reports_fbzero:
            return WebProtocol.TLS
        if true_protocol is WebProtocol.QUIC and not self.reports_quic:
            return WebProtocol.OTHER  # unknown UDP/443 traffic
        return true_protocol


_RELEASES: Tuple[Tuple[datetime.date, str], ...] = (
    (datetime.date(2013, 1, 1), "tstat-2.4"),
    (QUIC_REPORTING_DATE, "tstat-3.0"),
    (SPDY_REPORTING_DATE, "tstat-3.1"),
    (FBZERO_REPORTING_DATE, "tstat-3.2"),
)


def capabilities_on(day: datetime.date) -> ProbeCapabilities:
    """The capabilities of the probe software running on ``day``."""
    version = _RELEASES[0][1]
    for release_date, release_version in _RELEASES:
        if day >= release_date:
            version = release_version
    return ProbeCapabilities(
        version=version,
        reports_spdy=day >= SPDY_REPORTING_DATE,
        reports_http2=day >= HTTP2_REPORTING_DATE,
        reports_quic=day >= QUIC_REPORTING_DATE,
        reports_fbzero=day >= FBZERO_REPORTING_DATE,
    )


@dataclass
class UpgradeLog:
    """Bookkeeping of which versions ran when (exported with probe stats)."""

    deployments: Dict[str, datetime.date] = field(default_factory=dict)

    def record(self, day: datetime.date) -> ProbeCapabilities:
        caps = capabilities_on(day)
        self.deployments.setdefault(caps.version, day)
        return caps

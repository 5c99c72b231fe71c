"""Ground-truth service models: who uses what, how much, over which protocol.

Each :class:`ServiceModel` encodes one service's five-year dynamics as
curves over the calendar:

* ``popularity`` — probability that an active subscriber uses the service
  on a given day (per access technology), the quantity of Fig. 5a/6/7 top;
* ``volume_down`` — mean bytes downloaded per using subscriber per day
  (Fig. 5b/6/7 bottom, Fig. 9);
* ``upload_ratio`` — upload volume as a fraction of download;
* ``protocol_mix`` — the on-the-wire protocol shares (Fig. 8);
* ``flows_per_day`` — flow count scale, feeding the activity criterion.

The calibration constants come straight from the paper's figures; the
per-experiment index of DESIGN.md lists the shape each one must reproduce.
The residual ``Other`` service closes the gap between the named services
and the Fig. 3 per-subscriber totals (300 → 700 MB/day on ADSL).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.services import catalog
from repro.synthesis import curves
from repro.synthesis.curves import Curve
from repro.synthesis.population import Technology
from repro.tstat.flow import WebProtocol

MB = 1_000_000.0
D = datetime.date

ProtocolMix = curves.Mix[WebProtocol]

# ---------------------------------------------------------------------------
# Event dates (Sections 4-5 of the paper).

YOUTUBE_HTTPS_MIGRATION_START = D(2014, 1, 15)  # event A
YOUTUBE_HTTPS_MIGRATION_END = D(2014, 10, 1)
QUIC_LAUNCH = D(2014, 10, 1)  # event B
SPDY_REVEAL = D(2015, 6, 1)  # event C (probe upgrade, see tstat.versions)
QUIC_DISABLE_START = D(2015, 12, 5)  # event D
QUIC_DISABLE_END = D(2016, 1, 12)
HTTP2_MIGRATION = D(2016, 2, 1)  # event E
FBZERO_LAUNCH = D(2016, 11, 10)  # event F
FACEBOOK_AUTOPLAY = D(2014, 3, 10)  # Fig. 9
NETFLIX_ITALY_LAUNCH = D(2015, 10, 22)
NETFLIX_UHD_LAUNCH = D(2016, 10, 15)


@dataclass(frozen=True)
class ThirdPartyContact:
    """Unintentional traffic from embedded objects (Section 4.1).

    Social buttons, telemetry beacons and embedded players make active
    subscribers contact a service's domains without ever visiting it;
    the per-service visit thresholds exist to filter exactly this.
    Byte volumes must stay below the service's threshold.
    """

    probability: float  # P(an active non-user touches the service that day)
    min_bytes: int
    max_bytes: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability out of range")
        if not 0 < self.min_bytes <= self.max_bytes:
            raise ValueError("bad byte range")


@dataclass(frozen=True)
class ServiceModel:
    """One service's ground-truth longitudinal behaviour."""

    name: str
    popularity: Dict[Technology, Curve]
    volume_down: Dict[Technology, Curve]
    upload_ratio: Dict[Technology, Curve]
    protocol_mix: ProtocolMix
    flows_per_day: Curve
    volume_sigma: float = 0.9  # lognormal spread of per-day volume
    affinity_sigma: float = 0.7  # persistent per-subscriber preference
    holiday_messaging_boost: bool = False  # WhatsApp-style wish spikes
    third_party: Optional[ThirdPartyContact] = None  # embedded-object noise


def _per_tech(adsl: Curve, ftth: Curve = None) -> Dict[Technology, Curve]:
    """Build the per-technology map; FTTH defaults to the ADSL curve."""
    return {
        Technology.ADSL: adsl,
        Technology.FTTH: ftth if ftth is not None else adsl,
    }


def _mix(components: Sequence[Tuple[WebProtocol, Curve]]) -> ProtocolMix:
    return curves.normalized_mix(components)


def _google_quic_share(ceiling: float) -> Curve:
    """QUIC adoption with launch (B) and the kill-switch dip (D)."""
    ramp = curves.launched(
        QUIC_LAUNCH,
        curves.piecewise(
            (QUIC_LAUNCH, 0.02),
            (D(2015, 6, 1), 0.55 * ceiling),
            (D(2016, 6, 1), 0.85 * ceiling),
            (D(2017, 12, 31), ceiling),
        ),
    )
    return curves.dip(ramp, QUIC_DISABLE_START, QUIC_DISABLE_END, 0.02)


def _spdy_then_http2(peak: float) -> Tuple[Tuple[WebProtocol, Curve], ...]:
    """A SPDY share that migrates to HTTP/2 around event E."""
    spdy = curves.piecewise(
        (D(2013, 7, 1), 0.4 * peak),
        (D(2014, 6, 1), peak),
        (HTTP2_MIGRATION, peak),
        (D(2016, 6, 1), 0.0),
    )
    http2 = curves.piecewise(
        (HTTP2_MIGRATION, 0.0),
        (D(2016, 6, 1), peak),
        (D(2017, 12, 31), 1.3 * peak),
    )
    return ((WebProtocol.SPDY, spdy), (WebProtocol.HTTP2, http2))


# ---------------------------------------------------------------------------
# Per-service builders.  Volumes in bytes/day per using subscriber.


def _google() -> ServiceModel:
    pop = curves.piecewise((D(2013, 7, 1), 0.60), (D(2017, 12, 31), 0.60))
    vol = curves.piecewise((D(2013, 7, 1), 12 * MB), (D(2017, 12, 31), 20 * MB))
    spdy, http2 = _spdy_then_http2(0.30)
    mix = _mix(
        [
            (WebProtocol.HTTP, curves.piecewise((D(2013, 7, 1), 0.20), (D(2015, 1, 1), 0.03), (D(2017, 12, 31), 0.01))),
            (WebProtocol.TLS, curves.piecewise((D(2013, 7, 1), 0.50), (D(2017, 12, 31), 0.25))),
            spdy,
            http2,
            (WebProtocol.QUIC, _google_quic_share(0.40)),
        ]
    )
    return ServiceModel(
        name=catalog.GOOGLE,
        popularity=_per_tech(pop),
        volume_down=_per_tech(vol),
        upload_ratio=_per_tech(curves.constant(0.06)),
        protocol_mix=mix,
        flows_per_day=curves.constant(35.0),
        volume_sigma=0.8,
        third_party=ThirdPartyContact(probability=0.55, min_bytes=2_000, max_bytes=15_000),
    )


def _bing() -> ServiceModel:
    # Constant growth driven by Windows telemetry on bing.com domains.
    pop = curves.piecewise((D(2013, 7, 1), 0.13), (D(2017, 12, 31), 0.45))
    vol = curves.piecewise((D(2013, 7, 1), 1.2 * MB), (D(2017, 12, 31), 2.5 * MB))
    return ServiceModel(
        name=catalog.BING,
        popularity=_per_tech(pop),
        volume_down=_per_tech(vol),
        upload_ratio=_per_tech(curves.constant(0.10)),
        protocol_mix=curves.fixed_mix((WebProtocol.TLS, 0.9), (WebProtocol.HTTP, 0.1)),
        flows_per_day=curves.constant(12.0),
        volume_sigma=0.6,
    )


def _duckduckgo() -> ServiceModel:
    pop = curves.piecewise((D(2013, 7, 1), 0.001), (D(2017, 12, 31), 0.003))
    return ServiceModel(
        name=catalog.DUCKDUCKGO,
        popularity=_per_tech(pop),
        volume_down=_per_tech(curves.constant(1.0 * MB)),
        upload_ratio=_per_tech(curves.constant(0.08)),
        protocol_mix=curves.fixed_mix((WebProtocol.TLS, 1.0)),
        flows_per_day=curves.constant(10.0),
        volume_sigma=0.6,
    )


def _facebook_volume() -> Curve:
    """Fig. 9: auto-play roughly triples the 35 MB/day of early 2014."""
    return curves.piecewise(
        (D(2013, 7, 1), 30 * MB),
        (FACEBOOK_AUTOPLAY, 35 * MB),
        (D(2014, 4, 15), 70 * MB),  # first roll-out month
        (D(2014, 5, 25), 71 * MB),  # apparent pause during May
        (D(2014, 7, 10), 90 * MB),  # second wave
        (D(2015, 12, 31), 100 * MB),
        (D(2017, 12, 31), 112 * MB),
    )


def _facebook() -> ServiceModel:
    pop = curves.piecewise((D(2013, 7, 1), 0.50), (D(2017, 12, 31), 0.57))
    spdy, http2 = _spdy_then_http2(0.40)
    zero = curves.launched(
        FBZERO_LAUNCH,
        curves.piecewise((FBZERO_LAUNCH, 0.60), (D(2017, 3, 1), 0.68), (D(2017, 12, 31), 0.72)),
    )
    mix = _mix(
        [
            (WebProtocol.HTTP, curves.piecewise((D(2013, 7, 1), 0.10), (D(2015, 1, 1), 0.01))),
            (WebProtocol.TLS, curves.piecewise((D(2013, 7, 1), 0.50), (D(2016, 10, 1), 0.20), (D(2017, 12, 31), 0.10))),
            spdy,
            http2,
            (WebProtocol.FBZERO, zero),
        ]
    )
    return ServiceModel(
        name=catalog.FACEBOOK,
        popularity=_per_tech(pop),
        volume_down=_per_tech(_facebook_volume()),
        upload_ratio=_per_tech(curves.constant(0.09)),
        protocol_mix=mix,
        flows_per_day=curves.constant(45.0),
        volume_sigma=0.9,
        third_party=ThirdPartyContact(probability=0.65, min_bytes=8_000, max_bytes=150_000),
    )


def _instagram() -> ServiceModel:
    pop = curves.piecewise(
        (D(2013, 7, 1), 0.04),
        (D(2015, 1, 1), 0.10),
        (D(2016, 1, 1), 0.18),
        (D(2017, 1, 1), 0.27),
        (D(2017, 12, 31), 0.35),
    )
    vol_adsl = curves.piecewise(
        (D(2013, 7, 1), 5 * MB),
        (D(2015, 1, 1), 20 * MB),
        (D(2016, 1, 1), 45 * MB),
        (D(2017, 1, 1), 80 * MB),
        (D(2017, 12, 31), 120 * MB),
    )
    vol_ftth = curves.piecewise(
        (D(2013, 7, 1), 6 * MB),
        (D(2015, 1, 1), 26 * MB),
        (D(2016, 1, 1), 70 * MB),
        (D(2017, 1, 1), 130 * MB),
        (D(2017, 12, 31), 200 * MB),
    )
    spdy, http2 = _spdy_then_http2(0.25)
    mix = _mix(
        [
            (WebProtocol.TLS, curves.piecewise((D(2013, 7, 1), 0.75), (D(2017, 12, 31), 0.35))),
            spdy,
            http2,
        ]
    )
    return ServiceModel(
        name=catalog.INSTAGRAM,
        popularity=_per_tech(pop),
        volume_down=_per_tech(vol_adsl, vol_ftth),
        upload_ratio=_per_tech(
            curves.piecewise((D(2013, 7, 1), 0.10), (D(2017, 12, 31), 0.15)),
            curves.piecewise((D(2013, 7, 1), 0.12), (D(2017, 12, 31), 0.20)),
        ),
        protocol_mix=mix,
        flows_per_day=curves.constant(30.0),
        volume_sigma=1.0,
    )


def _twitter() -> ServiceModel:
    pop = curves.piecewise((D(2013, 7, 1), 0.11), (D(2017, 12, 31), 0.16))
    return ServiceModel(
        name=catalog.TWITTER,
        popularity=_per_tech(pop),
        volume_down=_per_tech(curves.piecewise((D(2013, 7, 1), 6 * MB), (D(2017, 12, 31), 12 * MB))),
        upload_ratio=_per_tech(curves.constant(0.08)),
        protocol_mix=curves.fixed_mix((WebProtocol.TLS, 0.8), (WebProtocol.HTTP2, 0.2)),
        flows_per_day=curves.constant(20.0),
        third_party=ThirdPartyContact(probability=0.25, min_bytes=5_000, max_bytes=80_000),
    )


def _linkedin() -> ServiceModel:
    pop = curves.piecewise((D(2013, 7, 1), 0.035), (D(2017, 12, 31), 0.08))
    return ServiceModel(
        name=catalog.LINKEDIN,
        popularity=_per_tech(pop),
        volume_down=_per_tech(curves.constant(3 * MB)),
        upload_ratio=_per_tech(curves.constant(0.08)),
        protocol_mix=curves.fixed_mix((WebProtocol.TLS, 1.0)),
        flows_per_day=curves.constant(12.0),
    )


def _youtube() -> ServiceModel:
    pop = curves.piecewise((D(2013, 7, 1), 0.38), (D(2016, 1, 1), 0.43), (D(2017, 12, 31), 0.45))
    vol = curves.piecewise(
        (D(2013, 7, 1), 230 * MB),
        (D(2015, 1, 1), 300 * MB),
        (D(2016, 6, 1), 370 * MB),
        (D(2017, 12, 31), 460 * MB),
    )
    # Event A: the HTTPS migration through 2014.
    http_share = curves.piecewise(
        (D(2013, 7, 1), 1.0),
        (YOUTUBE_HTTPS_MIGRATION_START, 1.0),
        (YOUTUBE_HTTPS_MIGRATION_END, 0.04),
        (D(2017, 12, 31), 0.01),
    )
    tls_share = curves.piecewise(
        (D(2013, 7, 1), 0.0),
        (YOUTUBE_HTTPS_MIGRATION_START, 0.0),
        (YOUTUBE_HTTPS_MIGRATION_END, 0.9),
        (D(2016, 1, 1), 0.60),
        (D(2017, 12, 31), 0.50),
    )
    mix = _mix(
        [
            (WebProtocol.HTTP, http_share),
            (WebProtocol.TLS, tls_share),
            (WebProtocol.QUIC, _google_quic_share(0.50)),
        ]
    )
    return ServiceModel(
        name=catalog.YOUTUBE,
        popularity=_per_tech(pop),
        volume_down=_per_tech(vol),  # "no differences between ADSL and FTTH"
        upload_ratio=_per_tech(
            curves.piecewise((D(2013, 7, 1), 0.02), (D(2017, 12, 31), 0.03)),
            curves.piecewise((D(2013, 7, 1), 0.03), (D(2017, 12, 31), 0.06)),
        ),
        protocol_mix=mix,
        flows_per_day=curves.constant(25.0),
        volume_sigma=1.1,
        third_party=ThirdPartyContact(probability=0.40, min_bytes=20_000, max_bytes=380_000),
    )


def _netflix() -> ServiceModel:
    pop_ftth = curves.launched(
        NETFLIX_ITALY_LAUNCH,
        curves.piecewise(
            (NETFLIX_ITALY_LAUNCH, 0.005),
            (D(2016, 6, 1), 0.04),
            (D(2017, 1, 1), 0.07),
            (D(2017, 12, 31), 0.10),
        ),
    )
    pop_adsl = curves.launched(
        NETFLIX_ITALY_LAUNCH,
        curves.piecewise(
            (NETFLIX_ITALY_LAUNCH, 0.004),
            (D(2016, 6, 1), 0.025),
            (D(2017, 1, 1), 0.04),
            (D(2017, 12, 31), 0.058),
        ),
    )
    vol_adsl = curves.launched(
        NETFLIX_ITALY_LAUNCH,
        curves.piecewise(
            (NETFLIX_ITALY_LAUNCH, 480 * MB),
            (D(2016, 10, 1), 600 * MB),
            (D(2017, 12, 31), 620 * MB),
        ),
    )
    # UHD (October 2016) pushes FTTH close to 1 GB/day.
    vol_ftth = curves.launched(
        NETFLIX_ITALY_LAUNCH,
        curves.piecewise(
            (NETFLIX_ITALY_LAUNCH, 500 * MB),
            (NETFLIX_UHD_LAUNCH, 620 * MB),
            (D(2017, 3, 1), 850 * MB),
            (D(2017, 12, 31), 980 * MB),
        ),
    )
    return ServiceModel(
        name=catalog.NETFLIX,
        popularity=_per_tech(pop_adsl, pop_ftth),
        volume_down=_per_tech(vol_adsl, vol_ftth),
        upload_ratio=_per_tech(curves.constant(0.015)),
        protocol_mix=curves.fixed_mix((WebProtocol.TLS, 1.0)),
        flows_per_day=curves.constant(18.0),
        volume_sigma=0.6,  # binge vs single-episode days
        affinity_sigma=0.45,  # adopter persistence, tame at small populations
    )


def _adult() -> ServiceModel:
    pop = curves.constant(0.10)
    mix = _mix(
        [
            (WebProtocol.HTTP, curves.piecewise((D(2013, 7, 1), 0.9), (D(2017, 12, 31), 0.25))),
            (WebProtocol.TLS, curves.piecewise((D(2013, 7, 1), 0.1), (D(2017, 12, 31), 0.75))),
        ]
    )
    return ServiceModel(
        name=catalog.ADULT,
        popularity=_per_tech(pop),
        volume_down=_per_tech(curves.constant(60 * MB)),
        upload_ratio=_per_tech(curves.constant(0.02)),
        protocol_mix=mix,
        flows_per_day=curves.constant(15.0),
        volume_sigma=1.1,
    )


def _spotify() -> ServiceModel:
    pop = curves.piecewise((D(2013, 7, 1), 0.015), (D(2017, 12, 31), 0.10))
    return ServiceModel(
        name=catalog.SPOTIFY,
        popularity=_per_tech(pop),
        volume_down=_per_tech(curves.piecewise((D(2013, 7, 1), 18 * MB), (D(2017, 12, 31), 30 * MB))),
        upload_ratio=_per_tech(curves.constant(0.03)),
        protocol_mix=curves.fixed_mix((WebProtocol.TLS, 1.0)),
        flows_per_day=curves.constant(14.0),
    )


def _skype() -> ServiceModel:
    pop = curves.piecewise((D(2013, 7, 1), 0.12), (D(2017, 12, 31), 0.045))
    return ServiceModel(
        name=catalog.SKYPE,
        popularity=_per_tech(pop),
        volume_down=_per_tech(curves.constant(10 * MB)),
        upload_ratio=_per_tech(curves.constant(0.70)),  # symmetric calls
        protocol_mix=curves.fixed_mix((WebProtocol.OTHER, 0.8), (WebProtocol.TLS, 0.2)),
        flows_per_day=curves.constant(12.0),
    )


def _whatsapp() -> ServiceModel:
    pop = curves.piecewise(
        (D(2013, 7, 1), 0.18),
        (D(2015, 1, 1), 0.38),
        (D(2016, 1, 1), 0.50),
        (D(2017, 1, 1), 0.57),
        (D(2017, 12, 31), 0.60),  # near saturation
    )
    vol = curves.piecewise(
        (D(2013, 7, 1), 1.2 * MB),
        (D(2015, 1, 1), 3 * MB),
        (D(2016, 6, 1), 6.5 * MB),
        (D(2017, 12, 31), 10.5 * MB),
    )
    return ServiceModel(
        name=catalog.WHATSAPP,
        popularity=_per_tech(pop),
        volume_down=_per_tech(vol),
        upload_ratio=_per_tech(curves.constant(0.45)),  # people send media too
        protocol_mix=curves.fixed_mix((WebProtocol.TLS, 0.6), (WebProtocol.OTHER, 0.4)),
        flows_per_day=curves.constant(22.0),
        volume_sigma=0.9,
        holiday_messaging_boost=True,
    )


def _telegram() -> ServiceModel:
    pop = curves.piecewise((D(2013, 7, 1), 0.004), (D(2015, 1, 1), 0.02), (D(2017, 12, 31), 0.06))
    return ServiceModel(
        name=catalog.TELEGRAM,
        popularity=_per_tech(pop),
        volume_down=_per_tech(curves.piecewise((D(2013, 7, 1), 1 * MB), (D(2017, 12, 31), 4 * MB))),
        upload_ratio=_per_tech(curves.constant(0.40)),
        protocol_mix=curves.fixed_mix((WebProtocol.TLS, 0.5), (WebProtocol.OTHER, 0.5)),
        flows_per_day=curves.constant(15.0),
        holiday_messaging_boost=True,
    )


def _snapchat() -> ServiceModel:
    """Rise through 2015, peak 2016, volume collapse with sticky installs."""
    pop = curves.piecewise(
        (D(2013, 7, 1), 0.002),
        (D(2014, 9, 1), 0.01),
        (D(2015, 6, 1), 0.05),
        (D(2016, 3, 1), 0.10),  # the peak year
        (D(2017, 1, 1), 0.095),
        (D(2017, 12, 31), 0.085),  # "popularity is mostly unaffected"
    )
    vol = curves.piecewise(
        (D(2013, 7, 1), 2 * MB),
        (D(2015, 1, 1), 25 * MB),
        (D(2015, 10, 1), 70 * MB),
        (D(2016, 4, 1), 100 * MB),  # up to 100 MB daily!
        (D(2016, 12, 1), 60 * MB),
        (D(2017, 7, 1), 25 * MB),
        (D(2017, 12, 31), 18 * MB),  # hardly used anymore
    )
    return ServiceModel(
        name=catalog.SNAPCHAT,
        popularity=_per_tech(pop),
        volume_down=_per_tech(vol),
        upload_ratio=_per_tech(curves.constant(0.35)),
        protocol_mix=curves.fixed_mix((WebProtocol.TLS, 1.0)),
        flows_per_day=curves.constant(18.0),
        volume_sigma=1.0,
    )


def _amazon() -> ServiceModel:
    pop = curves.piecewise((D(2013, 7, 1), 0.05), (D(2017, 12, 31), 0.16))
    mix = _mix(
        [
            (WebProtocol.HTTP, curves.piecewise((D(2013, 7, 1), 0.4), (D(2016, 1, 1), 0.05))),
            (WebProtocol.TLS, curves.piecewise((D(2013, 7, 1), 0.6), (D(2016, 1, 1), 0.85))),
            (WebProtocol.HTTP2, curves.launched(D(2016, 6, 1), curves.constant(0.25))),
        ]
    )
    return ServiceModel(
        name=catalog.AMAZON,
        popularity=_per_tech(pop),
        volume_down=_per_tech(curves.piecewise((D(2013, 7, 1), 6 * MB), (D(2017, 12, 31), 12 * MB))),
        upload_ratio=_per_tech(curves.constant(0.06)),
        protocol_mix=mix,
        flows_per_day=curves.constant(18.0),
    )


def _ebay() -> ServiceModel:
    pop = curves.piecewise((D(2013, 7, 1), 0.08), (D(2017, 12, 31), 0.06))
    mix = _mix(
        [
            (WebProtocol.HTTP, curves.piecewise((D(2013, 7, 1), 0.6), (D(2016, 6, 1), 0.1))),
            (WebProtocol.TLS, curves.piecewise((D(2013, 7, 1), 0.4), (D(2016, 6, 1), 0.9))),
        ]
    )
    return ServiceModel(
        name=catalog.EBAY,
        popularity=_per_tech(pop),
        volume_down=_per_tech(curves.constant(5 * MB)),
        upload_ratio=_per_tech(curves.constant(0.06)),
        protocol_mix=mix,
        flows_per_day=curves.constant(14.0),
    )


def _peer_to_peer() -> ServiceModel:
    """The hardcore-but-shrinking P2P community of Fig. 6a."""
    pop_adsl = curves.piecewise(
        (D(2013, 7, 1), 0.145),
        (D(2015, 1, 1), 0.115),
        (D(2016, 6, 1), 0.09),
        (D(2017, 12, 31), 0.05),
    )
    pop_ftth = curves.piecewise(
        (D(2013, 7, 1), 0.15),
        (D(2015, 1, 1), 0.115),
        (D(2016, 1, 1), 0.08),  # FTTH users abandon earlier
        (D(2017, 12, 31), 0.045),
    )
    # ~400 MB of P2P data *exchanged* (down + up) by the hardcore group.
    vol_adsl = curves.piecewise(
        (D(2013, 7, 1), 230 * MB),
        (D(2016, 10, 1), 225 * MB),  # volume holds until end of 2016...
        (D(2017, 12, 31), 140 * MB),  # ...then starts to decrease
    )
    vol_ftth = curves.piecewise(
        (D(2013, 7, 1), 240 * MB),
        (D(2016, 3, 1), 215 * MB),  # FTTH volume decline starts earlier
        (D(2017, 12, 31), 130 * MB),
    )
    upload_adsl = curves.piecewise(
        (D(2013, 7, 1), 0.95),  # seeding, capped by the 1 Mb/s uplink
        (D(2017, 12, 31), 0.75),
    )
    upload_ftth = curves.piecewise(
        (D(2013, 7, 1), 1.9),  # fiber uplink allows over-unity seeding
        (D(2017, 12, 31), 1.2),
    )
    return ServiceModel(
        name=catalog.PEER_TO_PEER,
        popularity=_per_tech(pop_adsl, pop_ftth),
        volume_down=_per_tech(vol_adsl, vol_ftth),
        upload_ratio=_per_tech(upload_adsl, upload_ftth),
        protocol_mix=curves.fixed_mix((WebProtocol.P2P, 1.0)),
        flows_per_day=curves.constant(80.0),
        volume_sigma=1.2,
        affinity_sigma=0.9,  # a distinct hardcore community
    )


def _other() -> ServiceModel:
    """Residual web: closes the Fig. 3 totals (300 → 700 MB/day ADSL).

    Its protocol mix carries the web-wide slow HTTPS migration: HTTP falls
    from dominating 2013 to ~25 % of web traffic at the end of 2017.
    """
    vol_adsl = curves.piecewise(
        (D(2013, 7, 1), 118 * MB),
        (D(2014, 4, 1), 140 * MB),
        (D(2015, 1, 1), 185 * MB),
        (D(2016, 6, 1), 265 * MB),
        (D(2017, 4, 1), 330 * MB),
        (D(2017, 12, 31), 345 * MB),
    )
    vol_ftth = curves.piecewise(
        (D(2013, 7, 1), 136 * MB),
        (D(2014, 4, 1), 161 * MB),
        (D(2015, 1, 1), 213 * MB),
        (D(2016, 6, 1), 305 * MB),
        (D(2017, 4, 1), 380 * MB),
        (D(2017, 12, 31), 397 * MB),
    )
    mix = _mix(
        [
            (
                WebProtocol.HTTP,
                curves.piecewise(
                    (D(2013, 7, 1), 0.82),
                    (D(2015, 1, 1), 0.68),
                    (D(2016, 6, 1), 0.52),
                    (D(2017, 12, 31), 0.40),
                ),
            ),
            (
                WebProtocol.TLS,
                curves.piecewise(
                    (D(2013, 7, 1), 0.18),
                    (D(2015, 1, 1), 0.30),
                    (D(2016, 6, 1), 0.42),
                    (D(2017, 12, 31), 0.48),
                ),
            ),
            (
                WebProtocol.HTTP2,
                curves.launched(
                    HTTP2_MIGRATION,
                    curves.piecewise((HTTP2_MIGRATION, 0.0), (D(2017, 12, 31), 0.12)),
                ),
            ),
        ]
    )
    # Upload grows with cloud storage / user-generated content (Section 3.2);
    # ADSL uploads stay tighter, pinned by the 1 Mb/s uplink.
    upload_adsl = curves.piecewise((D(2013, 7, 1), 0.05), (D(2017, 12, 31), 0.06))
    upload_ftth = curves.piecewise((D(2013, 7, 1), 0.08), (D(2017, 12, 31), 0.13))
    return ServiceModel(
        name=catalog.OTHER,
        popularity=_per_tech(curves.constant(1.0)),  # everyone browses
        volume_down=_per_tech(vol_adsl, vol_ftth),
        upload_ratio=_per_tech(upload_adsl, upload_ftth),
        protocol_mix=mix,
        flows_per_day=curves.constant(60.0),
        volume_sigma=1.35,
        affinity_sigma=0.6,
    )


def build_default_services() -> Tuple[ServiceModel, ...]:
    """Every modelled service, the Fig. 5 set plus the residual."""
    return (
        _google(),
        _bing(),
        _duckduckgo(),
        _facebook(),
        _instagram(),
        _twitter(),
        _linkedin(),
        _youtube(),
        _netflix(),
        _adult(),
        _spotify(),
        _skype(),
        _whatsapp(),
        _telegram(),
        _snapchat(),
        _amazon(),
        _ebay(),
        _peer_to_peer(),
        _other(),
    )

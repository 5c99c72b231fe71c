"""Server-side infrastructure: who serves each service, from where, when.

Encodes the Section 6 ground truth:

* **RTT tiers** — each deployment sits at a fixed network distance from
  the PoP (sub-millisecond in-PoP caches, 3 ms national edge, 10-30 ms
  European metros, ~100 ms transatlantic), producing the stepped CDFs of
  Fig. 10;
* **CDN migrations** — Facebook and Instagram move from shared Akamai /
  transit-hosted caches onto the dedicated Facebook CDN through 2014-2015
  (Fig. 11a/b/d/e); YouTube is always dedicated but pushes caches into the
  ISP from the end of 2015 (Fig. 11c/f);
* **address pools** — deployments draw server addresses from
  :class:`AddressPool`\\ s; two services drawing from the same pool produce
  the *shared* addresses of Fig. 11's blue dots; pools slowly rotate
  addresses so new IPs keep appearing over the years;
* **domain evolution** — youtube.com → googlevideo.com → gvt1.com,
  akamaihd.net → fbcdn.net / cdninstagram.com (Fig. 11g-i).

IP pool sizes are scaled-down from the paper's tens of thousands by the
world's ``ip_scale`` (DESIGN.md §5); relative shapes are preserved.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.nettypes.ip import Prefix
from repro.routing import asns
from repro.routing.asns import AutonomousSystem
from repro.routing.rib import RibArchive, RibEntry, RibSnapshot
from repro.services import catalog
from repro.synthesis import curves
from repro.synthesis.curves import Curve
from repro.synthesis.studycalendar import STUDY_END, STUDY_START, study_months

D = datetime.date


@dataclass(frozen=True)
class AddressPool:
    """A rotating pool of server addresses, owned by one AS."""

    name: str
    asn: AutonomousSystem
    prefixes: Tuple[Prefix, ...]
    rotation_per_day: float = 0.3  # new addresses appearing over time

    def capacity(self) -> int:
        return sum(prefix.size() for prefix in self.prefixes)

    def nth(self, index: int) -> int:
        """The ``index``-th address of the pool (wrapping)."""
        index %= self.capacity()
        for prefix in self.prefixes:
            if index < prefix.size():
                return prefix.nth(index)
            index -= prefix.size()
        raise AssertionError("unreachable")

    def address_for(self, slot: int, day: datetime.date) -> int:
        """Address serving ``slot`` on ``day``; drifts as the pool rotates."""
        drift = int((day.toordinal() - STUDY_START.toordinal()) * self.rotation_per_day)
        return self.nth(slot + drift)

    def addresses_for(self, slots: np.ndarray, day: datetime.date) -> np.ndarray:
        """Vectorized :meth:`address_for` over an array of slots."""
        drift = int((day.toordinal() - STUDY_START.toordinal()) * self.rotation_per_day)
        indices = (np.asarray(slots, dtype=np.int64) + drift) % self.capacity()
        sizes = np.array([prefix.size() for prefix in self.prefixes], dtype=np.int64)
        bounds = np.cumsum(sizes)
        which = np.searchsorted(bounds, indices, side="right")
        networks = np.array(
            [prefix.network for prefix in self.prefixes], dtype=np.int64
        )
        return networks[which] + (indices - (bounds - sizes)[which])


@dataclass(frozen=True)
class Deployment:
    """One tier serving a service: a pool slice at a given distance."""

    name: str
    pool: AddressPool
    rtt_ms: float
    share: Curve  # fraction of the service's traffic served here
    active_slots: Curve  # distinct addresses used per day (scaled)
    domains: Tuple[Tuple[str, Curve], ...]  # weighted FQDN templates
    rtt_sigma: float = 0.08  # lognormal spread of per-flow min RTT
    slot_offset: int = 0  # region of the pool (separates co-pool tenants)

    @property
    def domain_table(self) -> Tuple[str, ...]:
        """Every name the deployment can serve under — each template's
        fills, in template order."""
        return tuple(
            name for template, _ in self.domains for name in _template_fills(template)
        )

    def domains_on(
        self, day: datetime.date, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        """``count`` domain draws at once, as ids into :attr:`domain_table`.

        A template is picked by the day's weights, then its ``{n}`` /
        ``{a}`` placeholders are drawn; no string is built per draw.
        """
        weights = [max(0.0, curve(day)) for _, curve in self.domains]
        total = sum(weights)
        if total <= 0:
            picks = np.zeros(count, dtype=np.int64)
        else:
            cumulative = np.cumsum(weights)
            picks = np.minimum(
                np.searchsorted(cumulative, rng.random(count) * total),
                len(weights) - 1,
            )
        ids = np.empty(count, dtype=np.int64)
        base = 0
        for index, (template, _) in enumerate(self.domains):
            mask = picks == index
            hits = int(np.count_nonzero(mask))
            if hits:
                ids[mask] = base + _fill_templates(template, rng, hits)
            base += _fill_count(template)
        return ids

    def sample_rtt_ms(self, rng: np.random.Generator) -> float:
        return float(self.rtt_ms * rng.lognormal(0.0, self.rtt_sigma))

    def sample_rtts_ms(
        self, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        return self.rtt_ms * rng.lognormal(0.0, self.rtt_sigma, count)


class ServerPicks(NamedTuple):
    """Servers picked for a run of flows, one entry per flow."""

    deployments: np.ndarray  # indices into the service's ``deployments``
    slots: np.ndarray  # address slots inside each deployment's pool
    names: np.ndarray  # ids into the service's ``domain_table``
    rtts_ms: np.ndarray


@dataclass(frozen=True)
class ServerChoice:
    """A concrete server picked for one flow."""

    ip: int
    domain: str
    rtt_ms: float
    asn: AutonomousSystem
    deployment: str
    pool: str


class ServiceInfrastructure:
    """The deployments of one service, with share-weighted selection."""

    def __init__(self, service: str, deployments: Sequence[Deployment]) -> None:
        if not deployments:
            raise ValueError(f"{service}: at least one deployment required")
        self.service = service
        self.deployments = tuple(deployments)
        self._layout: Optional[
            Tuple[Tuple[str, ...], Tuple[np.ndarray, ...]]
        ] = None

    def shares_on(self, day: datetime.date) -> List[Tuple[Deployment, float]]:
        weights = [
            (deployment, max(0.0, deployment.share(day)))
            for deployment in self.deployments
        ]
        total = sum(weight for _, weight in weights)
        if total <= 0.0:
            return []
        return [(deployment, weight / total) for deployment, weight in weights]

    def _domain_layout(self) -> Tuple[Tuple[str, ...], Tuple[np.ndarray, ...]]:
        """The service's domain table — the distinct names of all its
        deployments, first-appearance order — and per deployment the map
        from its own table's ids into it.  Static, so it is built on
        first use and kept."""
        if self._layout is None:
            ids: Dict[str, int] = {}
            tables = [deployment.domain_table for deployment in self.deployments]
            remaps = tuple(
                np.fromiter(
                    (ids.setdefault(name, len(ids)) for name in table),
                    np.int64,
                    len(table),
                )
                for table in tables
            )
            self._layout = (tuple(ids), remaps)
        return self._layout

    @property
    def domain_table(self) -> Tuple[str, ...]:
        """Every name the service can serve under; :meth:`pick_servers`
        returns ids into it."""
        return self._domain_layout()[0]

    def pick_server(
        self, day: datetime.date, rng: np.random.Generator
    ) -> ServerChoice:
        """One server: the one-flow call of :meth:`pick_servers`."""
        picks = self.pick_servers(day, rng, 1)
        deployment = self.deployments[int(picks.deployments[0])]
        return ServerChoice(
            ip=deployment.pool.address_for(int(picks.slots[0]), day),
            domain=self.domain_table[int(picks.names[0])],
            rtt_ms=float(picks.rtts_ms[0]),
            asn=deployment.pool.asn,
            deployment=deployment.name,
            pool=deployment.pool.name,
        )

    def pick_servers(
        self, day: datetime.date, rng: np.random.Generator, count: int
    ) -> ServerPicks:
        """Pick ``count`` servers at once, the draws grouped by deployment.

        Share weighting picks each flow's deployment; per deployment the
        address slots, the domains and the RTTs are one draw each.  What
        comes back is integers and the RTT draw — an address is derived
        from ``(deployment, slot)`` by :meth:`addresses_of` and a name is
        looked up in :attr:`domain_table`, by the caller.
        """
        shares = self.shares_on(day)
        if not shares:
            raise ValueError(f"{self.service}: no deployment active on {day}")
        cumulative = np.cumsum([share for _, share in shares])
        picks = np.minimum(
            np.searchsorted(cumulative, rng.random(count)), len(shares) - 1
        )
        slots = np.empty(count, dtype=np.int64)
        names = np.empty(count, dtype=np.int64)
        rtts = np.empty(count, dtype=np.float64)
        remaps = self._domain_layout()[1]
        for index, (deployment, _) in enumerate(shares):
            mask = picks == index
            hits = int(np.count_nonzero(mask))
            if not hits:
                continue
            active = max(1, int(deployment.active_slots(day)))
            slots[mask] = deployment.slot_offset + rng.integers(0, active, hits)
            names[mask] = remaps[index][deployment.domains_on(day, rng, hits)]
            rtts[mask] = deployment.sample_rtts_ms(rng, hits)
        return ServerPicks(picks, slots, names, rtts)

    def addresses_of(
        self, day: datetime.date, deployments: np.ndarray, slots: np.ndarray
    ) -> np.ndarray:
        """The server addresses of picked ``(deployment, slot)`` pairs."""
        ips = np.empty(slots.size, dtype=np.int64)
        for index, deployment in enumerate(self.deployments):
            mask = deployments == index
            if mask.any():
                ips[mask] = deployment.pool.addresses_for(slots[mask], day)
        return ips


#: Values a template's ``{n}`` and ``{a}`` placeholders take.
_FILL_DIGITS = "12345678"
_FILL_LETTERS = "abcdefgh"


def _fill_count(template: str) -> int:
    """How many distinct names a template fills into."""
    digits = len(_FILL_DIGITS) if "{n}" in template else 1
    letters = len(_FILL_LETTERS) if "{a}" in template else 1
    return digits * letters


def _template_fills(template: str) -> List[str]:
    """Every fill of one template, ``{n}`` major: the names that the
    positions :func:`_fill_templates` draws stand for."""
    digits = _FILL_DIGITS if "{n}" in template else ("",)
    letters = _FILL_LETTERS if "{a}" in template else ("",)
    return [
        template.replace("{n}", digit).replace("{a}", letter)
        for digit in digits
        for letter in letters
    ]


def _fill_templates(
    template: str, rng: np.random.Generator, count: int
) -> np.ndarray:
    """``count`` independent fills of one domain template, as positions
    in :func:`_template_fills`."""
    fills = np.zeros(count, dtype=np.int64)
    if "{n}" in template:
        fills = rng.integers(1, 9, count) - 1
    if "{a}" in template:
        fills = fills * len(_FILL_LETTERS) + rng.integers(0, 8, count)
    return fills


# ---------------------------------------------------------------------------
# The concrete world: pools.


def _pool(
    name: str, asn: AutonomousSystem, *prefixes: str, rotation: float = 0.3
) -> AddressPool:
    return AddressPool(
        name=name,
        asn=asn,
        prefixes=tuple(Prefix.parse(text) for text in prefixes),
        rotation_per_day=rotation,
    )


@dataclass(frozen=True)
class WorldPools:
    """Every address pool of the synthetic Internet."""

    akamai_edge: AddressPool
    akamai_metro: AddressPool
    akamai_eu: AddressPool
    telianet_eu: AddressPool
    gtt_eu: AddressPool
    us_transit: AddressPool
    facebook_cdn_edge: AddressPool
    facebook_us: AddressPool
    google_edge: AddressPool
    google_eu: AddressPool
    youtube_edge: AddressPool
    isp_cache: AddressPool
    netflix_oca: AddressPool
    whatsapp_us: AddressPool
    generic_hosting: AddressPool
    cloud_misc: AddressPool


def build_default_pools() -> WorldPools:
    return WorldPools(
        akamai_edge=_pool("akamai-edge", asns.AKAMAI, "23.192.0.0/20"),
        akamai_metro=_pool("akamai-metro", asns.AKAMAI, "2.16.0.0/20"),
        akamai_eu=_pool("akamai-eu", asns.AKAMAI, "95.100.0.0/20"),
        telianet_eu=_pool("telianet-eu", asns.TELIANET, "80.239.128.0/20"),
        gtt_eu=_pool("gtt-eu", asns.GTT, "77.67.0.0/20"),
        us_transit=_pool("us-transit", asns.LEVEL3, "8.26.0.0/20"),
        facebook_cdn_edge=_pool(
            "facebook-cdn-edge", asns.FACEBOOK, "31.13.64.0/19", rotation=0.15
        ),
        facebook_us=_pool("facebook-us", asns.FACEBOOK, "66.220.144.0/20"),
        google_edge=_pool("google-edge", asns.GOOGLE, "74.125.0.0/19"),
        google_eu=_pool("google-eu", asns.GOOGLE, "216.58.192.0/20"),
        youtube_edge=_pool(
            "youtube-edge", asns.YOUTUBE, "208.65.128.0/19", rotation=1.2
        ),
        isp_cache=_pool("isp-cache", asns.ISP, "151.99.0.0/20", rotation=0.05),
        netflix_oca=_pool("netflix-oca", asns.NETFLIX, "23.246.0.0/20"),
        whatsapp_us=_pool("whatsapp-us", asns.FACEBOOK, "158.85.224.0/20"),
        generic_hosting=_pool("generic-hosting", asns.OTHER, "104.16.0.0/18", rotation=1.0),
        cloud_misc=_pool("cloud-misc", asns.AMAZON, "52.84.0.0/20"),
    )


# ---------------------------------------------------------------------------
# The concrete world: per-service deployments.


def build_default_infrastructure(
    pools: Optional[WorldPools] = None, ip_scale: float = 0.05
) -> Dict[str, ServiceInfrastructure]:
    """The per-service deployment map (Fig. 10 and Fig. 11 ground truth).

    ``ip_scale`` scales the paper's daily-active-IP counts down to the
    synthetic population's size.
    """
    pools = pools or build_default_pools()
    s = ip_scale

    def ips(*knots: Tuple[datetime.date, float]) -> Curve:
        scaled_knots = tuple((day, max(1.0, value * s)) for day, value in knots)
        return curves.PiecewiseLinear(scaled_knots)

    infra: Dict[str, ServiceInfrastructure] = {}

    # -- Facebook: shared CDNs -> own CDN (completed end 2015) -------------
    fb_migration = curves.piecewise(
        (D(2013, 7, 1), 0.45), (D(2015, 1, 1), 0.75), (D(2015, 12, 1), 0.995), (D(2016, 7, 1), 1.0)
    )
    fb_on_akamai = curves.piecewise(
        (D(2013, 7, 1), 0.55), (D(2015, 1, 1), 0.25), (D(2015, 12, 1), 0.005), (D(2016, 7, 1), 0.0)
    )
    fb_domains_own = (
        ("www.facebook.com", curves.constant(0.3)),
        ("scontent-mxp1-{n}.fbcdn.net", curves.constant(0.5)),
        ("static.fbcdn.net", curves.constant(0.2)),
    )
    fb_domains_akamai = (
        ("fbstatic-{a}.akamaihd.net", curves.constant(0.6)),
        ("fbcdn-profile-{a}.akamaihd.net", curves.constant(0.4)),
    )
    infra[catalog.FACEBOOK] = ServiceInfrastructure(
        catalog.FACEBOOK,
        [
            Deployment(
                "fb-cdn-edge",
                pools.facebook_cdn_edge,
                rtt_ms=3.0,
                share=curves.multiplied(fb_migration, curves.piecewise((D(2013, 7, 1), 0.25), (D(2017, 12, 31), 0.85))),
                active_slots=ips((D(2013, 7, 1), 300), (D(2015, 6, 1), 800), (D(2016, 7, 1), 950), (D(2017, 12, 31), 990)),
                domains=fb_domains_own,
            ),
            Deployment(
                "fb-us",
                pools.facebook_us,
                rtt_ms=95.0,
                share=curves.multiplied(fb_migration, curves.piecewise((D(2013, 7, 1), 0.75), (D(2017, 12, 31), 0.15))),
                active_slots=ips((D(2013, 7, 1), 250), (D(2017, 12, 31), 60)),
                domains=(("www.facebook.com", curves.constant(1.0)),),
            ),
            Deployment(
                "fb-akamai-edge",
                pools.akamai_edge,
                rtt_ms=3.0,
                share=curves.multiplied(fb_on_akamai, curves.constant(0.15)),
                active_slots=ips((D(2013, 7, 1), 700), (D(2015, 6, 1), 250), (D(2016, 7, 1), 5)),
                domains=fb_domains_akamai,
            ),
            Deployment(
                "fb-akamai-metro",
                pools.akamai_metro,
                rtt_ms=10.0,
                share=curves.multiplied(fb_on_akamai, curves.constant(0.35)),
                active_slots=ips((D(2013, 7, 1), 1400), (D(2015, 6, 1), 500), (D(2016, 7, 1), 5)),
                domains=fb_domains_akamai,
            ),
            Deployment(
                "fb-akamai-eu",
                pools.akamai_eu,
                rtt_ms=22.0,
                share=curves.multiplied(fb_on_akamai, curves.constant(0.50)),
                active_slots=ips((D(2013, 7, 1), 1500), (D(2015, 6, 1), 500), (D(2016, 7, 1), 5)),
                domains=fb_domains_akamai,
            ),
        ],
    )

    # -- Instagram: Telia/GTT/Akamai -> Facebook CDN (2014 -> end 2015) ----
    ig_migrated = curves.piecewise(
        (D(2013, 7, 1), 0.0), (D(2014, 6, 1), 0.15), (D(2015, 3, 1), 0.6), (D(2015, 12, 1), 1.0)
    )
    ig_legacy = curves.piecewise(
        (D(2013, 7, 1), 1.0), (D(2014, 6, 1), 0.85), (D(2015, 3, 1), 0.4), (D(2015, 12, 1), 0.0)
    )
    ig_domains_new = (
        ("scontent-mxp1-{n}.cdninstagram.com", curves.constant(0.7)),
        ("www.instagram.com", curves.constant(0.3)),
    )
    ig_domains_old = (
        ("instagram.c10r.akamaihd.net", curves.constant(0.5)),
        ("photos-{a}.ak.instagram.com", curves.constant(0.5)),
    )
    infra[catalog.INSTAGRAM] = ServiceInfrastructure(
        catalog.INSTAGRAM,
        [
            Deployment(
                "ig-fb-cdn-edge",
                pools.facebook_cdn_edge,
                rtt_ms=3.0,
                share=curves.multiplied(ig_migrated, curves.piecewise((D(2014, 1, 1), 0.55), (D(2017, 12, 31), 0.85))),
                active_slots=ips((D(2014, 1, 1), 100), (D(2016, 1, 1), 280), (D(2017, 12, 31), 300)),
                domains=ig_domains_new,
                slot_offset=4000,  # Instagram gets its own fbcdn address range
            ),
            Deployment(
                "ig-fb-us",
                pools.facebook_us,
                rtt_ms=95.0,
                share=curves.multiplied(ig_migrated, curves.piecewise((D(2014, 1, 1), 0.45), (D(2017, 12, 31), 0.15))),
                active_slots=ips((D(2014, 1, 1), 40), (D(2017, 12, 31), 25)),
                domains=ig_domains_new,
                slot_offset=2000,
            ),
            Deployment(
                "ig-akamai-edge",
                pools.akamai_edge,
                rtt_ms=3.0,
                share=curves.multiplied(ig_legacy, curves.constant(0.10)),
                active_slots=ips((D(2013, 7, 1), 250), (D(2015, 6, 1), 60)),
                domains=ig_domains_old,
            ),
            Deployment(
                "ig-telia",
                pools.telianet_eu,
                rtt_ms=12.0,
                share=curves.multiplied(ig_legacy, curves.constant(0.35)),
                active_slots=ips((D(2013, 7, 1), 900), (D(2015, 6, 1), 200)),
                domains=ig_domains_old,
            ),
            Deployment(
                "ig-gtt",
                pools.gtt_eu,
                rtt_ms=25.0,
                share=curves.multiplied(ig_legacy, curves.constant(0.35)),
                active_slots=ips((D(2013, 7, 1), 900), (D(2015, 6, 1), 200)),
                domains=ig_domains_old,
            ),
            Deployment(
                "ig-us-transit",
                pools.us_transit,
                rtt_ms=110.0,
                share=curves.multiplied(ig_legacy, curves.constant(0.20)),
                active_slots=ips((D(2013, 7, 1), 400), (D(2015, 6, 1), 100)),
                domains=ig_domains_old,
            ),
        ],
    )

    # -- YouTube: always dedicated; ISP caches from end 2015 ----------------
    yt_domains = (
        ("www.youtube.com", curves.piecewise((D(2013, 7, 1), 1.0), (D(2014, 1, 1), 0.9), (D(2014, 7, 1), 0.15), (D(2017, 12, 31), 0.08))),
        ("r{n}---sn-ab5l6nzr.googlevideo.com", curves.launched(D(2014, 1, 10), curves.piecewise((D(2014, 1, 10), 0.1), (D(2014, 7, 1), 0.8), (D(2017, 12, 31), 0.75)))),
        ("redirector.gvt1.com", curves.launched(D(2015, 3, 1), curves.piecewise((D(2015, 3, 1), 0.02), (D(2016, 1, 1), 0.12), (D(2017, 12, 31), 0.17)))),
    )
    isp_cache_share = curves.launched(
        D(2015, 10, 1),
        curves.piecewise((D(2015, 10, 1), 0.05), (D(2016, 6, 1), 0.55), (D(2017, 12, 31), 0.80)),
    )
    infra[catalog.YOUTUBE] = ServiceInfrastructure(
        catalog.YOUTUBE,
        [
            Deployment(
                "yt-isp-cache",
                pools.isp_cache,
                rtt_ms=0.45,
                share=isp_cache_share,
                active_slots=ips((D(2015, 10, 1), 100), (D(2016, 6, 1), 12000), (D(2017, 12, 31), 30000)),
                domains=yt_domains,
                rtt_sigma=0.15,
            ),
            Deployment(
                "yt-edge",
                pools.youtube_edge,
                rtt_ms=3.0,
                share=curves.piecewise(
                    (D(2013, 7, 1), 0.80), (D(2015, 10, 1), 0.82), (D(2016, 6, 1), 0.38), (D(2017, 12, 31), 0.17)
                ),
                active_slots=ips((D(2013, 7, 1), 9000), (D(2015, 10, 1), 22000), (D(2017, 12, 31), 37000)),
                domains=yt_domains,
            ),
            Deployment(
                "yt-eu",
                pools.google_eu,
                rtt_ms=16.0,
                share=curves.piecewise((D(2013, 7, 1), 0.20), (D(2016, 6, 1), 0.07), (D(2017, 12, 31), 0.03)),
                active_slots=ips((D(2013, 7, 1), 1500), (D(2017, 12, 31), 900)),
                domains=yt_domains,
            ),
        ],
    )

    # -- Google search: 3 ms edge, no in-PoP penetration --------------------
    google_domains = (
        ("www.google.com", curves.constant(0.6)),
        ("www.google.it", curves.constant(0.25)),
        ("ssl.gstatic.com", curves.constant(0.15)),
    )
    infra[catalog.GOOGLE] = ServiceInfrastructure(
        catalog.GOOGLE,
        [
            Deployment(
                "google-edge",
                pools.google_edge,
                rtt_ms=3.2,
                share=curves.piecewise((D(2013, 7, 1), 0.55), (D(2017, 12, 31), 0.85)),
                active_slots=ips((D(2013, 7, 1), 800), (D(2017, 12, 31), 1500)),
                domains=google_domains,
            ),
            Deployment(
                "google-eu",
                pools.google_eu,
                rtt_ms=16.0,
                share=curves.piecewise((D(2013, 7, 1), 0.45), (D(2017, 12, 31), 0.15)),
                active_slots=ips((D(2013, 7, 1), 700), (D(2017, 12, 31), 400)),
                domains=google_domains,
            ),
        ],
    )

    # -- Netflix: OCAs reach the edge with the UHD era ----------------------
    infra[catalog.NETFLIX] = ServiceInfrastructure(
        catalog.NETFLIX,
        [
            Deployment(
                "nflx-oca-edge",
                pools.netflix_oca,
                rtt_ms=3.5,
                share=curves.launched(D(2015, 10, 22), curves.piecewise((D(2015, 10, 22), 0.4), (D(2017, 12, 31), 0.85))),
                active_slots=ips((D(2015, 10, 22), 100), (D(2017, 12, 31), 600)),
                domains=(
                    ("ipv4-c{n}-mxp001.nflxvideo.net", curves.constant(0.85)),
                    ("www.netflix.com", curves.constant(0.15)),
                ),
            ),
            Deployment(
                "nflx-eu",
                pools.cloud_misc,
                rtt_ms=28.0,
                share=curves.launched(D(2015, 10, 22), curves.piecewise((D(2015, 10, 22), 0.6), (D(2017, 12, 31), 0.15))),
                active_slots=ips((D(2015, 10, 22), 150), (D(2017, 12, 31), 80)),
                domains=(("www.netflix.com", curves.constant(1.0)),),
            ),
        ],
    )

    # -- WhatsApp: the centralized hold-out (Fig. 10 discussion) ------------
    infra[catalog.WHATSAPP] = ServiceInfrastructure(
        catalog.WHATSAPP,
        [
            Deployment(
                "wa-us",
                pools.whatsapp_us,
                rtt_ms=104.0,
                share=curves.constant(1.0),
                active_slots=ips((D(2013, 7, 1), 150), (D(2017, 12, 31), 400)),
                domains=(
                    ("e{n}.whatsapp.net", curves.constant(0.8)),
                    ("www.whatsapp.com", curves.constant(0.2)),
                ),
            )
        ],
    )

    # -- The residual web: generic hosting + shared Akamai + cloud ----------
    infra[catalog.OTHER] = ServiceInfrastructure(
        catalog.OTHER,
        [
            Deployment(
                "web-hosting",
                pools.generic_hosting,
                rtt_ms=30.0,
                share=curves.constant(0.55),
                active_slots=ips((D(2013, 7, 1), 8000), (D(2017, 12, 31), 15000)),
                domains=(("site-{n}.example-web.com", curves.constant(1.0)),),
                rtt_sigma=0.5,
            ),
            Deployment(
                "web-akamai-edge",
                pools.akamai_edge,
                rtt_ms=3.0,
                share=curves.piecewise((D(2013, 7, 1), 0.15), (D(2017, 12, 31), 0.25)),
                active_slots=ips((D(2013, 7, 1), 1200), (D(2017, 12, 31), 2500)),
                domains=(("cdn-{n}.akamaihd.net", curves.constant(1.0)),),
            ),
            Deployment(
                "web-akamai-metro",
                pools.akamai_metro,
                rtt_ms=10.0,
                share=curves.constant(0.10),
                active_slots=ips((D(2013, 7, 1), 1200), (D(2017, 12, 31), 1800)),
                domains=(("cdn-{n}.akamaihd.net", curves.constant(1.0)),),
            ),
            Deployment(
                "web-cloud",
                pools.cloud_misc,
                rtt_ms=24.0,
                share=curves.piecewise((D(2013, 7, 1), 0.10), (D(2017, 12, 31), 0.20)),
                active_slots=ips((D(2013, 7, 1), 800), (D(2017, 12, 31), 2600)),
                domains=(("d{n}.cloudfront-like.net", curves.constant(1.0)),),
                rtt_sigma=0.3,
            ),
        ],
    )

    # -- Everything else: generic hosting with a service-branded domain -----
    generic_services = {
        catalog.BING: "www.bing.com",
        catalog.DUCKDUCKGO: "duckduckgo.com",
        catalog.TWITTER: "abs.twimg.com",
        catalog.LINKEDIN: "static.licdn.com",
        catalog.ADULT: "cdn{n}.phncdn.com",
        catalog.SPOTIFY: "audio-fa.scdn.co",
        catalog.SKYPE: "a.config.skype.com",
        catalog.TELEGRAM: "core.t.me",
        catalog.SNAPCHAT: "app.snapchat.com",
        catalog.AMAZON: "images-eu.ssl-images-amazon.com",
        catalog.EBAY: "i.ebayimg.ebaystatic.com",
        catalog.PEER_TO_PEER: "",  # peers have no domain
    }
    for service, domain in generic_services.items():
        infra[service] = ServiceInfrastructure(
            service,
            [
                Deployment(
                    f"{service.lower()}-hosting",
                    pools.generic_hosting if service != catalog.PEER_TO_PEER else pools.us_transit,
                    rtt_ms=35.0 if service != catalog.PEER_TO_PEER else 60.0,
                    share=curves.constant(1.0),
                    active_slots=ips((D(2013, 7, 1), 300), (D(2017, 12, 31), 600)),
                    domains=((domain or "peer.invalid", curves.constant(1.0)),),
                    rtt_sigma=0.4,
                )
            ],
        )
    return infra


# ---------------------------------------------------------------------------
# RIB emission: monthly snapshots covering every pool.


def build_rib_archive(
    pools: Optional[WorldPools] = None,
    start: datetime.date = STUDY_START,
    end: datetime.date = STUDY_END,
) -> RibArchive:
    """Monthly RIB snapshots mapping every pool prefix to its origin AS."""
    pools = pools or build_default_pools()
    pool_list: List[AddressPool] = [
        getattr(pools, field_name) for field_name in pools.__dataclass_fields__
    ]
    archive = RibArchive()
    for month in study_months(start, end):
        entries = [
            RibEntry(prefix=prefix, origin=pool.asn.number)
            for pool in pool_list
            for prefix in pool.prefixes
        ]
        archive.add(RibSnapshot(month, entries))
    return archive

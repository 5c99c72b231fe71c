"""Infrastructure-evolution analytics (Fig. 11).

Three views per service, all computed from flow records:

* **server addresses per day** (Fig. 11a-c): distinct server IPs contacted
  for the service, split into *dedicated* (seen only for this service that
  day) and *shared* (also seen serving other services);
* **ASN breakdown** (Fig. 11d-f): the same addresses joined against the
  monthly RIB archive;
* **domain shares** (Fig. 11g-i): traffic per second-level domain.

Every job has one columnar body over a
:class:`~repro.tstat.flowbatch.FlowBatch` and first normalises what it is
handed with :meth:`FlowBatch.of` — a batch passes through, a lake block is
adopted, a :class:`FlowRecord` list is turned into columns.  Callers that
run several jobs over the same day normalise once themselves and pass the
batch's shared :class:`BatchServiceView` via ``codes=`` so classification
happens exactly once per batch.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.routing.asns import by_number
from repro.routing.rib import RibArchive
from repro.services.rules import RuleSet
from repro.tstat.flow import FlowRecord
from repro.tstat.flowbatch import BatchServiceView, FlowBatch


def _service_addresses(
    flows: Iterable[FlowRecord],
    rules: RuleSet,
    service: str,
    codes: Optional[BatchServiceView],
) -> np.ndarray:
    """The distinct server addresses of a service's flows, ascending."""
    batch, view = FlowBatch.classified(flows, rules, codes)
    return np.unique(batch.columns["server_ip"][view.flow_mask(service)])


@dataclass(frozen=True)
class DailyServerStats:
    """Fig. 11 top row: one service's server-address census for one day."""

    day: datetime.date
    service: str
    dedicated_ips: int
    shared_ips: int

    @property
    def total_ips(self) -> int:
        return self.dedicated_ips + self.shared_ips


@dataclass(frozen=True)
class ServicePairs:
    """One day's distinct (server IP, service) pairs with the sharing rule.

    The single home of Fig. 11's dedicated/shared split: ``shared[i]`` is
    True when ``ips[i]`` also served some other service (including the
    unnamed rest) that day.  Pairs from disjoint flow subsets — the
    shards of a day — :meth:`union` into the whole day's pairs, where the
    flag is recomputed (an address dedicated within one shard may be
    shared across shards).
    """

    ips: np.ndarray
    codes: np.ndarray  # indices into ``services``
    shared: np.ndarray
    services: Tuple[str, ...]

    @classmethod
    def distinct(
        cls, ips: np.ndarray, codes: np.ndarray, services: Tuple[str, ...]
    ) -> "ServicePairs":
        """Deduplicate per-flow (ip, code) columns and flag shared addresses."""
        if ips.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return cls(empty, empty, np.zeros(0, dtype=bool), services)
        # One int64 key per pair sorts as (ip, code) does: a 32-bit address
        # times a handful of services stays far inside 63 bits.  The two
        # results stay columns of one (pairs, 2) array, as the stacked
        # dedup left them: a shard's sidecar pickles them, and NumPy
        # pickles a strided view and a contiguous array differently.
        keys = np.unique(ips.astype(np.int64) * len(services) + codes)
        pair_ips, pair_codes = np.column_stack(np.divmod(keys, len(services))).T
        # Pairs are distinct, so each IP's multiplicity is its service count.
        _, inverse, counts = np.unique(
            pair_ips, return_inverse=True, return_counts=True
        )
        return cls(pair_ips, pair_codes, counts[inverse] > 1, services)

    @classmethod
    def union(
        cls, parts: Iterable[Tuple[np.ndarray, np.ndarray, Tuple[str, ...]]]
    ) -> "ServicePairs":
        """Merge ``(ips, codes, services)`` parts onto one service table."""
        code_of: Dict[str, int] = {}
        ips: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
        codes: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
        for part_ips, part_codes, part_services in parts:
            remap = np.fromiter(
                (code_of.setdefault(name, len(code_of)) for name in part_services),
                np.int64,
                len(part_services),
            )
            ips.append(part_ips)
            codes.append(remap[part_codes])
        return cls.distinct(np.concatenate(ips), np.concatenate(codes), tuple(code_of))

    def _member(self, service: str) -> np.ndarray:
        if service not in self.services:
            return np.zeros(self.codes.shape, dtype=bool)
        return self.codes == self.services.index(service)

    def census(self, day: datetime.date, service: str) -> DailyServerStats:
        member = self._member(service)
        shared_ips = int(np.count_nonzero(self.shared & member))
        return DailyServerStats(
            day=day,
            service=service,
            dedicated_ips=int(np.count_nonzero(member)) - shared_ips,
            shared_ips=shared_ips,
        )

    def roles(self, service: str) -> Dict[int, bool]:
        """The service's addresses of the day → shared?"""
        member = self._member(service)
        return dict(zip(self.ips[member].tolist(), self.shared[member].tolist()))

    def addresses(self, service: str) -> List[int]:
        """The service's distinct addresses, ascending."""
        return self.ips[self._member(service)].tolist()


def ip_service_pairs(
    flows: Iterable[FlowRecord],
    rules: RuleSet,
    codes: Optional[BatchServiceView] = None,
) -> ServicePairs:
    """The flows' distinct (server IP, service) pairs."""
    batch, view = FlowBatch.classified(flows, rules, codes)
    return ServicePairs.distinct(
        batch.columns["server_ip"], view.flow_codes, view.services
    )


def daily_server_census(
    flows: Iterable[FlowRecord],
    rules: RuleSet,
    services: List[str],
    day: datetime.date,
    codes: Optional[BatchServiceView] = None,
) -> List[DailyServerStats]:
    """Distinct per-service server IPs for one day, shared vs dedicated.

    An address is *shared* if, on the same day, it also served traffic
    classified to any other service (including the unnamed rest).
    """
    pairs = ip_service_pairs(flows, rules, codes)
    return [pairs.census(day, service) for service in services]


@dataclass(frozen=True)
class AsnBreakdown:
    """Fig. 11 middle row: per-day share of a service's IPs per AS name."""

    day: datetime.date
    service: str
    counts: Dict[str, int]

    def share(self, asn_name: str) -> float:
        total = sum(self.counts.values())
        if total == 0:
            return 0.0
        return self.counts.get(asn_name, 0) / total

    def dominant(self) -> Optional[str]:
        if not self.counts:
            return None
        return max(self.counts, key=lambda name: self.counts[name])


def asn_breakdown(
    flows: Iterable[FlowRecord],
    rules: RuleSet,
    rib: RibArchive,
    service: str,
    day: datetime.date,
    top_asns: Optional[List[str]] = None,
    codes: Optional[BatchServiceView] = None,
) -> AsnBreakdown:
    """Join a service's daily server IPs against the monthly RIB."""
    addresses = _service_addresses(flows, rules, service, codes)
    return asn_of_addresses(addresses, rib, service, day, top_asns)


def asn_of_addresses(
    addresses: Iterable[int],
    rib: RibArchive,
    service: str,
    day: datetime.date,
    top_asns: Optional[List[str]] = None,
) -> AsnBreakdown:
    """Count a service's (distinct, ordered) addresses per origin AS name.

    One array join against the day's RIB snapshot; ``counts`` lists the
    names in first-appearance order over the addresses.
    """
    origins = rib.origins_of(np.fromiter(addresses, dtype=np.int64), day)
    numbers, first, hits = np.unique(origins, return_index=True, return_counts=True)
    counts: Dict[str, int] = {}
    for index in np.argsort(first).tolist():
        name = by_number(int(numbers[index])).name
        if top_asns is not None and name not in top_asns:
            name = "OTHER"
        counts[name] = counts.get(name, 0) + int(hits[index])
    return AsnBreakdown(day=day, service=service, counts=counts)


def domain_shares(
    flows: Iterable[FlowRecord],
    rules: RuleSet,
    service: str,
    codes: Optional[BatchServiceView] = None,
) -> Dict[str, float]:
    """Fig. 11 bottom row: traffic share per second-level domain."""
    return shares_from_totals(domain_byte_totals(flows, rules, service, codes))


def domain_byte_totals(
    flows: Iterable[FlowRecord],
    rules: RuleSet,
    service: str,
    codes: Optional[BatchServiceView] = None,
) -> Dict[str, int]:
    """Integer byte totals per second-level domain for one service.

    The additive core of :func:`domain_shares`: totals sum exactly across
    disjoint flow subsets, so shard partials carry these and the fan-in
    divides once over the merged day (shares themselves do not compose).
    Byte sums stay integral (``np.add.at`` on an int64 accumulator), so
    the share divisions are exact int/int divisions — identical floats,
    any input order.  Zero-byte flows still claim their SLD; unnamed flows
    claim none.
    """
    batch, view = FlowBatch.classified(flows, rules, codes)
    mask = view.flow_mask(service)
    if not mask.any():
        return {}
    slds, sld_of_name = batch.sld_table()
    sld_ids = sld_of_name[batch.columns["server_name"][mask]]
    named = sld_ids >= 0
    sld_ids = sld_ids[named]
    if sld_ids.size == 0:
        return {}
    volumes = batch.total_bytes[mask][named]
    totals = np.zeros(len(slds), dtype=np.int64)
    np.add.at(totals, sld_ids, volumes)
    return {
        slds[sld_id]: int(totals[sld_id])
        for sld_id in np.unique(sld_ids).tolist()
    }


def shares_from_totals(totals: Dict[str, int]) -> Dict[str, float]:
    """Divide SLD byte totals into shares (int/int division, exact)."""
    total = sum(totals.values())
    if total == 0:
        return {}
    return {domain: volume / total for domain, volume in totals.items()}


@dataclass(frozen=True)
class InfrastructureTimeline:
    """The assembled Fig. 11 panels for one service."""

    service: str
    census: List[DailyServerStats]
    asn: List[AsnBreakdown]
    domains: List[Tuple[datetime.date, Dict[str, float]]]

    def ip_count_series(self) -> List[Tuple[datetime.date, int]]:
        return [(entry.day, entry.total_ips) for entry in self.census]

    def shared_share_series(self) -> List[Tuple[datetime.date, float]]:
        series = []
        for entry in self.census:
            if entry.total_ips:
                series.append((entry.day, entry.shared_ips / entry.total_ips))
        return series

    def cumulative_unique_ips(
        self, daily_ip_sets: List[Tuple[datetime.date, Set[int]]]
    ) -> List[Tuple[datetime.date, int]]:
        """Cumulative distinct addresses over time ("new IPs keep appearing")."""
        seen: Set[int] = set()
        series = []
        for day, addresses in sorted(daily_ip_sets, key=lambda pair: pair[0]):
            seen.update(addresses)
            series.append((day, len(seen)))
        return series


def service_ip_set(
    flows: Iterable[FlowRecord],
    rules: RuleSet,
    service: str,
    codes: Optional[BatchServiceView] = None,
) -> Set[int]:
    """All server addresses of a service in a flow set."""
    return set(_service_addresses(flows, rules, service, codes).tolist())


def daily_ip_roles(
    flows: Iterable[FlowRecord],
    rules: RuleSet,
    services: List[str],
    day: datetime.date,
    codes: Optional[BatchServiceView] = None,
) -> Dict[str, Dict[int, bool]]:
    """Per service: its addresses of the day, flagged shared (True) or not.

    This is the raw material of Fig. 11's top panels: each (ip, day) cell
    is a red dot (dedicated) or a blue dot (also served another service).
    """
    pairs = ip_service_pairs(flows, rules, codes)
    return {service: pairs.roles(service) for service in services}


@dataclass(frozen=True)
class IpRaster:
    """Fig. 11 top panel: servers (rows, by first appearance) × days.

    ``cells[row][column]`` is 0 (absent), 1 (dedicated) or 2 (shared).
    """

    service: str
    days: Tuple[datetime.date, ...]
    addresses: Tuple[int, ...]  # sorted by first appearance
    cells: Tuple[Tuple[int, ...], ...]

    ABSENT = 0
    DEDICATED = 1
    SHARED = 2

    def appearance_counts(self) -> List[Tuple[datetime.date, int]]:
        """New addresses first seen on each day (cumulative growth driver)."""
        counts: Dict[datetime.date, int] = {day: 0 for day in self.days}
        for row in range(len(self.addresses)):
            for column, day in enumerate(self.days):
                if self.cells[row][column] != self.ABSENT:
                    counts[day] += 1
                    break
        return [(day, counts[day]) for day in self.days]


def build_ip_raster(
    service: str,
    daily_roles: List[Tuple[datetime.date, Dict[int, bool]]],
) -> IpRaster:
    """Assemble the raster from per-day (address → shared?) maps."""
    ordered = sorted(daily_roles, key=lambda pair: pair[0])
    days = tuple(day for day, _ in ordered)
    first_seen: Dict[int, int] = {}
    for column, (_, roles) in enumerate(ordered):
        for address in roles:
            first_seen.setdefault(address, column)
    addresses = tuple(
        sorted(first_seen, key=lambda address: (first_seen[address], address))
    )
    index_of = {address: row for row, address in enumerate(addresses)}
    cells = [[IpRaster.ABSENT] * len(days) for _ in addresses]
    for column, (_, roles) in enumerate(ordered):
        for address, shared in roles.items():
            cells[index_of[address]][column] = (
                IpRaster.SHARED if shared else IpRaster.DEDICATED
            )
    return IpRaster(
        service=service,
        days=days,
        addresses=addresses,
        cells=tuple(tuple(row) for row in cells),
    )

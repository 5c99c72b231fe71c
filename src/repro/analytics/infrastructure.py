"""Infrastructure-evolution analytics (Fig. 11).

Three views per service, all computed from flow records:

* **server addresses per day** (Fig. 11a-c): distinct server IPs contacted
  for the service, split into *dedicated* (seen only for this service that
  day) and *shared* (also seen serving other services);
* **ASN breakdown** (Fig. 11d-f): the same addresses joined against the
  monthly RIB archive;
* **domain shares** (Fig. 11g-i): traffic per second-level domain.

Every job accepts either a :class:`FlowRecord` iterable (row path) or a
columnar :class:`~repro.tstat.flowbatch.FlowBatch` (vectorized path); the
two produce identical results.  Batch callers that run several jobs over
the same day pass the shared :class:`BatchServiceView` via ``codes=`` so
classification happens exactly once per batch.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from repro.analytics.aggregate import classify_flow
from repro.routing.rib import RibArchive
from repro.services.rules import RuleSet
from repro.tstat.flow import FlowRecord, second_level_domain
from repro.tstat.flowbatch import BatchServiceView, FlowBatch

#: Every stage-1 flow analytic accepts rows or a columnar batch.
Flows = Union[FlowBatch, Iterable[FlowRecord]]


def _batch_view(
    batch: FlowBatch, rules: RuleSet, codes: Optional[BatchServiceView]
) -> BatchServiceView:
    """The caller-shared classification, or one computed (and memoized) now."""
    return codes if codes is not None else batch.service_view(rules)


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
        pairs = np.unique(np.stack((ips, codes)), axis=1)
        # Pairs are distinct, so each IP's multiplicity is its service count.
        _, inverse, counts = np.unique(
            pairs[0], return_inverse=True, return_counts=True
        )
        return cls(pairs[0], pairs[1], counts[inverse] > 1, services)

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
    batch: FlowBatch,
    rules: RuleSet,
    codes: Optional[BatchServiceView] = None,
) -> ServicePairs:
    """The batch's distinct (server IP, service) pairs."""
    view = _batch_view(batch, rules, codes)
    return ServicePairs.distinct(batch.server_ip, view.flow_codes, view.services)


def daily_server_census(
    flows: Flows,
    rules: RuleSet,
    services: List[str],
    day: datetime.date,
    codes: Optional[BatchServiceView] = None,
) -> List[DailyServerStats]:
    """Distinct per-service server IPs for one day, shared vs dedicated.

    An address is *shared* if, on the same day, it also served traffic
    classified to any other service (including the unnamed rest).
    """
    if isinstance(flows, FlowBatch):
        pairs = ip_service_pairs(flows, rules, codes)
        return [pairs.census(day, service) for service in services]
    ips_by_service: Dict[str, Set[int]] = {service: set() for service in services}
    services_by_ip: Dict[int, Set[str]] = {}
    for record in flows:
        service = classify_flow(record, rules)
        services_by_ip.setdefault(record.server_ip, set()).add(service)
        if service in ips_by_service:
            ips_by_service[service].add(record.server_ip)
    stats = []
    for service in services:
        dedicated = 0
        shared = 0
        for address in ips_by_service[service]:
            if len(services_by_ip[address]) > 1:
                shared += 1
            else:
                dedicated += 1
        stats.append(
            DailyServerStats(
                day=day, service=service, dedicated_ips=dedicated, shared_ips=shared
            )
        )
    return stats


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
    flows: Flows,
    rules: RuleSet,
    rib: RibArchive,
    service: str,
    day: datetime.date,
    top_asns: Optional[List[str]] = None,
    codes: Optional[BatchServiceView] = None,
) -> AsnBreakdown:
    """Join a service's daily server IPs against the monthly RIB."""
    ordered: List[int]
    if isinstance(flows, FlowBatch):
        view = _batch_view(flows, rules, codes)
        ordered = np.unique(flows.server_ip[view.flow_mask(service)]).tolist()
    else:
        addresses: Set[int] = set()
        for record in flows:
            if classify_flow(record, rules) == service:
                addresses.add(record.server_ip)
        ordered = sorted(addresses)
    return asn_of_addresses(ordered, rib, service, day, top_asns)


def asn_of_addresses(
    addresses: Iterable[int],
    rib: RibArchive,
    service: str,
    day: datetime.date,
    top_asns: Optional[List[str]] = None,
) -> AsnBreakdown:
    """Count a service's (distinct, ordered) addresses per origin AS name."""
    counts: Dict[str, int] = {}
    for address in addresses:
        name = rib.origin_of(address, day).name
        if top_asns is not None and name not in top_asns:
            name = "OTHER"
        counts[name] = counts.get(name, 0) + 1
    return AsnBreakdown(day=day, service=service, counts=counts)


def domain_shares(
    flows: Flows,
    rules: RuleSet,
    service: str,
    codes: Optional[BatchServiceView] = None,
) -> Dict[str, float]:
    """Fig. 11 bottom row: traffic share per second-level domain."""
    if isinstance(flows, FlowBatch):
        return _domain_shares_batch(flows, rules, service, codes)
    volumes: Dict[str, int] = {}
    total = 0
    for record in flows:
        if classify_flow(record, rules) != service:
            continue
        if not record.server_name:
            continue
        sld = second_level_domain(record.server_name)
        volumes[sld] = volumes.get(sld, 0) + record.total_bytes
        total += record.total_bytes
    if total == 0:
        return {}
    return {domain: volume / total for domain, volume in volumes.items()}


def domain_byte_totals(
    batch: FlowBatch,
    rules: RuleSet,
    service: str,
    codes: Optional[BatchServiceView] = None,
) -> Dict[str, int]:
    """Integer byte totals per second-level domain for one service.

    The additive core of :func:`domain_shares`: totals sum exactly across
    disjoint flow subsets, so shard partials carry these and the fan-in
    divides once over the merged day (shares themselves do not compose).
    Zero-byte flows still claim their SLD, matching the row path's dict.
    """
    view = _batch_view(batch, rules, codes)
    mask = view.flow_mask(service)
    if not mask.any():
        return {}
    slds, sld_of_name = batch.sld_table()
    sld_ids = sld_of_name[batch.name_id[mask]]
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


def _domain_shares_batch(
    batch: FlowBatch,
    rules: RuleSet,
    service: str,
    codes: Optional[BatchServiceView],
) -> Dict[str, float]:
    """Vectorized domain shares: group int64 byte totals by interned SLD.

    Byte sums stay integral (``np.add.at`` on an int64 accumulator), so the
    final share divisions are the same exact int/int divisions the row path
    performs — identical floats, any input order.
    """
    return shares_from_totals(domain_byte_totals(batch, rules, service, codes))


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
    flows: Flows,
    rules: RuleSet,
    service: str,
    codes: Optional[BatchServiceView] = None,
) -> Set[int]:
    """All server addresses of a service in a flow set."""
    if isinstance(flows, FlowBatch):
        view = _batch_view(flows, rules, codes)
        return set(np.unique(flows.server_ip[view.flow_mask(service)]).tolist())
    return {
        record.server_ip
        for record in flows
        if classify_flow(record, rules) == service
    }


def daily_ip_roles(
    flows: Flows,
    rules: RuleSet,
    services: List[str],
    day: datetime.date,
    codes: Optional[BatchServiceView] = None,
) -> Dict[str, Dict[int, bool]]:
    """Per service: its addresses of the day, flagged shared (True) or not.

    This is the raw material of Fig. 11's top panels: each (ip, day) cell
    is a red dot (dedicated) or a blue dot (also served another service).
    """
    if isinstance(flows, FlowBatch):
        pairs = ip_service_pairs(flows, rules, codes)
        return {service: pairs.roles(service) for service in services}
    services_by_ip: Dict[int, Set[str]] = {}
    for record in flows:
        service = classify_flow(record, rules)
        services_by_ip.setdefault(record.server_ip, set()).add(service)
    roles: Dict[str, Dict[int, bool]] = {service: {} for service in services}
    for address, owners in services_by_ip.items():
        shared = len(owners) > 1
        for service in owners:
            if service in roles:
                roles[service][address] = shared
    return roles


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

"""The longitudinal study: one pass over five years of measurements.

:class:`LongitudinalStudy` reproduces the paper's methodology end to end:
the world model plays the role of the monitored links, the traffic
generator that of the probes' daily exports, and a single streaming pass
runs every stage-1 aggregation job, retaining only the per-day reductions
each figure needs (Section 2.2's "update predefined analytics
continuously").  Figure modules under :mod:`repro.figures` are pure
stage-2 computations over the resulting :class:`StudyData`.
"""

from __future__ import annotations

import bisect
import datetime
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analytics import rtt as rtt_analytics
from repro.analytics.activity import SubscriberDay, group_rows, subscriber_days
from repro.analytics.infrastructure import (
    AsnBreakdown,
    DailyServerStats,
    ServicePairs,
    asn_of_addresses,
    domain_byte_totals,
    ip_service_pairs,
    service_ip_set,
    shares_from_totals,
)
from repro.analytics.popularity import (
    DailyServiceStats,
    daily_service_stats,
    visit_rows,
)
from repro.analytics.timeseries import Month
from repro.core.config import COMPARISON_MONTHS, StudyConfig
from repro.core.shards import ShardExtra, ShardSpec, plan_shards, task_attrs
from repro.dataflow.columnar import ColumnBatch
from repro.dataflow.datalake import month_days
from repro.routing.rib import RibArchive
from repro.services import catalog
from repro.services.rules import RuleSet
from repro.services.thresholds import ActiveSubscriberCriterion, VisitClassifier
from repro.synthesis.flowgen import (
    USAGE_CODEC,
    DailyUsage,
    DayTraffic,
    HourlyVolume,
    ProtocolUsage,
    TrafficGenerator,
)
from repro.synthesis.population import Technology
from repro.synthesis.studycalendar import study_days, study_months
from repro.synthesis.world import World
from repro.telemetry import runtime as telemetry

#: Services whose infrastructure Fig. 11 tracks.
INFRA_SERVICES = (catalog.FACEBOOK, catalog.INSTAGRAM, catalog.YOUTUBE)

#: Services whose RTT Fig. 10 tracks (plus WhatsApp for the §6.1 aside).
RTT_SERVICES = (
    catalog.FACEBOOK,
    catalog.INSTAGRAM,
    catalog.YOUTUBE,
    catalog.GOOGLE,
    catalog.WHATSAPP,
)


class MergeOverlapError(ValueError):
    """Two partials claim a key that merge requires to be disjoint.

    ``dict.update`` would silently drop one side's rows; with shard
    fan-ins feeding :meth:`StudyData.merge` that would discard whole
    shards of data, so the overlap is now a hard error naming the
    colliding key.
    """

    def __init__(self, field_name: str, key: object) -> None:
        self.field_name = field_name
        self.key = key
        super().__init__(
            f"merge overlap in {field_name}: key {key!r} present in both partials"
        )


@dataclass
class StudyData:
    """Everything the figures need, reduced per day during the single pass."""

    months: List[Month] = field(default_factory=list)
    #: day → per-subscriber totals with the activity flag.
    subscriber_days: Dict[datetime.date, List[SubscriberDay]] = field(
        default_factory=dict
    )
    #: per-(day, service, technology) popularity/volume cells.
    service_stats: List[DailyServiceStats] = field(default_factory=list)
    #: per-(day, service, reported protocol) byte totals.
    protocol_rows: List[ProtocolUsage] = field(default_factory=list)
    #: 10-minute-bin volumes for the comparison months.
    hourly: List[HourlyVolume] = field(default_factory=list)
    #: Fig. 11 top: per-day census for the tracked services.
    census: List[DailyServerStats] = field(default_factory=list)
    #: Fig. 11 middle: per-day ASN breakdowns.
    asn: List[AsnBreakdown] = field(default_factory=list)
    #: Fig. 11 bottom: per-day domain shares, keyed (day, service).
    domains: List[Tuple[datetime.date, str, Dict[str, float]]] = field(
        default_factory=list
    )
    #: Fig. 11 cumulative growth: per-day server-IP sets per service.
    daily_ip_sets: Dict[str, List[Tuple[datetime.date, Set[int]]]] = field(
        default_factory=dict
    )
    #: Fig. 11 top panels: per-day (address → shared?) maps per service.
    daily_ip_roles: Dict[
        str, List[Tuple[datetime.date, Dict[int, bool]]]
    ] = field(default_factory=dict)
    #: (service, year) → per-flow min-RTT samples of that April.
    rtt_samples: Dict[Tuple[str, int], List[float]] = field(default_factory=dict)
    #: days expanded to the flow tier.
    flow_days: List[datetime.date] = field(default_factory=list)
    #: §4.3 extension: (iso-year, iso-week, service, technology) → visitors,
    #: tracked inside the full-resolution comparison months only.
    weekly_visitors: Dict[
        Tuple[int, int, str, Technology], Set[int]
    ] = field(default_factory=dict)
    #: (iso-year, iso-week, technology) → active subscribers that week.
    weekly_active: Dict[Tuple[int, int, Technology], Set[int]] = field(
        default_factory=dict
    )

    def stats_for(
        self,
        service: str,
        technology: Optional[Technology] = None,
    ) -> List[DailyServiceStats]:
        """Cells of one service; merged across technologies when None."""
        if technology is not None:
            return [
                cell
                for cell in self.service_stats
                if cell.service == service and cell.technology is technology
            ]
        merged: Dict[datetime.date, DailyServiceStats] = {}
        for cell in self.service_stats:
            if cell.service != service:
                continue
            if cell.day in merged:
                merged[cell.day] = merged[cell.day].merged(cell)
            else:
                merged[cell.day] = cell
        return [merged[day] for day in sorted(merged)]

    def all_subscriber_days(self) -> List[SubscriberDay]:
        rows: List[SubscriberDay] = []
        for day in sorted(self.subscriber_days):
            rows.extend(self.subscriber_days[day])
        return rows

    def merge(self, other: "StudyData") -> None:
        """Fold another partial result in (disjoint day sets enforced).

        ``weekly_visitors`` / ``weekly_active`` keys legitimately repeat
        across partials (one ISO week spans several days) and are
        unioned; ``subscriber_days`` keys must be disjoint and raise
        :class:`MergeOverlapError` when they collide.
        """
        if self.months and other.months and self.months != other.months:
            raise ValueError("cannot merge studies with different spans")
        if not self.months:
            self.months = list(other.months)
        overlap = self.subscriber_days.keys() & other.subscriber_days.keys()
        if overlap:
            raise MergeOverlapError("subscriber_days", min(overlap).isoformat())
        self.subscriber_days.update(other.subscriber_days)
        self.service_stats.extend(other.service_stats)
        self.protocol_rows.extend(other.protocol_rows)
        self.hourly.extend(other.hourly)
        self.census.extend(other.census)
        self.asn.extend(other.asn)
        self.domains.extend(other.domains)
        for service, entries in other.daily_ip_sets.items():
            self.daily_ip_sets.setdefault(service, []).extend(entries)
        for service, role_entries in other.daily_ip_roles.items():
            self.daily_ip_roles.setdefault(service, []).extend(role_entries)
        for key, samples in other.rtt_samples.items():
            self.rtt_samples.setdefault(key, []).extend(samples)
        # Insertion keeps flow_days sorted without re-sorting the whole
        # list on every one of the k partial merges (was O(k·n log n)).
        for day in other.flow_days:
            bisect.insort(self.flow_days, day)
        for key, visitors in other.weekly_visitors.items():
            self.weekly_visitors.setdefault(key, set()).update(visitors)
        for key, active in other.weekly_active.items():
            self.weekly_active.setdefault(key, set()).update(active)

    def weekly_reach(
        self, service: str, technology: Technology, year: int
    ) -> Optional[float]:
        """Mean fraction of weekly-active subscribers visiting ``service``
        at least once per week (weeks of the comparison month of ``year``)."""
        ratios: List[float] = []
        for (iso_year, iso_week, tech), active in self.weekly_active.items():
            if iso_year != year or tech is not technology or not active:
                continue
            visitors = self.weekly_visitors.get(
                (iso_year, iso_week, service, tech), set()
            )
            ratios.append(len(visitors) / len(active))
        if not ratios:
            return None
        # fsum: the mean must not depend on weekly_active iteration order.
        return math.fsum(ratios) / len(ratios)


class LongitudinalStudy:
    """Runs the five-year measurement + stage-1 pipeline."""

    def __init__(
        self,
        config: Optional[StudyConfig] = None,
        rules: Optional[RuleSet] = None,
        visit_classifier: Optional[VisitClassifier] = None,
        criterion: Optional[ActiveSubscriberCriterion] = None,
    ) -> None:
        self.config = config or StudyConfig()
        self.world = World(self.config.world)
        self.generator = TrafficGenerator(self.world)
        self.rules = rules or catalog.default_ruleset()
        self.visit_classifier = visit_classifier or VisitClassifier()
        self.criterion = criterion or ActiveSubscriberCriterion()

    # -- day planning --------------------------------------------------------

    def planned_days(self) -> Dict[datetime.date, Set[str]]:
        """day → set of roles ('aggregate', 'hourly', 'flows', 'rtt')."""
        config = self.config
        start, end = config.world.start, config.world.end
        plan: Dict[datetime.date, Set[str]] = {}

        def add(day: datetime.date, role: str) -> None:
            if start <= day <= end:
                plan.setdefault(day, set()).add(role)

        for day in study_days(start, end, stride=config.day_stride):
            add(day, "aggregate")
        for year, month in COMPARISON_MONTHS:
            for day in month_days(year, month):
                add(day, "aggregate")
                add(day, "hourly")
            for day in month_days(year, month)[
                7 :: max(1, 21 // max(1, config.rtt_days_per_comparison_month))
            ][: config.rtt_days_per_comparison_month]:
                add(day, "flows")
                add(day, "rtt")
        if config.flow_days_per_month:
            for year, month in study_months(start, end):
                days = month_days(year, month)
                picked = days[9 :: max(1, 18 // config.flow_days_per_month)]
                for day in picked[: config.flow_days_per_month]:
                    add(day, "aggregate")
                    add(day, "flows")
        return plan

    # -- the pass --------------------------------------------------------------

    def empty_data(self) -> StudyData:
        return StudyData(
            months=study_months(self.config.world.start, self.config.world.end)
        )

    def day_partial(self, day: datetime.date, roles: Set[str]) -> StudyData:
        """One planned day reduced into a fresh :class:`StudyData`.

        The unit of fault-tolerant execution: days are independent
        (per-day seeds, DESIGN.md §6), so a worker can compute any day in
        isolation and the parent merges partials in calendar order to
        reproduce a serial run exactly.  A whole day is the one-shard
        case of :meth:`day_shard_partial` (DESIGN.md §15).
        """
        (whole,) = plan_shards(len(self.world.population), 1)
        return merge_day_shards(
            day, [self.day_shard_partial(day, roles, whole)], self.world.rib
        )

    def day_shard_partial(
        self, day: datetime.date, roles: Set[str], shard: ShardSpec
    ) -> Tuple[StudyData, ShardExtra]:
        """One subscriber range of one planned day (DESIGN.md §15).

        Generation draws only the range's subscriber blocks, each from its
        own streams, and stage-1 runs over the range's rows alone.  The
        returned :class:`ShardExtra` carries what the fan-in
        (:func:`merge_day_shards`) needs on top to reassemble the exact
        day partial.

        The single site that opens the per-day telemetry span, so every
        execution mode yields the same trace shape
        (day → generate/aggregate/hourly/flows → expand/stage1).
        """
        data = self.empty_data()
        extra = ShardExtra(day=day, shard=shard)
        with telemetry.span(
            "day",
            day=day.isoformat(),
            roles=",".join(sorted(roles)),
            **dict(task_attrs(shard.index, shard.count)),
        ):
            with telemetry.span("generate"):
                traffic = self.generator.generate_day(day, shard=shard.bounds)
            if not traffic.usage:
                return data, extra  # outage, or a range past the last block
            extra.processed = True
            with telemetry.span("aggregate"):
                self._consume_aggregate(data, extra, day, traffic)
            hourly = None
            if "hourly" in roles:
                with telemetry.span("hourly"):
                    hourly = self.generator.generate_hourly(day, traffic)
                    data.hourly.extend(hourly)
            if "flows" in roles:
                with telemetry.span("flows"):
                    self._consume_flows(
                        data, extra, day, traffic, with_rtt="rtt" in roles
                    )
            self._day_generated(day, traffic, hourly)
        return data, extra

    def _day_generated(
        self,
        day: datetime.date,
        traffic: DayTraffic,
        hourly: Optional[List[HourlyVolume]],
    ) -> None:
        """Hook: the stage-1 inputs of a processed day, for archiving."""

    def run(self, progress: Optional[object] = None) -> StudyData:
        """Execute the study; returns the reduced per-day data."""
        data = self.empty_data()
        plan = self.planned_days()
        for day in sorted(plan):
            data.merge(self.day_partial(day, plan[day]))
            if progress is not None:
                progress(day)  # type: ignore[operator]
        return data

    def _consume_aggregate(
        self,
        data: StudyData,
        extra: ShardExtra,
        day: datetime.date,
        traffic: DayTraffic,
    ) -> None:
        """Aggregate tier of one shard.

        Beyond the shard-local reductions, the sidecar records the
        per-technology active counts (the popularity denominator must
        count the *whole* day's actives); the protocol rows are sums over
        the shard's blocks, which the fan-in adds up.
        """
        day_rows = aggregate_usage_day(
            data, day, traffic.usage, self.criterion, self.visit_classifier
        )
        extra.active_counts = {technology: 0 for technology in Technology}
        for entry in day_rows:
            if entry.active:
                extra.active_counts[entry.technology] += 1
        data.protocol_rows.extend(traffic.protocols)

    def _consume_flows(
        self,
        data: StudyData,
        extra: ShardExtra,
        day: datetime.date,
        traffic: DayTraffic,
        with_rtt: bool,
    ) -> None:
        """Flow tier of one shard.

        Census, ASN, domain, and role analytics mix information *across*
        flows (an address dedicated in one shard may be shared in
        another), so the shard only collects their additive raw material
        — (ip, service) pairs, domain byte totals — and
        :func:`merge_day_shards` computes the day-level results over the
        union.  RTT samples are kept in flow order, the day's order once
        the shards are concatenated in range order.
        """
        with telemetry.span("expand"):
            flows = self.generator.expand_flows_batch(
                day, traffic, max_flows_per_usage=self.config.max_flows_per_usage
            )
        with telemetry.span("stage1"):
            # One classification pass over the batch, shared by every consumer.
            codes = flows.service_view(self.rules)
            extra.flow_stage = True
            pairs = ip_service_pairs(flows, self.rules, codes=codes)
            extra.pair_ips = pairs.ips
            extra.pair_codes = pairs.codes
            extra.pair_services = pairs.services
            for service in INFRA_SERVICES:
                extra.domain_totals[service] = domain_byte_totals(
                    flows, self.rules, service, codes=codes
                )
                data.daily_ip_sets.setdefault(service, []).append(
                    (day, service_ip_set(flows, self.rules, service, codes=codes))
                )
            if with_rtt:
                for service in RTT_SERVICES:
                    mask = rtt_analytics.min_rtt_mask(
                        flows, self.rules, service, codes=codes
                    )
                    data.rtt_samples[(service, day.year)] = flows.columns[
                        "rtt_min_ms"
                    ][mask].tolist()
                    telemetry.count(
                        "rtt_samples_collected",
                        int(np.count_nonzero(mask)),
                        service=service,
                    )


def aggregate_usage_day(
    data: StudyData,
    day: datetime.date,
    usage: Sequence[DailyUsage],
    criterion: ActiveSubscriberCriterion,
    classifier: VisitClassifier,
) -> List[SubscriberDay]:
    """Stage-1 aggregate reductions of one day's usage rows into ``data``.

    Shared by the live study (per shard) and the lake replay (whole
    day): subscriber days, per-technology service cells, and — inside
    the full-resolution comparison months — weekly reach (§4.3).
    Returns the subscriber-day rows it stored.  ``usage`` is reduced as
    columns (a batch is taken as it is, rows are normalised once).
    """
    usage = ColumnBatch.of(usage, USAGE_CODEC)
    day_rows = subscriber_days(usage, criterion)
    data.subscriber_days[day] = day_rows
    for technology in Technology:
        data.service_stats.extend(
            daily_service_stats(
                usage, day_rows, classifier=classifier, technology=technology
            )
        )
    if (day.year, day.month) in COMPARISON_MONTHS:
        iso_year, iso_week, _ = day.isocalendar()
        active_by_id = {
            entry.subscriber_id: entry.technology
            for entry in day_rows
            if entry.active
        }
        for subscriber_id, technology in active_by_id.items():
            data.weekly_active.setdefault(
                (iso_year, iso_week, technology), set()
            ).add(subscriber_id)
        if active_by_id:
            _add_weekly_visitors(
                data.weekly_visitors, (iso_year, iso_week), usage, active_by_id, classifier
            )
    return day_rows


def _add_weekly_visitors(
    weekly_visitors: Dict[Tuple[int, int, str, Technology], Set[int]],
    week: Tuple[int, int],
    usage: "ColumnBatch[DailyUsage]",
    active_by_id: Dict[int, Technology],
    classifier: VisitClassifier,
) -> None:
    """Add the day's visits by active subscribers to the week's visitor sets.

    A visit is keyed by (service, its subscriber-day's technology).  Keys
    are inserted in first-row order and every set is filled in row order —
    what a row-by-row pass does, and what the checkpoint bytes pin.
    """
    subscribers, service = usage.columns["subscriber_id"], usage.columns["service"]
    services = usage.dictionaries["service"]
    technologies = list(Technology)
    ids = np.fromiter(active_by_id, np.int64, len(active_by_id))
    id_technology = np.fromiter(
        map(technologies.index, active_by_id.values()), np.int64, ids.size
    )
    sorter = np.argsort(ids)
    slot = sorter[
        np.minimum(np.searchsorted(ids, subscribers, sorter=sorter), ids.size - 1)
    ]
    rows = np.nonzero((ids[slot] == subscribers) & visit_rows(usage, classifier))[0]
    key = service[rows] * len(technologies) + id_technology[slot[rows]]
    order, starts = group_rows(key)
    bounds = starts.tolist() + [order.size]
    for group in np.argsort(order[starts]).tolist():  # first-row order
        members = order[bounds[group] : bounds[group + 1]]
        code, technology = divmod(int(key[members[0]]), len(technologies))
        weekly_visitors.setdefault(
            (*week, services[code], technologies[technology]), set()
        ).update(subscribers[rows[members]].tolist())


def merge_day_shards(
    day: datetime.date,
    parts: List[Tuple[StudyData, ShardExtra]],
    rib: RibArchive,
) -> StudyData:
    """Fan one day's shard partials into the day partial.

    The result is the same for any partition of the subscriber blocks,
    including the single whole-day shard: the shards hold consecutive
    runs of blocks, so order-sensitive lists (subscriber days, RTT
    samples) are their concatenation in range order; additive counters,
    protocol totals and hourly volumes are summed; and cross-flow
    analytics (census/ASN/domains/roles) are computed over the union of
    the shards' raw pairs.  The parts are consumed: their containers may
    be reused in the result.
    """
    parts = sorted(parts, key=lambda part: part[1].shard.index)
    datas = [data for data, _ in parts]
    extras = [extra for _, extra in parts]
    out = StudyData(months=list(datas[0].months))
    if not any(extra.processed for extra in extras):
        return out  # full-day outage
    telemetry.count("study_days_processed")

    # subscriber_days: shards partition subscribers, so each entry is exact.
    out.subscriber_days[day] = [
        row for data in datas for row in data.subscriber_days.get(day, ())
    ]

    # service_stats: cells are additive except active_subscribers, which
    # is the whole-day denominator carried per shard in the sidecar.
    for technology in Technology:
        active_total = sum(
            extra.active_counts.get(technology, 0) for extra in extras
        )
        merged_cells: Dict[str, DailyServiceStats] = {}
        for data in datas:
            for cell in data.service_stats:
                if cell.technology is not technology:
                    continue
                previous = merged_cells.get(cell.service)
                merged_cells[cell.service] = (
                    cell if previous is None else previous.merged(cell)
                )
        for service in sorted(merged_cells):
            out.service_stats.append(
                replace(merged_cells[service], active_subscribers=active_total)
            )

    out.protocol_rows.extend(
        sorted(
            _added_up(
                (row for data in datas for row in data.protocol_rows),
                lambda row: (row.service, row.protocol),
                "total_bytes",
            ),
            key=lambda row: (row.service, row.protocol.value),
        )
    )
    out.hourly.extend(
        _added_up(
            (volume for data in datas for volume in data.hourly),
            lambda volume: (volume.technology, volume.bin_index),
            "bytes_down",
        )
    )
    for data in datas:
        for key, samples in data.rtt_samples.items():
            out.rtt_samples.setdefault(key, []).extend(samples)
        _union_sets(out.weekly_visitors, data.weekly_visitors)
        _union_sets(out.weekly_active, data.weekly_active)

    flow_extras = [extra for extra in extras if extra.flow_stage]
    if flow_extras:
        out.flow_days.append(day)
        pairs = ServicePairs.union(
            (extra.pair_ips, extra.pair_codes, extra.pair_services)
            for extra in flow_extras
            if extra.pair_ips is not None
        )
        out.census.extend(pairs.census(day, service) for service in INFRA_SERVICES)
        for service in INFRA_SERVICES:
            out.asn.append(
                asn_of_addresses(pairs.addresses(service), rib, service, day)
            )
            domain_totals: Dict[str, int] = {}
            for extra in flow_extras:
                for sld, volume in extra.domain_totals.get(service, {}).items():
                    domain_totals[sld] = domain_totals.get(sld, 0) + volume
            out.domains.append((day, service, shares_from_totals(domain_totals)))
            merged_ips: Set[int] = set()
            for data in datas:
                for entry_day, addresses in data.daily_ip_sets.get(service, []):
                    if entry_day == day:
                        merged_ips |= addresses
            out.daily_ip_sets.setdefault(service, []).append((day, merged_ips))
            out.daily_ip_roles.setdefault(service, []).append(
                (day, pairs.roles(service))
            )
    return out


def _added_up(rows: Iterable[Any], key: Callable[[Any], object], amount: str) -> List[Any]:
    """One row per ``key``, first-appearance order, its ``amount`` field
    summed over the rows of that key (a lone row is kept as it is)."""
    held: Dict[object, Any] = {}
    for row in rows:
        prior = held.get(key(row))
        held[key(row)] = (
            row
            if prior is None
            else replace(prior, **{amount: getattr(prior, amount) + getattr(row, amount)})
        )
    return list(held.values())


def _union_sets(target: Dict, source: Dict) -> None:
    """Union ``source``'s sets into ``target``, adopting a set whose key is new."""
    for key, members in source.items():
        held = target.setdefault(key, members)
        if held is not members:
            held |= members

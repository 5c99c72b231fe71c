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
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Protocol, Sequence, Set, Tuple

import numpy as np

from repro.analytics.activity import (
    SUBSCRIBER_DAY_CODEC,
    SubscriberDay,
    group_rows,
    subscriber_day_slots,
)
from repro.analytics.infrastructure import (
    DOMAIN_BYTES_CODEC,
    SERVER_CODEC,
    AsnBreakdown,
    DomainBytes,
    ServerAddress,
    ServicePairs,
    asn_of_addresses,
    domain_byte_totals,
    ip_service_pairs,
)
from repro.analytics.rtt import RTT_CODEC, RttSample, min_rtt_table
from repro.analytics.popularity import (
    SERVICE_STATS_CODEC,
    DailyServiceStats,
    technology_positions,
    technology_service_stats,
    visit_rows,
)
from repro.analytics.timeseries import Month
from repro.core.config import COMPARISON_MONTHS, StudyConfig
from repro.core.shards import ShardExtra, ShardSpec, plan_shards, task_attrs
from repro.dataflow.columnar import ColumnBatch, ColumnarCodec
from repro.dataflow.datalake import month_days
from repro.routing.rib import RibArchive
from repro.services import catalog
from repro.services.rules import RuleSet
from repro.services.thresholds import ActiveSubscriberCriterion, VisitClassifier
from repro.synthesis.flowgen import (
    HOURLY_CODEC,
    PROTOCOL_CODEC,
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


@dataclass(frozen=True)
class FanIn:
    """How :func:`merge_day_shards` makes a day's table of its shard parts:
    summed by the ``keys`` columns (each other int column adds up), the
    servers of the ``from_pairs`` services in the union of the shards'
    sidecar pairs (:meth:`ServicePairs.servers`), or else concatenated in
    shard order."""

    keys: Tuple[str, ...] = ()
    from_pairs: Tuple[str, ...] = ()


#: StudyData's per-day output tables, by field: the codec and the fan-in
#: rule.  The calendar fold concatenates every one of them in day order.
STUDY_TABLES: Mapping[str, Tuple[ColumnarCodec, FanIn]] = MappingProxyType(
    {
        "service_stats": (SERVICE_STATS_CODEC, FanIn(keys=("day", "technology", "service"))),
        "protocol_rows": (PROTOCOL_CODEC, FanIn(keys=("day", "service", "protocol"))),
        "hourly": (HOURLY_CODEC, FanIn(keys=("day", "technology", "bin_index"))),
        "servers": (SERVER_CODEC, FanIn(from_pairs=INFRA_SERVICES)),
        "domain_bytes": (DOMAIN_BYTES_CODEC, FanIn(keys=("day", "service", "sld"))),
        "rtt": (RTT_CODEC, FanIn()),
    }
)


#: One empty table per field of :data:`STUDY_TABLES`, what a
#: :class:`StudyData` holds until a table is produced.  Tables are never
#: changed in place, so every partial can share them.
EMPTY_TABLES: Mapping[str, ColumnBatch] = MappingProxyType(
    {name: ColumnBatch.from_rows((), codec) for name, (codec, _) in STUDY_TABLES.items()}
)


def _table(name: str) -> Any:
    return field(default_factory=lambda: EMPTY_TABLES[name])


class DaySink(Protocol):
    """Archives a range task's stage-1 inputs (a ``persistence.LakeSink``)."""

    def store_day(self, day: datetime.date, traffic: DayTraffic, hourly: Any) -> None: ...


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
    """Everything the figures need, reduced per day during the single pass.

    Stage-1's output tables (:data:`STUDY_TABLES`, and each day of
    ``subscriber_days``) are column batches: records to whoever iterates
    them, columns to the fan-in, the calendar fold, the stage-2 readers
    that scan a whole table and the digest.
    """

    months: List[Month] = field(default_factory=list)
    #: day → per-subscriber totals with the activity flag, one
    #: :data:`SUBSCRIBER_DAY_CODEC` table per day.
    subscriber_days: Dict[datetime.date, "ColumnBatch[SubscriberDay]"] = field(
        default_factory=dict
    )
    #: per-(day, service, technology) popularity/volume cells.
    service_stats: Sequence[DailyServiceStats] = _table("service_stats")
    #: per-(day, service, reported protocol) byte totals.
    protocol_rows: Sequence[ProtocolUsage] = _table("protocol_rows")
    #: 10-minute-bin volumes for the comparison months.
    hourly: Sequence[HourlyVolume] = _table("hourly")
    #: Fig. 11 top: each address a tracked service used on a flow day.
    servers: Sequence[ServerAddress] = _table("servers")
    #: Fig. 11 middle: per-day ASN breakdowns.
    asn: List[AsnBreakdown] = field(default_factory=list)
    #: Fig. 11 bottom: per-(day, service, SLD) byte totals of the flow days.
    domain_bytes: Sequence[DomainBytes] = _table("domain_bytes")
    #: Fig. 10: per-flow min-RTT samples of the RTT days, in flow order.
    rtt: Sequence[RttSample] = _table("rtt")
    #: days expanded to the flow tier.
    flow_days: List[datetime.date] = field(default_factory=list)
    #: §4.3 extension: (iso-year, iso-week, service, technology) → visitors,
    #: tracked inside the full-resolution comparison months only.
    weekly_visitors: Dict[
        Tuple[int, int, str, Technology], Set[int]
    ] = field(default_factory=dict)

    def __getstate__(self) -> Dict[str, Any]:
        """Pickled without its empty tables (most of a day partial's are);
        each comes back as the shared empty."""
        return {
            name: value
            for name, value in vars(self).items()
            if name not in STUDY_TABLES or len(value)
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, state[name] if name in state else EMPTY_TABLES[name])

    def stats_for(
        self,
        service: str,
        technology: Optional[Technology] = None,
    ) -> List[DailyServiceStats]:
        """Cells of one service in day order; when ``technology`` is None,
        one cell per day summed across technologies (its technology None
        unless the day has one cell)."""
        stats = ColumnBatch.of(self.service_stats, SERVICE_STATS_CODEC)
        cells = stats.take(stats.equals("service", service))
        if technology is not None:
            return list(cells.take(cells.equals("technology", technology.value)))
        lone = np.unique(cells.columns["day"], return_counts=True)[1] == 1
        return [
            cell if alone else replace(cell, technology=None)
            for cell, alone in zip(_summed([cells], "service_stats", ("day",)), lone.tolist())
        ]

    def all_subscriber_days(self) -> "ColumnBatch[SubscriberDay]":
        """Every day's subscriber days as one table, in day order."""
        return ColumnBatch.concat(
            (self.subscriber_days[day] for day in sorted(self.subscriber_days)),
            SUBSCRIBER_DAY_CODEC,
        )

    def merge(self, *others: "StudyData") -> None:
        """Fold other partial results in, in order (disjoint day sets enforced).

        ``weekly_visitors`` keys legitimately repeat across partials (one
        ISO week spans several days) and are unioned; ``subscriber_days``
        keys must be disjoint and raise
        :class:`MergeOverlapError` when they collide.  Each table is
        concatenated once, however many partials are folded in: a calendar
        fold passes them all in one call.
        """
        for other in others:
            if self.months and other.months and self.months != other.months:
                raise ValueError("cannot merge studies with different spans")
            if not self.months:
                self.months = list(other.months)
            overlap = self.subscriber_days.keys() & other.subscriber_days.keys()
            if overlap:
                raise MergeOverlapError("subscriber_days", min(overlap).isoformat())
            self.subscriber_days.update(other.subscriber_days)
            self.asn.extend(other.asn)
            # Insertion keeps flow_days sorted without re-sorting the whole
            # list on every one of the k partial merges (was O(k·n log n)).
            for day in other.flow_days:
                bisect.insort(self.flow_days, day)
            for key, visitors in other.weekly_visitors.items():
                self.weekly_visitors.setdefault(key, set()).update(visitors)
        for name, (codec, _) in STUDY_TABLES.items():
            parts = [getattr(data, name) for data in (self, *others)]
            setattr(self, name, ColumnBatch.concat(parts, codec))

    def weekly_reach(
        self, service: str, technology: Technology, year: int
    ) -> Optional[float]:
        """Mean fraction of weekly-active subscribers visiting ``service``
        at least once per week (weeks of the comparison month of ``year``).
        A week's actives are read off the subscriber days it holds."""
        active: Dict[Tuple[int, ...], Set[int]] = {}
        for day, rows in self.subscriber_days.items():
            week = tuple(day.isocalendar())[:2]
            if (day.year, day.month) in COMPARISON_MONTHS and week[0] == year:
                rows = ColumnBatch.of(rows, SUBSCRIBER_DAY_CODEC)
                mask = rows.columns["active"] & rows.equals("technology", technology.value)
                active.setdefault(week, set()).update(rows.columns["subscriber_id"][mask].tolist())
        ratios = [
            len(self.weekly_visitors.get((*week, service, technology), ())) / len(ids)
            for week, ids in active.items()
            if ids
        ]
        # fsum: the mean must not depend on the weeks' order.
        return math.fsum(ratios) / len(ratios) if ratios else None


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
        self._months = study_months(self.config.world.start, self.config.world.end)

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
        return StudyData(months=list(self._months))

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
        self, day: datetime.date, roles: Set[str], shard: ShardSpec, sink: Optional[DaySink] = None
    ) -> Tuple[StudyData, ShardExtra]:
        """One subscriber range of one planned day (DESIGN.md §15).

        Generation draws only the range's subscriber blocks, each from its
        own streams, and stage-1 runs over the range's rows alone.  The
        returned :class:`ShardExtra` carries what the fan-in
        (:func:`merge_day_shards`) needs on top to reassemble the exact
        day partial.  A ``sink`` archives the range's stage-1 inputs.

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
                self._consume_aggregate(data, day, traffic)
            hourly = None
            if "hourly" in roles:
                with telemetry.span("hourly"):
                    hourly = data.hourly = self.generator.generate_hourly(day, traffic)
            if "flows" in roles:
                with telemetry.span("flows"):
                    self._consume_flows(
                        data, extra, day, traffic, with_rtt="rtt" in roles
                    )
            if sink is not None:
                sink.store_day(day, traffic, hourly)
        return data, extra

    def run(self) -> StudyData:
        """Execute the study serially; returns the reduced per-day data."""
        plan = self.planned_days()
        data = self.empty_data()
        data.merge(*(self.day_partial(day, plan[day]) for day in sorted(plan)))
        return data

    def _consume_aggregate(
        self, data: StudyData, day: datetime.date, traffic: DayTraffic
    ) -> None:
        """Aggregate tier of one shard: shard-local reductions (the fan-in
        counts the popularity denominator over the whole day's subscriber
        days) and the protocol rows, sums over the shard's blocks, which
        the fan-in adds up.
        """
        aggregate_usage_day(data, day, traffic.usage, self.criterion, self.visit_classifier)
        data.protocol_rows = traffic.protocols

    def _consume_flows(
        self,
        data: StudyData,
        extra: ShardExtra,
        day: datetime.date,
        traffic: DayTraffic,
        with_rtt: bool,
    ) -> None:
        """Flow tier of one shard.

        The server and ASN analytics mix information *across* flows (an
        address dedicated in one shard may be shared in another), so the
        shard only collects their additive raw material — (ip, service)
        pairs — and :func:`merge_day_shards` computes the day-level results
        over the union.  Domain byte totals are a summed table; Fig. 11
        divides them into shares.  The RTT table is kept in flow order, the
        day's order once the shards are concatenated in range order.
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
            extra.pairs = (pairs.ips, pairs.codes, pairs.services)
            data.domain_bytes = ColumnBatch.from_rows(  # a row per (service, SLD), in key order
                [
                    (day, service, sld, volume)
                    for service in sorted(INFRA_SERVICES)
                    for sld, volume in sorted(
                        domain_byte_totals(flows, self.rules, service, codes).items()
                    )
                ],
                DOMAIN_BYTES_CODEC,
            )
            if with_rtt:
                data.rtt = min_rtt_table(flows, self.rules, RTT_SERVICES, day.year, codes)
                counts = np.bincount(data.rtt.columns["service"], minlength=len(RTT_SERVICES))
                for service, count in zip(RTT_SERVICES, counts.tolist()):
                    telemetry.count("rtt_samples_collected", count, service=service)


def aggregate_usage_day(
    data: StudyData,
    day: datetime.date,
    usage: Sequence[DailyUsage],
    criterion: ActiveSubscriberCriterion,
    classifier: VisitClassifier,
) -> "ColumnBatch[SubscriberDay]":
    """Stage-1 aggregate reductions of ``day``'s usage rows into ``data``.

    Shared by the live study (per shard) and the lake replay (whole
    day): subscriber days, per-technology service cells, and — inside
    the full-resolution comparison months — the weekly visitor sets
    (§4.3).  Returns the subscriber-day table it stored.  ``usage`` holds
    the rows of ``day`` alone; it is reduced as columns (a batch is taken
    as it is, rows are normalised once) and grouped by subscriber day
    once: every reduction reads each row's slot in the subscriber-day
    table.
    """
    usage = ColumnBatch.of(usage, USAGE_CODEC)
    day_rows, slots = subscriber_day_slots(usage, criterion)
    data.subscriber_days[day] = day_rows
    visit = visit_rows(usage, classifier)
    cells = technology_service_stats(usage, day_rows, slots, visit)
    data.service_stats = ColumnBatch.concat([data.service_stats, cells], SERVICE_STATS_CODEC)
    if (day.year, day.month) in COMPARISON_MONTHS:
        week = tuple(day.isocalendar())[:2]
        rows = np.nonzero(day_rows.columns["active"][slots] & visit)[0]
        place = technology_positions(day_rows)[slots[rows]]
        _add_weekly_visitors(data.weekly_visitors, week, usage, rows, place)
    return day_rows


def _add_weekly_visitors(
    weekly_visitors: Dict[Tuple[int, int, str, Technology], Set[int]],
    week: Tuple[int, ...],
    usage: "ColumnBatch[DailyUsage]",
    rows: np.ndarray,
    technology: np.ndarray,
) -> None:
    """Add the day's visits at ``rows`` (ascending) to the week's visitor sets.

    A visit is keyed by (service, ``technology``: the place in
    :class:`Technology` of its subscriber day's technology).  Keys are
    inserted in first-row order and every set is filled in row order — what
    a row-by-row pass does, and what the checkpoint bytes pin.
    """
    subscribers, services = usage.columns["subscriber_id"], usage.dictionaries["service"]
    technologies = list(Technology)
    key = usage.columns["service"][rows] * len(technologies) + technology
    order, starts = group_rows(key)
    bounds = starts.tolist() + [order.size]
    for group in np.argsort(order[starts]).tolist():  # first-row order
        members = order[bounds[group] : bounds[group + 1]]
        code, place = divmod(int(key[members[0]]), len(technologies))
        weekly_visitors.setdefault(
            (*week, services[code], technologies[place]), set()
        ).update(subscribers[rows[members]].tolist())


def merge_day_shards(
    day: datetime.date,
    parts: List[Tuple[StudyData, ShardExtra]],
    rib: RibArchive,
) -> StudyData:
    """Fan one day's shard partials into the day partial.

    The result is the same for any partition of the subscriber blocks,
    including the single whole-day shard: the shards hold consecutive
    runs of blocks, so subscriber days and the weekly visitor sets are
    their union, and each of :data:`STUDY_TABLES` follows its
    :class:`FanIn` rule — summed by key, computed over the union of the
    shards' raw (server, service) pairs, or concatenated in range order.
    The ASN breakdowns are computed over the union too.  The parts are
    consumed: their containers may be reused in the result.
    """
    parts = sorted(parts, key=lambda part: part[1].shard.index)
    datas = [data for data, _ in parts]
    extras = [extra for _, extra in parts]
    months = list(datas[0].months)
    if not any(extra.processed for extra in extras):
        return StudyData(months=months)  # full-day outage
    telemetry.count("study_days_processed")

    flow_extras = [extra for extra in extras if extra.flow_stage]
    pairs = ServicePairs.union(
        extra.pairs for extra in flow_extras if extra.pairs is not None
    ) if flow_extras else None
    # A summed table comes out in key order — the order every part holds
    # its rows in.
    merged: Dict[str, ColumnBatch] = {}
    for name, (codec, fan_in) in STUDY_TABLES.items():
        tables = [getattr(data, name) for data in datas]
        if fan_in.keys:
            merged[name] = _summed(tables, name)
        elif fan_in.from_pairs and pairs is not None:
            merged[name] = pairs.servers(day, fan_in.from_pairs)
        else:  # on a day without flows, the parts of a from_pairs table are empty
            merged[name] = ColumnBatch.concat(tables, codec)
    out = StudyData(
        months=months,
        # Shards partition subscribers, so each subscriber day is exact.
        subscriber_days={
            day: ColumnBatch.concat(
                [data.subscriber_days.get(day, ()) for data in datas],
                SUBSCRIBER_DAY_CODEC,
            )
        },
        **merged,
    )
    # A service-stats cell is additive except active_subscribers, the
    # whole day's active count of its technology.
    rows, stats = out.subscriber_days[day], out.service_stats
    active = np.bincount(
        technology_positions(rows)[rows.columns["active"]], minlength=len(Technology)
    )[technology_positions(stats)]
    out.service_stats = ColumnBatch(
        SERVICE_STATS_CODEC, {**stats.columns, "active_subscribers": active}, stats.dictionaries
    )
    for data in datas:
        _union_sets(out.weekly_visitors, data.weekly_visitors)

    if pairs is not None:
        out.flow_days.append(day)
        servers = out.servers
        for service in INFRA_SERVICES:
            addresses = servers.columns["ip"][servers.equals("service", service)]
            out.asn.append(asn_of_addresses(addresses.tolist(), rib, service, day))
    return out


def _summed(
    tables: List[Sequence[Any]], name: str, keys: Optional[Tuple[str, ...]] = None
) -> ColumnBatch:
    """The parts of one of :data:`STUDY_TABLES` as one table with a row per
    distinct ``keys`` (the table's fan-in keys by default), in key order — a
    ``str`` key by its value — each other int column summed over the key's
    rows and every other column taken from its first row.

    A lone part is returned as it is when summed by the fan-in keys: every
    producer of these tables already makes one row per key, in key order.
    """
    codec = STUDY_TABLES[name][0]
    if keys is None and len(tables) == 1:
        return ColumnBatch.of(tables[0], codec)
    keys = keys or STUDY_TABLES[name][1].keys
    table = ColumnBatch.concat(tables, codec)
    columns = table.columns
    order, starts = group_rows(
        *(
            table.value_ranks(key)[columns[key]] if codec.column_kind(key) == "str"
            else columns[key]
            for key in keys
        )
    )
    summed = {column: array[order[starts]] for column, array in columns.items()}
    for spec in codec.columns:
        if spec.kind == "int" and spec.name not in keys:
            summed[spec.name] = np.add.reduceat(columns[spec.name][order], starts)
    return ColumnBatch(codec, summed, table.dictionaries)


def _union_sets(target: Dict, source: Dict) -> None:
    """Union ``source``'s sets into ``target``, adopting a set whose key is new."""
    for key, members in source.items():
        held = target.setdefault(key, members)
        if held is not members:
            held |= members

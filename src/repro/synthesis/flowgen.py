"""Traffic generation: drawing measurements from the world model.

Three fidelity tiers (DESIGN.md §5), all deterministic per (seed, day):

* :meth:`TrafficGenerator.generate_day` — the **aggregate tier**: per
  (subscriber, service) daily usage rows plus per-service protocol volume
  rows.  This is exactly the output schema of the stage-1 aggregation job,
  and what the 54-month analyses consume.  The usage rows are born
  columnar: ``DayTraffic.usage`` is a
  :class:`~repro.dataflow.columnar.ColumnBatch` over the day skeleton's
  arrays, a sequence of :class:`DailyUsage` only to whoever iterates it.
* :meth:`TrafficGenerator.generate_hourly` — 10-minute-bin volumes for the
  hour-of-day analysis (Fig. 4).
* :meth:`TrafficGenerator.expand_flows_batch` — the **flow tier**: usage
  rows expanded into one columnar :class:`~repro.tstat.flowbatch.FlowBatch`
  with server addresses, domains, per-flow protocols (as labelled by that
  day's probe software) and RTT summaries.  Used by the RTT and
  infrastructure analyses; :meth:`TrafficGenerator.expand_flows` is the
  same batch iterated into a :class:`FlowRecord` list.

Generation is vectorized per (day, service) over the subscriber axis.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataflow.columnar import (
    ColumnBatch,
    ColumnSpec,
    ColumnarCodec,
    first_appearance_codes,
)
from repro.dataflow.datalake import LineCodec, tsv_codec
from repro.services import catalog
from repro.synthesis import studycalendar
from repro.synthesis.population import Technology
from repro.synthesis.studycalendar import BINS_PER_DAY
from repro.synthesis.world import World
from repro.telemetry import runtime as telemetry
from repro.tstat.flow import (
    FlowRecord,
    NameSource,
    Transport,
    WebProtocol,
)
from repro.tstat.flowbatch import FLOW_CODEC, FlowBatch
from repro.tstat.versions import capabilities_on

#: The generator's dictionaries for the flow batch's enum columns: every
#: member in declaration order, a column holding positions in them.
PROTOCOLS = tuple(WebProtocol)
NAME_SOURCES = tuple(NameSource)
TRANSPORTS = tuple(Transport)
protocol_code = PROTOCOLS.index
name_source_code = NAME_SOURCES.index

_HEAVINESS_NORM = math.exp(-0.5 * 0.6 * 0.6)  # normalize lognormal(0, 0.6) to mean 1
_HOLIDAY_VOLUME_BOOST = 2.5
_HOLIDAY_USE_BOOST = 1.25
_BACKGROUND_FLOWS = 4
_BACKGROUND_BYTES_DOWN = 8_000
_BACKGROUND_BYTES_UP = 2_000


@dataclass(frozen=True)
class DailyUsage:
    """Stage-1 schema: one (day, subscriber, service) aggregate."""

    day: datetime.date
    subscriber_id: int
    technology: Technology
    pop: str
    service: str
    bytes_down: int
    bytes_up: int
    flows: int


@dataclass(frozen=True)
class ProtocolUsage:
    """Per-day traffic of one service over one *reported* protocol label."""

    day: datetime.date
    service: str
    protocol: WebProtocol
    total_bytes: int


@dataclass(frozen=True)
class HourlyVolume:
    """Downloaded bytes of one technology in one 10-minute bin."""

    day: datetime.date
    technology: Technology
    bin_index: int
    bytes_down: int


@dataclass(frozen=True, eq=False)
class DaySkeleton:
    """One day's usage rows as columns, in canonical emission order.

    Every RNG stream of a day is drawn at full population width whatever
    subscriber range a task covers (DESIGN.md §15), so the skeleton is
    identical in every shard of the day; only ``emit_positions`` — the
    rows the task emits as its ``usage`` batch — differs.  The hourly and
    flow tiers read the skeleton, never the emitted rows, which is what
    lets a shard reproduce the whole day's draw sequence without the
    other shards' rows.
    """

    services: Tuple[str, ...]  # distinct services, first-appearance order
    pops: Tuple[str, ...]  # distinct PoPs, first-appearance order over subscribers
    row_service: np.ndarray  # int32 codes into ``services``
    row_subscriber: np.ndarray  # int64
    row_ftth: np.ndarray  # bool
    row_pop: np.ndarray  # int32 codes into ``pops``
    row_bytes_down: np.ndarray  # int64
    row_bytes_up: np.ndarray  # int64
    row_flows: np.ndarray  # int64
    emit_positions: np.ndarray  # skeleton positions of the emitted usage rows
    tech_bytes_down: Dict[Technology, int]  # full-day downloads per technology

    @property
    def row_count(self) -> int:
        return int(self.row_flows.size)


@dataclass(frozen=True)
class DayTraffic:
    """Everything the aggregate tier produces for one day.

    ``usage`` holds the rows of the whole population unless
    :meth:`TrafficGenerator.generate_day` was given a subscriber range;
    ``protocols`` and ``skeleton`` always describe the whole day.

    ``usage`` is a :class:`~repro.dataflow.columnar.ColumnBatch` over the
    skeleton's arrays — the arrays themselves when the whole population
    is emitted, their rows at ``emit_positions`` otherwise: a sequence of
    :class:`DailyUsage` to whoever iterates it, columns to stage-1 and the
    lake, which never do.
    """

    day: datetime.date
    usage: Sequence[DailyUsage]
    protocols: Tuple[ProtocolUsage, ...]
    #: Compared by identity only (array-wise ``==`` is ambiguous), so it
    #: stays out of traffic equality: the rows above already pin the day.
    skeleton: DaySkeleton = field(compare=False, repr=False)


_USAGE_LINES: LineCodec[DailyUsage] = tsv_codec(
    from_fields=lambda fields: DailyUsage(
        day=datetime.date.fromisoformat(fields[0]),
        subscriber_id=int(fields[1]),
        technology=Technology(fields[2]),
        pop=fields[3],
        service=fields[4],
        bytes_down=int(fields[5]),
        bytes_up=int(fields[6]),
        flows=int(fields[7]),
    ),
    to_fields=lambda row: [
        row.day.isoformat(),
        str(row.subscriber_id),
        row.technology.value,
        row.pop,
        row.service,
        str(row.bytes_down),
        str(row.bytes_up),
        str(row.flows),
    ],
)

USAGE_CODEC: ColumnarCodec[DailyUsage] = ColumnarCodec(
    encode=_USAGE_LINES.encode,
    decode=_USAGE_LINES.decode,
    columns=[
        ColumnSpec("day", "date"),
        ColumnSpec("subscriber_id", "int"),
        ColumnSpec("technology", "str", enum=Technology),
        ColumnSpec("pop", "str"),
        ColumnSpec("service", "str"),
        ColumnSpec("bytes_down", "int"),
        ColumnSpec("bytes_up", "int"),
        ColumnSpec("flows", "int"),
    ],
    record=DailyUsage,
    zone_columns=("service", "pop", "technology"),
    day_column="day",
)

_PROTOCOL_LINES: LineCodec[ProtocolUsage] = tsv_codec(
    from_fields=lambda fields: ProtocolUsage(
        day=datetime.date.fromisoformat(fields[0]),
        service=fields[1],
        protocol=WebProtocol(fields[2]),
        total_bytes=int(fields[3]),
    ),
    to_fields=lambda row: [
        row.day.isoformat(),
        row.service,
        row.protocol.value,
        str(row.total_bytes),
    ],
)

PROTOCOL_CODEC: ColumnarCodec[ProtocolUsage] = ColumnarCodec(
    encode=_PROTOCOL_LINES.encode,
    decode=_PROTOCOL_LINES.decode,
    columns=[
        ColumnSpec("day", "date"),
        ColumnSpec("service", "str"),
        ColumnSpec("protocol", "str", enum=WebProtocol),
        ColumnSpec("total_bytes", "int"),
    ],
    record=ProtocolUsage,
    zone_columns=("service", "protocol"),
    day_column="day",
)


#: ``technology`` codes of a usage batch: ``row_ftth`` cast to an integer.
_TECHNOLOGY_VALUES = (Technology.ADSL.value, Technology.FTTH.value)


class _DayRows:
    """Accumulates a day's usage blocks in canonical emission order.

    Every block extends the full-width :class:`DaySkeleton`; the rows of
    the subscribers inside ``[lo, hi)`` are the ones the day emits.
    """

    def __init__(
        self, generator: "TrafficGenerator", day: datetime.date, lo: int, hi: int
    ) -> None:
        self._generator = generator
        self.day = day
        self.lo = lo
        self.hi = hi
        self._services: Dict[str, int] = {}
        self._blocks: List[
            Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = []
        self._emit_positions: List[np.ndarray] = []
        self._offset = 0

    def add(
        self,
        service: str,
        subscribers: np.ndarray,
        bytes_down: np.ndarray,
        bytes_up: np.ndarray,
        flows: np.ndarray,
    ) -> None:
        """One block of rows, aligned by position (all int64)."""
        local = np.nonzero((subscribers >= self.lo) & (subscribers < self.hi))[0]
        self._emit_positions.append(self._offset + local)
        code = self._services.setdefault(service, len(self._services))
        self._blocks.append((code, subscribers, bytes_down, bytes_up, flows))
        self._offset += subscribers.size

    def traffic(self, protocols: Tuple[ProtocolUsage, ...]) -> DayTraffic:
        """The finished day: the full-day skeleton and its emitted rows."""

        def joined(parts: List[np.ndarray], dtype: type = np.int64) -> np.ndarray:
            if not parts:
                return np.empty(0, dtype=dtype)
            return np.concatenate(parts).astype(dtype, copy=False)

        generator = self._generator
        row_subscriber = joined([block[1] for block in self._blocks])
        row_down = joined([block[2] for block in self._blocks])
        row_ftth = generator._is_ftth[row_subscriber]
        skeleton = DaySkeleton(
            services=tuple(self._services),
            pops=generator._pop_names,
            row_service=joined(
                [np.full(block[1].size, block[0]) for block in self._blocks],
                np.int32,
            ),
            row_subscriber=row_subscriber,
            row_ftth=row_ftth,
            row_pop=generator._pop_codes[row_subscriber],
            row_bytes_down=row_down,
            row_bytes_up=joined([block[3] for block in self._blocks]),
            row_flows=joined([block[4] for block in self._blocks]),
            emit_positions=joined(self._emit_positions),
            tech_bytes_down={
                Technology.ADSL: int(row_down[~row_ftth].sum()),
                Technology.FTTH: int(row_down[row_ftth].sum()),
            },
        )
        usage: ColumnBatch[DailyUsage] = ColumnBatch(
            USAGE_CODEC,
            {
                "day": np.full(skeleton.row_count, self.day.toordinal()),
                "subscriber_id": skeleton.row_subscriber,
                "technology": skeleton.row_ftth,
                "pop": skeleton.row_pop,
                "service": skeleton.row_service,
                "bytes_down": skeleton.row_bytes_down,
                "bytes_up": skeleton.row_bytes_up,
                "flows": skeleton.row_flows,
            },
            {
                "day": {self.day.toordinal(): self.day},
                "technology": _TECHNOLOGY_VALUES,
                "pop": skeleton.pops,
                "service": skeleton.services,
            },
        )
        if skeleton.emit_positions.size != skeleton.row_count:
            usage = usage.take(skeleton.emit_positions)
        return DayTraffic(
            day=self.day, usage=usage, protocols=protocols, skeleton=skeleton
        )


class TrafficGenerator:
    """Draws daily traffic from a :class:`World`."""

    def __init__(self, world: World) -> None:
        self.world = world
        subscribers = world.population.subscribers
        self._count = len(subscribers)
        self._ids = np.arange(self._count)
        self._is_ftth = np.array(
            [sub.technology is Technology.FTTH for sub in subscribers], dtype=bool
        )
        self._business = np.array([sub.business for sub in subscribers])
        pop_codes: Dict[str, int] = {}
        self._pop_codes = np.array(
            [pop_codes.setdefault(sub.pop, len(pop_codes)) for sub in subscribers],
            dtype=np.int32,
        )
        self._pop_names = tuple(pop_codes)  # distinct, first-appearance order
        self._activity = np.array([sub.activity for sub in subscribers])
        self._heaviness = (
            np.array([sub.heaviness for sub in subscribers]) * _HEAVINESS_NORM
        )
        self._join = np.array([sub.join_date.toordinal() for sub in subscribers])
        self._leave = np.array(
            [
                sub.leave_date.toordinal() if sub.leave_date else 10_000_000
                for sub in subscribers
            ]
        )
        self._subscribers = subscribers

    # -- aggregate tier ------------------------------------------------------

    def generate_day(
        self,
        day: datetime.date,
        shard: Optional[Tuple[int, int]] = None,
    ) -> DayTraffic:
        """Usage and protocol rows for one day (empty during full outage).

        Every RNG stream is drawn at full population width; ``shard=(lo,
        hi)`` restricts only the *emitted* usage rows to subscribers in
        ``[lo, hi)`` (default: everyone), so the union of any partition's
        rows is bit-identical to the whole day.  The returned traffic
        always carries the :class:`DaySkeleton` of the full day.
        """
        lo, hi = shard if shard is not None else (0, self._count)
        rows = _DayRows(self, day, lo, hi)
        rng = self.world.day_rng(day, stream=0)
        ordinal = day.toordinal()
        subscribed = (self._join <= ordinal) & (self._leave >= ordinal)
        pop_up = np.array(
            [not self.world.outages.is_down(pop, day) for pop in self._pop_names],
            dtype=bool,
        )
        observed = subscribed & pop_up[self._pop_codes]
        if not observed.any():
            return rows.traffic(protocols=())

        active = observed & (rng.random(self._count) < self._activity)
        protocol_totals: Dict[Tuple[str, WebProtocol], int] = {}
        capabilities = capabilities_on(day)
        weekly = studycalendar.weekly_factor(day)
        holiday = studycalendar.is_christmas_period(day) or studycalendar.is_new_year(
            day
        )
        # season_factor takes only two values per day (business / residential);
        # the np.where below reproduces the former per-index Python loop
        # bit-for-bit at vector speed.
        season_business = studycalendar.season_factor(day, 1.0)
        season_residential = studycalendar.season_factor(day, 0.0)

        for service in self.world.services:
            ranks, volume_affinity = self.world.affinity_columns(service.name)
            pop_adsl = service.popularity[Technology.ADSL](day)
            pop_ftth = service.popularity[Technology.FTTH](day)
            popularity = np.where(self._is_ftth, pop_ftth, pop_adsl)
            overshoot = (
                1.0
                if service.name == catalog.OTHER
                else self.world.config.adoption_overshoot
            )
            adoption = np.minimum(1.0, popularity * overshoot)
            with np.errstate(divide="ignore", invalid="ignore"):
                use_probability = np.where(
                    adoption > 0, popularity / np.maximum(adoption, 1e-12), 0.0
                )
            if holiday and service.holiday_messaging_boost:
                use_probability = np.minimum(1.0, use_probability * _HOLIDAY_USE_BOOST)
            users = (
                active
                & (ranks < adoption)
                & (rng.random(self._count) < use_probability)
            )
            indices = np.nonzero(users)[0]
            if indices.size == 0:
                continue

            vol_adsl = service.volume_down[Technology.ADSL](day)
            vol_ftth = service.volume_down[Technology.FTTH](day)
            mean_down = np.where(self._is_ftth[indices], vol_ftth, vol_adsl)
            season = np.where(
                self._business[indices], season_business, season_residential
            )
            sigma = service.volume_sigma
            noise = rng.lognormal(-0.5 * sigma * sigma, sigma, indices.size)
            base = (
                mean_down
                * self._heaviness[indices]
                * volume_affinity[indices]
                * weekly
                * season
            )
            down = base * noise
            if holiday and service.holiday_messaging_boost:
                down = down * _HOLIDAY_VOLUME_BOOST
            ratio_adsl = service.upload_ratio[Technology.ADSL](day)
            ratio_ftth = service.upload_ratio[Technology.FTTH](day)
            ratios = np.where(self._is_ftth[indices], ratio_ftth, ratio_adsl)
            # Uploads follow the subscriber's base rate with milder daily
            # noise than downloads: seeding and cloud sync are steadier
            # than bursty video fetching (and ADSL's uplink clips bursts).
            up = base * ratios * rng.lognormal(-0.18, 0.6, indices.size)
            if holiday and service.holiday_messaging_boost:
                up = up * _HOLIDAY_VOLUME_BOOST
            flow_mean = max(1.0, service.flows_per_day(day))
            flows = np.maximum(1, rng.poisson(flow_mean, indices.size))

            down_int = np.maximum(1_000, down).astype(np.int64)
            up_int = np.maximum(200, up).astype(np.int64)
            rows.add(service.name, indices, down_int, up_int, flows)
            service_total = int(down_int.sum() + up_int.sum())

            # Embedded-object noise: active non-users touch the service's
            # domains with volumes below its visit threshold (Section 4.1).
            if service.third_party is not None:
                contact = service.third_party
                nonusers = np.nonzero(active & ~users)[0]
                touched = nonusers[rng.random(nonusers.size) < contact.probability]
                if touched.size:
                    tp_down = rng.integers(
                        contact.min_bytes, contact.max_bytes + 1, touched.size
                    )
                    tp_up = np.maximum(100, tp_down // 8)
                    tp_flows = rng.integers(1, 4, touched.size)
                    rows.add(service.name, touched, tp_down, tp_up, tp_flows)
                    service_total += int(tp_down.sum() + tp_up.sum())

            for protocol, share in service.protocol_mix(day):
                label = capabilities.reported_label(protocol)
                key = (service.name, label)
                protocol_totals[key] = protocol_totals.get(key, 0) + int(
                    service_total * share
                )

        # Subscribed-but-inactive lines still emit background chatter that
        # must fail the Section 3 activity criterion; it is drawn for
        # every such line whatever range is emitted.
        background = np.nonzero(observed & ~active)[0]
        if background.size:
            rows.add(catalog.OTHER, background, *_background_chatter(rng, background.size))

        protocol_rows = tuple(
            ProtocolUsage(day=day, service=service, protocol=protocol, total_bytes=total)
            for (service, protocol), total in sorted(
                protocol_totals.items(), key=lambda item: (item[0][0], item[0][1].value)
            )
        )
        traffic = rows.traffic(protocols=protocol_rows)
        telemetry.count("usage_rows_generated", len(traffic.usage))
        return traffic

    # -- hourly tier -----------------------------------------------------------

    def generate_hourly(
        self, day: datetime.date, traffic: Optional[DayTraffic] = None
    ) -> List[HourlyVolume]:
        """Distribute the day's downloads over 10-minute bins (Fig. 4).

        Reads the full-day totals of the skeleton, so every shard of a
        day derives identical volumes.
        """
        traffic = traffic if traffic is not None else self.generate_day(day)
        rng = self.world.day_rng(day, stream=1)
        volumes: List[HourlyVolume] = []
        for technology, total in traffic.skeleton.tech_bytes_down.items():
            profile = studycalendar.diurnal_profile(day.year, technology.value)
            noise = rng.lognormal(-0.02, 0.2, BINS_PER_DAY)
            weights = np.array(profile) * noise
            weights /= weights.sum()
            for bin_index, weight in enumerate(weights):
                volumes.append(
                    HourlyVolume(
                        day=day,
                        technology=technology,
                        bin_index=bin_index,
                        bytes_down=int(total * weight),
                    )
                )
        return volumes

    # -- flow tier ---------------------------------------------------------------

    def expand_flows(
        self,
        day: datetime.date,
        traffic: Optional[DayTraffic] = None,
        max_flows_per_usage: int = 8,
    ) -> List[FlowRecord]:
        """Expand usage rows into probe-grade flow records (row view)."""
        return list(
            self.expand_flows_batch(
                day, traffic, max_flows_per_usage=max_flows_per_usage
            )
        )

    def expand_flows_batch(
        self,
        day: datetime.date,
        traffic: Optional[DayTraffic] = None,
        max_flows_per_usage: int = 8,
    ) -> FlowBatch:
        """Expand usage rows into one columnar :class:`FlowBatch`."""
        return self.expand_flows_positioned(
            day, traffic, max_flows_per_usage=max_flows_per_usage
        )[0]

    def expand_flows_positioned(
        self,
        day: datetime.date,
        traffic: Optional[DayTraffic] = None,
        max_flows_per_usage: int = 8,
    ) -> Tuple[FlowBatch, np.ndarray]:
        """The flow batch plus each flow's position in the full-day sequence.

        Per-flow totals sum exactly to the usage row's bytes; the flow
        *count* is capped (``max_flows_per_usage``) to bound record volume,
        mirroring the scale substitution of DESIGN.md §5.  The expansion
        is **born columnar**: every per-flow quantity is one NumPy draw
        over all of the day's flows (grouped by service for protocol
        mixes and server selection, by deployment inside
        :meth:`~repro.synthesis.infrastructure.ServiceInfrastructure.
        pick_servers`), and the batch columns are assembled directly —
        no per-flow Python loop, no intermediate records.

        All draws run at full-day width from ``traffic.skeleton``, as does
        the pick bookkeeping that sizes a later draw; the batch keeps the
        flows of the emitted usage rows, and every column derived from
        the draws is computed over those flows only (DESIGN.md §15).  The
        positions let order-sensitive consumers (RTT sample lists) restore
        the whole-day ordering when a day was split into shards.
        """
        traffic = traffic if traffic is not None else self.generate_day(day)
        skeleton = traffic.skeleton
        row_count = skeleton.row_count
        if row_count == 0:
            telemetry.count("flows_expanded", 0)
            return FlowBatch.of(()), np.empty(0, dtype=np.int64)
        rng = self.world.day_rng(day, stream=2)
        capabilities = capabilities_on(day)
        midnight = datetime.datetime.combine(day, datetime.time()).timestamp()

        counts = np.clip(skeleton.row_flows, 1, max_flows_per_usage)
        total = int(counts.sum())
        row_of = np.repeat(np.arange(row_count), counts)

        # Which flows the batch keeps is known before the first draw: a
        # draw is narrowed to them as soon as it is made, unless a later
        # draw is sized by it (service, protocol, deployment and template
        # picks).  When every flow is kept, columns are the draws' own
        # arrays instead of copies through an index.
        kept_rows = skeleton.emit_positions
        emit_rows = np.zeros(row_count, dtype=bool)
        emit_rows[kept_rows] = True
        emit = emit_rows[row_of]
        positions = np.nonzero(emit)[0]
        whole = positions.size == total
        keep = slice(None) if whole else positions

        def kept_among(where: np.ndarray) -> Any:
            """Index into a draw made for the flows of the mask ``where``:
            the draws of the kept flows."""
            return slice(None) if whole else emit[where]

        flow_row = row_of[keep]
        width = flow_row.size  # of every derived column
        kept_counts = counts[kept_rows]
        starts = np.zeros(kept_rows.size, dtype=np.int64)  # of each row's kept flows
        np.cumsum(kept_counts[:-1], out=starts[1:])

        # Per-usage-row Dirichlet(0.8) byte-split weights; the integer
        # remainder goes to each row's first flow (as _integer_split does).
        gamma = rng.standard_gamma(0.8, total)[keep]
        weights = gamma / np.repeat(np.add.reduceat(gamma, starts), kept_counts)
        down = np.floor(skeleton.row_bytes_down[flow_row] * weights).astype(np.int64)
        down[starts] += skeleton.row_bytes_down[kept_rows] - np.add.reduceat(
            down, starts
        )
        up = np.floor(skeleton.row_bytes_up[flow_row] * weights).astype(np.int64)
        up[starts] += skeleton.row_bytes_up[kept_rows] - np.add.reduceat(up, starts)
        packets_down = np.maximum(1, down // 1400)
        packets_up = np.maximum(1, up // 700 + packets_down // 2)

        # Start bins via inverse-CDF over each technology's diurnal curve.
        uniforms = rng.random(total)[keep]
        flow_ftth = skeleton.row_ftth[flow_row]
        bins = np.empty(width, dtype=np.int64)
        for technology in Technology:
            mask = flow_ftth == (technology is Technology.FTTH)
            if not mask.any():
                continue
            cdf = np.cumsum(
                studycalendar.diurnal_profile(day.year, technology.value)
            )
            cdf /= cdf[-1]
            bins[mask] = np.minimum(
                np.searchsorted(cdf, uniforms[mask], side="right"),
                BINS_PER_DAY - 1,
            )
        seconds_per_bin = 86_400 // BINS_PER_DAY
        ts_start = midnight + bins * seconds_per_bin + rng.uniform(0, 600, total)[keep]

        # Protocol mixes and server picks, grouped by service
        # (first-appearance order over the usage rows).  A server name is
        # an id into ``names``, the day's table of the services' domain
        # tables, until the batch's dictionary is built.
        flow_service = skeleton.row_service[row_of]
        true_protocol = np.empty(total, dtype=np.int64)  # codes into PROTOCOLS
        ips = np.empty(width, dtype=np.int64)
        name_ids = np.empty(width, dtype=np.int64)
        rtt_draw = np.empty(width, dtype=np.float64)
        names: Dict[Optional[str], int] = {}
        for code, service_name in enumerate(skeleton.services):
            mask = flow_service == code
            hits = int(np.count_nonzero(mask))
            service = self.world.service(service_name)
            infra = self.world.infrastructure_for(service_name)
            mix = service.protocol_mix(day)
            if not mix:
                true_protocol[mask] = protocol_code(WebProtocol.OTHER)
            else:
                shares = np.array([share for _, share in mix], dtype=np.float64)
                cumulative = np.cumsum(shares / shares.sum())
                picks = np.minimum(
                    np.searchsorted(cumulative, rng.random(hits), side="right"),
                    len(mix) - 1,
                )
                mix_codes = np.fromiter(
                    (protocol_code(protocol) for protocol, _ in mix),
                    np.int64, len(mix),
                )
                true_protocol[mask] = mix_codes[picks]
            servers = infra.pick_servers(day, rng, hits)
            here, ours = mask[keep], kept_among(mask)
            ips[here] = infra.addresses_of(
                day, servers.deployments[ours], servers.slots[ours]
            )
            day_id = np.fromiter(
                (names.setdefault(name, len(names)) for name in infra.domain_table),
                np.int64, len(infra.domain_table),
            )
            name_ids[here] = day_id[servers.names[ours]]
            rtt_draw[here] = servers.rtts_ms[ours]

        # Protocol-derived columns via 9-entry lookup tables.
        label_of = np.fromiter(
            (
                protocol_code(capabilities.reported_label(protocol))
                for protocol in PROTOCOLS
            ),
            np.int64, len(PROTOCOLS),
        )
        port_of = np.fromiter(
            (_server_port(protocol) for protocol in PROTOCOLS),
            np.int64, len(PROTOCOLS),
        )
        quic = true_protocol == protocol_code(WebProtocol.QUIC)
        p2p = true_protocol == protocol_code(WebProtocol.P2P)
        other = true_protocol == protocol_code(WebProtocol.OTHER)
        flow_protocol = true_protocol[keep]
        transport = np.where(
            quic[keep],
            TRANSPORTS.index(Transport.UDP),
            TRANSPORTS.index(Transport.TCP),
        )

        duration = np.minimum(
            3600.0, 1.0 + rng.lognormal(0.0, 1.0, total)[keep] * (down / 1e6)
        )
        client_port = rng.integers(1024, 65535, total)[keep]

        # Flow names: P2P flows are nameless, HTTP/QUIC/FBZERO expose the
        # domain via their own mechanism, OTHER resolves via DNS 70% of
        # the time, everything else carries the SNI.
        source_of = np.full(
            len(PROTOCOLS), name_source_code(NameSource.SNI), dtype=np.int64
        )
        source_of[protocol_code(WebProtocol.P2P)] = name_source_code(NameSource.NONE)
        source_of[protocol_code(WebProtocol.HTTP)] = name_source_code(NameSource.HOST)
        source_of[protocol_code(WebProtocol.QUIC)] = name_source_code(NameSource.QUIC)
        source_of[protocol_code(WebProtocol.FBZERO)] = name_source_code(NameSource.ZERO)
        name_source = source_of[flow_protocol]
        named = ~p2p[keep]
        other_hits = int(np.count_nonzero(other))
        if other_hits:
            resolved = rng.random(other_hits)[kept_among(other)] < 0.7
            here = other[keep]
            name_source[here] = np.where(
                resolved,
                name_source_code(NameSource.DNS),
                name_source_code(NameSource.NONE),
            )
            named[here] = resolved

        # RTT summaries: sampled on TCP non-P2P flows, jittery on P2P,
        # absent on QUIC (Tstat cannot sample UDP handshakes).
        rtt_samples = np.zeros(width, dtype=np.int64)
        rtt_min = np.zeros(width, dtype=np.float64)
        rtt_avg = np.zeros(width, dtype=np.float64)
        rtt_max = np.zeros(width, dtype=np.float64)
        sampled = ~quic & ~p2p
        sampled_hits = int(np.count_nonzero(sampled))
        if sampled_hits:
            here, ours = sampled[keep], kept_among(sampled)
            minimum = rtt_draw[here]
            average = minimum * (1.0 + rng.lognormal(-1.5, 0.8, sampled_hits)[ours])
            rtt_samples[here] = np.clip(packets_up[here] // 4, 1, 50)
            rtt_min[here] = minimum
            rtt_avg[here] = average
            rtt_max[here] = average * (
                1.0 + rng.lognormal(-1.0, 0.8, sampled_hits)[ours]
            )
        p2p_hits = int(np.count_nonzero(p2p))
        if p2p_hits:
            # Peers are far and jittery; Tstat still samples TCP P2P flows.
            here = p2p[keep]
            minimum = rtt_draw[here] * rng.lognormal(0.0, 0.5, p2p_hits)[kept_among(p2p)]
            rtt_samples[here] = 5
            rtt_min[here] = minimum
            rtt_avg[here] = minimum * 1.6
            rtt_max[here] = minimum * 3.0

        # Names and vantages are dictionary-coded in first-appearance order
        # over the kept flows; unnamed flows hold the id of ``None``.
        name_ids[~named] = names.setdefault(None, len(names))
        name_codes, name_dictionary = first_appearance_codes(name_ids, list(names))
        row_vantage, vantages = traffic.usage.canonical_codes("pop")

        batch = FlowBatch(
            FLOW_CODEC,
            {
                "client_id": skeleton.row_subscriber[flow_row],
                "server_ip": ips,
                "client_port": client_port,
                "server_port": port_of[flow_protocol],
                "transport": transport,
                "ts_start": ts_start,
                "ts_end": ts_start + duration,
                "packets_up": packets_up,
                "packets_down": packets_down,
                "bytes_up": up,
                "bytes_down": down,
                "protocol": label_of[flow_protocol],
                "server_name": name_codes,
                "name_source": name_source,
                "rtt_samples": rtt_samples,
                "rtt_min_ms": rtt_min,
                "rtt_avg_ms": rtt_avg,
                "rtt_max_ms": rtt_max,
                "vantage": np.repeat(row_vantage, kept_counts),
            },
            {
                "transport": [member.value for member in TRANSPORTS],
                "protocol": [member.value for member in PROTOCOLS],
                "server_name": name_dictionary,
                "name_source": [member.value for member in NAME_SOURCES],
                "vantage": vantages,
            },
        )
        telemetry.count("flows_expanded", len(batch))
        return batch, positions


def _background_chatter(rng: np.random.Generator, lines: int) -> np.ndarray:
    """Bytes down, bytes up and flows of ``lines`` idle lines, as rows.

    The three draws of a line interleave on the one sequential stream —
    a ``(lines, 3)`` draw fills line by line — exactly as three scalar
    draws per line would.
    """
    return rng.integers(
        (1_000, 100, 1),
        (_BACKGROUND_BYTES_DOWN, _BACKGROUND_BYTES_UP, _BACKGROUND_FLOWS + 1),
        size=(lines, 3),
    ).T


def _integer_split(total: int, weights: np.ndarray) -> np.ndarray:
    """Split ``total`` into integer parts proportional to ``weights``."""
    parts = np.floor(total * weights).astype(np.int64)
    parts[0] += total - int(parts.sum())
    return parts


def _server_port(protocol: WebProtocol) -> int:
    if protocol is WebProtocol.HTTP:
        return 80
    if protocol is WebProtocol.P2P:
        return 6881
    if protocol is WebProtocol.OTHER:
        return 5228
    return 443

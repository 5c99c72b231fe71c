"""Traffic generation: drawing measurements from the world model.

Three fidelity tiers (DESIGN.md §5), all deterministic per (seed, day):

* :meth:`TrafficGenerator.generate_day` — the **aggregate tier**: per
  (subscriber, service) daily usage rows plus per-service protocol volume
  rows.  This is exactly the output schema of the stage-1 aggregation job,
  and what the 54-month analyses consume.  The usage rows are born
  columnar: ``DayTraffic.usage`` is a
  :class:`~repro.dataflow.columnar.ColumnBatch`, a sequence of
  :class:`DailyUsage` only to whoever iterates it.
* :meth:`TrafficGenerator.generate_hourly` — 10-minute-bin volumes for the
  hour-of-day analysis (Fig. 4).
* :meth:`TrafficGenerator.expand_flows_batch` — the **flow tier**: usage
  rows expanded into one columnar :class:`~repro.tstat.flowbatch.FlowBatch`
  with server addresses, domains, per-flow protocols (as labelled by that
  day's probe software) and RTT summaries.  Used by the RTT and
  infrastructure analyses; :meth:`TrafficGenerator.expand_flows` is the
  same batch iterated into a :class:`FlowRecord` list.

Generation is vectorized per (day, service) over the subscriber axis,
one subscriber block at a time: every tier draws a block's rows from
that block's own streams (``World.day_rng(day, stream, block)``,
DESIGN.md §6), so any run of whole blocks is generated on its own and
the day is the concatenation of its blocks (DESIGN.md §15).
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataflow.columnar import (
    ColumnBatch,
    ColumnSpec,
    ColumnarCodec,
    first_appearance_codes,
)
from repro.services import catalog
from repro.synthesis import studycalendar
from repro.synthesis.population import Technology
from repro.synthesis.studycalendar import BINS_PER_DAY
from repro.synthesis.world import SUBSCRIBER_BLOCK, World
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


@dataclass(frozen=True)
class DayTraffic:
    """Everything the aggregate tier produces for one day's task.

    ``usage`` holds the rows of the task's subscriber blocks (the whole
    population unless :meth:`TrafficGenerator.generate_day` was given a
    range), block after block; ``protocols`` are the per-(service, label)
    byte sums over those blocks, so the protocol rows of a split day add
    up to the whole day's.

    Both are :class:`~repro.dataflow.columnar.ColumnBatch`\\ es: a
    sequence of records to whoever iterates them, columns to stage-1, the
    lake and the hourly and flow tiers, which never do.
    """

    day: datetime.date
    usage: Sequence[DailyUsage]
    protocols: Sequence[ProtocolUsage]


USAGE_CODEC: ColumnarCodec[DailyUsage] = ColumnarCodec(
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

PROTOCOL_CODEC: ColumnarCodec[ProtocolUsage] = ColumnarCodec(
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

HOURLY_CODEC: ColumnarCodec[HourlyVolume] = ColumnarCodec(
    columns=[
        ColumnSpec("day", "date"),
        ColumnSpec("technology", "str", enum=Technology),
        ColumnSpec("bin_index", "int"),
        ColumnSpec("bytes_down", "int"),
    ],
    record=HourlyVolume,
    zone_columns=("technology",),
    day_column="day",
)


#: ``technology`` codes of a usage batch: ``row_ftth`` cast to an integer.
_TECHNOLOGY_VALUES = (Technology.ADSL.value, Technology.FTTH.value)


class TrafficGenerator:
    """Draws daily traffic from a :class:`World`."""

    def __init__(self, world: World) -> None:
        self.world = world
        subscribers = world.population.subscribers
        self._count = len(subscribers)
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
        self._profiles: Dict[Tuple[int, Technology], np.ndarray] = {}

    # -- aggregate tier ------------------------------------------------------

    def generate_day(
        self,
        day: datetime.date,
        shard: Optional[Tuple[int, int]] = None,
    ) -> DayTraffic:
        """Usage and protocol rows for one day (empty during full outage).

        The day is drawn one subscriber block at a time, each block from
        its own streams (DESIGN.md §15): ``shard=(lo, hi)`` — block edges,
        default the whole population — draws only the blocks it covers,
        and the rows of any partition into runs of blocks, concatenated in
        range order, are the whole day's.
        """
        lo, hi = shard if shard is not None else (0, self._count)
        if any(edge % SUBSCRIBER_BLOCK and edge != self._count for edge in (lo, hi)):
            raise ValueError(f"[{lo}, {hi}) does not fall on subscriber block edges")
        rows: List[Tuple[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        protocol_totals: Dict[Tuple[str, WebProtocol], int] = {}
        for block in range(-(-lo // SUBSCRIBER_BLOCK), -(-hi // SUBSCRIBER_BLOCK)):
            self._draw_block(day, block, rows, protocol_totals)
        totals = protocol_totals.items()
        protocols = sorted((day, name, label.value, total) for (name, label), total in totals)
        traffic = DayTraffic(
            day=day,
            usage=self._usage_batch(day, rows),
            protocols=ColumnBatch.from_rows(protocols, PROTOCOL_CODEC),
        )
        telemetry.count("usage_rows_generated", len(traffic.usage))
        return traffic

    def _draw_block(
        self,
        day: datetime.date,
        block: int,
        rows: List[Tuple[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
        protocol_totals: Dict[Tuple[str, WebProtocol], int],
    ) -> None:
        """One subscriber block's usage rows (appended to ``rows`` as
        ``(service, subscribers, bytes down, bytes up, flows)`` groups) and
        its protocol volumes (added to ``protocol_totals``)."""
        start = block * SUBSCRIBER_BLOCK
        span = slice(start, min(start + SUBSCRIBER_BLOCK, self._count))
        width = span.stop - start
        ordinal = day.toordinal()
        pop_up = np.array(
            [not self.world.outages.is_down(pop, day) for pop in self._pop_names],
            dtype=bool,
        )
        observed = (
            (self._join[span] <= ordinal)
            & (self._leave[span] >= ordinal)
            & pop_up[self._pop_codes[span]]
        )
        if not observed.any():
            return

        rng = self.world.day_rng(day, stream=0, block=block)
        active = observed & (rng.random(width) < self._activity[span])
        is_ftth = self._is_ftth[span]
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
            popularity = np.where(is_ftth, pop_ftth, pop_adsl)
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
                & (ranks[span] < adoption)
                & (rng.random(width) < use_probability)
            )
            indices = start + np.nonzero(users)[0]
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
            rows.append((service.name, indices, down_int, up_int, flows))
            service_total = int(down_int.sum() + up_int.sum())

            # Embedded-object noise: active non-users touch the service's
            # domains with volumes below its visit threshold (Section 4.1).
            if service.third_party is not None:
                contact = service.third_party
                nonusers = start + np.nonzero(active & ~users)[0]
                touched = nonusers[rng.random(nonusers.size) < contact.probability]
                if touched.size:
                    tp_down = rng.integers(
                        contact.min_bytes, contact.max_bytes + 1, touched.size
                    )
                    tp_up = np.maximum(100, tp_down // 8)
                    tp_flows = rng.integers(1, 4, touched.size)
                    rows.append((service.name, touched, tp_down, tp_up, tp_flows))
                    service_total += int(tp_down.sum() + tp_up.sum())

            for protocol, share in service.protocol_mix(day):
                label = capabilities.reported_label(protocol)
                key = (service.name, label)
                protocol_totals[key] = protocol_totals.get(key, 0) + int(
                    service_total * share
                )

        # Subscribed-but-inactive lines still emit background chatter that
        # must fail the Section 3 activity criterion.
        background = start + np.nonzero(observed & ~active)[0]
        if background.size:
            rows.append(
                (catalog.OTHER, background, *_background_chatter(rng, background.size))
            )

    def _usage_batch(
        self,
        day: datetime.date,
        rows: List[Tuple[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    ) -> "ColumnBatch[DailyUsage]":
        """The drawn row groups as one usage batch, in the order drawn;
        services are coded in order of first appearance."""
        services: Dict[str, int] = {}
        service = _joined(
            [
                np.full(group[1].size, services.setdefault(group[0], len(services)))
                for group in rows
            ]
        )
        subscriber = _joined([group[1] for group in rows])
        return ColumnBatch(
            USAGE_CODEC,
            {
                "day": np.full(subscriber.size, day.toordinal()),
                "subscriber_id": subscriber,
                "technology": self._is_ftth[subscriber],
                "pop": self._pop_codes[subscriber],
                "service": service,
                "bytes_down": _joined([group[2] for group in rows]),
                "bytes_up": _joined([group[3] for group in rows]),
                "flows": _joined([group[4] for group in rows]),
            },
            {
                "day": {day.toordinal(): day},
                "technology": _TECHNOLOGY_VALUES,
                "pop": self._pop_names,
                "service": tuple(services),
            },
        )

    # -- hourly tier -----------------------------------------------------------

    def generate_hourly(
        self, day: datetime.date, traffic: Optional[DayTraffic] = None
    ) -> "ColumnBatch[HourlyVolume]":
        """Distribute the day's downloads over 10-minute bins (Fig. 4).

        Each subscriber block of ``traffic`` spreads its own per-technology
        download total with noise from its own stream, and a bin holds the
        sum over the blocks, so the volumes of a split day's tasks add up
        to the whole day's.  The table holds every bin of ADSL, then every
        bin of FTTH.
        """
        traffic = traffic if traffic is not None else self.generate_day(day)
        usage = ColumnBatch.of(traffic.usage, USAGE_CODEC)
        technologies = (Technology.ADSL, Technology.FTTH)
        blocks, block_of = np.unique(
            usage.columns["subscriber_id"] // SUBSCRIBER_BLOCK, return_inverse=True
        )
        totals = np.zeros((blocks.size, len(technologies)), dtype=np.int64)
        np.add.at(
            totals,
            (block_of, usage.equals("technology", Technology.FTTH.value).astype(np.intp)),
            usage.columns["bytes_down"],
        )
        volumes = np.zeros((len(technologies), BINS_PER_DAY), dtype=np.int64)
        for block, block_totals in zip(blocks.tolist(), totals):
            rng = self.world.day_rng(day, stream=1, block=block)
            for index, technology in enumerate(technologies):
                noise = rng.lognormal(-0.02, 0.2, BINS_PER_DAY)
                weights = self._diurnal(day.year, technology) * noise
                weights /= weights.sum()
                volumes[index] += (block_totals[index] * weights).astype(np.int64)
        return ColumnBatch(
            HOURLY_CODEC,
            {
                "day": np.full(volumes.size, day.toordinal()),
                "technology": np.repeat(np.arange(len(technologies)), BINS_PER_DAY),
                "bin_index": np.tile(np.arange(BINS_PER_DAY), len(technologies)),
                "bytes_down": volumes.ravel(),
            },
            {"day": {day.toordinal(): day}, "technology": _TECHNOLOGY_VALUES},
        )

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
        """Expand usage rows into one columnar :class:`FlowBatch`.

        Per-flow totals sum exactly to the usage row's bytes; the flow
        *count* is capped (``max_flows_per_usage``) to bound record volume,
        mirroring the scale substitution of DESIGN.md §5.  Each subscriber
        block's rows (consecutive, as :meth:`generate_day` emits them) are
        expanded on that block's own stream and the blocks' columns are
        concatenated in row order, so the batches of a split day's tasks,
        concatenated in range order, are the whole day's.  Names and
        vantages are dictionary-coded in first-appearance order over the
        batch.
        """
        traffic = traffic if traffic is not None else self.generate_day(day)
        usage = ColumnBatch.of(traffic.usage, USAGE_CODEC)
        counts = np.clip(usage.columns["flows"], 1, max_flows_per_usage)
        block_of = usage.columns["subscriber_id"] // SUBSCRIBER_BLOCK
        cuts = [0, *(np.flatnonzero(np.diff(block_of)) + 1).tolist(), len(usage)]
        names: Dict[Optional[str], int] = {}  # the services' domain tables
        blocks = [
            self._block_flows(day, int(block_of[lo]), usage[lo:hi], counts[lo:hi], names)
            for lo, hi in zip(cuts, cuts[1:])
            if hi > lo
        ]
        columns = {
            name: _joined([block[name] for block in blocks])
            for name in FLOW_CODEC.column_names()
            if name != "vantage"
        }
        columns["server_name"], name_dictionary = first_appearance_codes(
            columns["server_name"], list(names)
        )
        row_vantage, vantages = usage.canonical_codes("pop")
        columns["vantage"] = np.repeat(row_vantage, counts)
        batch = FlowBatch(
            FLOW_CODEC,
            columns,
            {
                "transport": [member.value for member in TRANSPORTS],
                "protocol": [member.value for member in PROTOCOLS],
                "server_name": name_dictionary,
                "name_source": [member.value for member in NAME_SOURCES],
                "vantage": vantages,
            },
        )
        telemetry.count("flows_expanded", len(batch))
        return batch

    def _block_flows(
        self,
        day: datetime.date,
        block: int,
        usage: "ColumnBatch[DailyUsage]",
        counts: np.ndarray,
        names: Dict[Optional[str], int],
    ) -> Dict[str, np.ndarray]:
        """The flow columns of one subscriber block's usage rows, ``counts``
        flows per row; ``server_name`` holds ids into ``names``.

        The expansion is **born columnar**: every per-flow quantity is one
        NumPy draw over all of the block's flows (grouped by service for
        protocol mixes and server selection, by deployment inside
        :meth:`~repro.synthesis.infrastructure.ServiceInfrastructure.
        pick_servers`), and the columns are assembled directly — no
        per-flow Python loop, no intermediate records.
        """
        rng = self.world.day_rng(day, stream=2, block=block)
        capabilities = capabilities_on(day)
        midnight = datetime.datetime.combine(day, datetime.time()).timestamp()
        rows = usage.columns
        row_service, services = usage.canonical_codes("service")
        total = int(counts.sum())
        flow_row = np.repeat(np.arange(len(usage)), counts)
        starts = np.zeros(len(usage), dtype=np.int64)  # each row's first flow
        np.cumsum(counts[:-1], out=starts[1:])

        # Per-usage-row Dirichlet(0.8) byte-split weights; the integer
        # remainder goes to each row's first flow.
        gamma = rng.standard_gamma(0.8, total)
        weights = gamma / np.repeat(np.add.reduceat(gamma, starts), counts)
        down = np.floor(rows["bytes_down"][flow_row] * weights).astype(np.int64)
        down[starts] += rows["bytes_down"] - np.add.reduceat(down, starts)
        up = np.floor(rows["bytes_up"][flow_row] * weights).astype(np.int64)
        up[starts] += rows["bytes_up"] - np.add.reduceat(up, starts)
        packets_down = np.maximum(1, down // 1400)
        packets_up = np.maximum(1, up // 700 + packets_down // 2)

        # Start bins via inverse-CDF over each technology's diurnal curve.
        uniforms = rng.random(total)
        flow_ftth = usage.equals("technology", Technology.FTTH.value)[flow_row]
        bins = np.empty(total, dtype=np.int64)
        for technology in Technology:
            mask = flow_ftth == (technology is Technology.FTTH)
            if not mask.any():
                continue
            cdf = np.cumsum(self._diurnal(day.year, technology))
            cdf /= cdf[-1]
            bins[mask] = np.minimum(
                np.searchsorted(cdf, uniforms[mask], side="right"),
                BINS_PER_DAY - 1,
            )
        seconds_per_bin = 86_400 // BINS_PER_DAY
        ts_start = midnight + bins * seconds_per_bin + rng.uniform(0, 600, total)

        # Protocol mixes and server picks, grouped by service
        # (first-appearance order over the usage rows).  A server name is
        # an id into ``names`` until the batch's dictionary is built.
        flow_service = row_service[flow_row]
        true_protocol = np.empty(total, dtype=np.int64)  # codes into PROTOCOLS
        ips = np.empty(total, dtype=np.int64)
        name_ids = np.empty(total, dtype=np.int64)
        rtt_draw = np.empty(total, dtype=np.float64)
        for code, service_name in enumerate(services):
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
            ips[mask] = infra.addresses_of(day, servers.deployments, servers.slots)
            day_id = np.fromiter(
                (names.setdefault(name, len(names)) for name in infra.domain_table),
                np.int64, len(infra.domain_table),
            )
            name_ids[mask] = day_id[servers.names]
            rtt_draw[mask] = servers.rtts_ms

        # Protocol-derived columns via 9-entry lookup tables.
        label_of = np.fromiter(
            (
                protocol_code(capabilities.reported_label(protocol))
                for protocol in PROTOCOLS
            ),
            np.int64, len(PROTOCOLS),
        )
        quic = true_protocol == protocol_code(WebProtocol.QUIC)
        p2p = true_protocol == protocol_code(WebProtocol.P2P)
        other = true_protocol == protocol_code(WebProtocol.OTHER)
        transport = np.where(
            quic, TRANSPORTS.index(Transport.UDP), TRANSPORTS.index(Transport.TCP)
        )

        duration = np.minimum(
            3600.0, 1.0 + rng.lognormal(0.0, 1.0, total) * (down / 1e6)
        )
        client_port = rng.integers(1024, 65535, total)

        # Flow names: OTHER resolves via DNS 70% of the time, every other
        # protocol names its flows as _NAME_SOURCE_OF says.
        name_source = _NAME_SOURCE_OF[true_protocol]
        named = ~p2p
        other_hits = int(np.count_nonzero(other))
        if other_hits:
            resolved = rng.random(other_hits) < 0.7
            name_source[other] = np.where(
                resolved,
                name_source_code(NameSource.DNS),
                name_source_code(NameSource.NONE),
            )
            named[other] = resolved

        # RTT summaries: sampled on TCP non-P2P flows, jittery on P2P,
        # absent on QUIC (Tstat cannot sample UDP handshakes).
        rtt_samples = np.zeros(total, dtype=np.int64)
        rtt_min = np.zeros(total, dtype=np.float64)
        rtt_avg = np.zeros(total, dtype=np.float64)
        rtt_max = np.zeros(total, dtype=np.float64)
        sampled = ~quic & ~p2p
        sampled_hits = int(np.count_nonzero(sampled))
        if sampled_hits:
            minimum = rtt_draw[sampled]
            average = minimum * (1.0 + rng.lognormal(-1.5, 0.8, sampled_hits))
            rtt_samples[sampled] = np.clip(packets_up[sampled] // 4, 1, 50)
            rtt_min[sampled] = minimum
            rtt_avg[sampled] = average
            rtt_max[sampled] = average * (1.0 + rng.lognormal(-1.0, 0.8, sampled_hits))
        p2p_hits = int(np.count_nonzero(p2p))
        if p2p_hits:
            # Peers are far and jittery; Tstat still samples TCP P2P flows.
            minimum = rtt_draw[p2p] * rng.lognormal(0.0, 0.5, p2p_hits)
            rtt_samples[p2p] = 5
            rtt_min[p2p] = minimum
            rtt_avg[p2p] = minimum * 1.6
            rtt_max[p2p] = minimum * 3.0

        name_ids[~named] = names.setdefault(None, len(names))  # unnamed flows
        return {
            "client_id": rows["subscriber_id"][flow_row],
            "server_ip": ips,
            "client_port": client_port,
            "server_port": _PORT_OF[true_protocol],
            "transport": transport,
            "ts_start": ts_start,
            "ts_end": ts_start + duration,
            "packets_up": packets_up,
            "packets_down": packets_down,
            "bytes_up": up,
            "bytes_down": down,
            "protocol": label_of[true_protocol],
            "server_name": name_ids,
            "name_source": name_source,
            "rtt_samples": rtt_samples,
            "rtt_min_ms": rtt_min,
            "rtt_avg_ms": rtt_avg,
            "rtt_max_ms": rtt_max,
        }

    def _diurnal(self, year: int, technology: Technology) -> np.ndarray:
        """``studycalendar.diurnal_profile`` as an array, built once per
        (year, technology) — every block of every day of the year reads it."""
        profile = self._profiles.get((year, technology))
        if profile is None:
            profile = np.array(studycalendar.diurnal_profile(year, technology.value))
            self._profiles[(year, technology)] = profile
        return profile


def _joined(parts: List[np.ndarray]) -> np.ndarray:
    """Arrays of one column end to end (a lone array as it is)."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


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


def _server_port(protocol: WebProtocol) -> int:
    if protocol is WebProtocol.HTTP:
        return 80
    if protocol is WebProtocol.P2P:
        return 6881
    if protocol is WebProtocol.OTHER:
        return 5228
    return 443


#: Server port and name source of a flow, by its (true) protocol code:
#: P2P flows are nameless, HTTP/QUIC/FBZERO expose the domain via their
#: own mechanism, everything else carries the SNI.
_PORT_OF = np.array([_server_port(protocol) for protocol in PROTOCOLS], dtype=np.int64)
_NAME_SOURCE_OF = np.full(len(PROTOCOLS), name_source_code(NameSource.SNI), dtype=np.int64)
_NAME_SOURCE_OF[protocol_code(WebProtocol.P2P)] = name_source_code(NameSource.NONE)
_NAME_SOURCE_OF[protocol_code(WebProtocol.HTTP)] = name_source_code(NameSource.HOST)
_NAME_SOURCE_OF[protocol_code(WebProtocol.QUIC)] = name_source_code(NameSource.QUIC)
_NAME_SOURCE_OF[protocol_code(WebProtocol.FBZERO)] = name_source_code(NameSource.ZERO)

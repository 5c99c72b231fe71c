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
the day is the concatenation of its blocks (DESIGN.md §15).  What
depends on the day alone is a :class:`DayPlan` that every block reads —
a row of the generator's :class:`~repro.synthesis.studyplan.StudyPlan`,
which evaluates the world's curves once over its span — so a block pays
only for its draws (DESIGN.md §5).
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.dataflow.columnar import (
    ColumnBatch,
    ColumnSpec,
    ColumnarCodec,
    first_appearance_codes,
)
from repro.services import catalog
from repro.synthesis import studycalendar
from repro.synthesis.infrastructure import (
    AddressPool,
    ServerPlan,
    addresses_in,
    grouping,
    placed,
)
from repro.synthesis.population import Technology
from repro.synthesis.studycalendar import BINS_PER_DAY
from repro.synthesis.studyplan import PROTOCOLS, ServiceDay, StudyPlan, protocol_code
from repro.synthesis.world import SUBSCRIBER_BLOCK, World
from repro.telemetry import runtime as telemetry
from repro.tstat.flow import (
    FlowRecord,
    NameSource,
    Transport,
    WebProtocol,
)
from repro.tstat.flowbatch import FLOW_CODEC, FlowBatch

#: The generator's dictionaries for the flow batch's enum columns: every
#: member in declaration order, a column holding positions in them.
NAME_SOURCES = tuple(NameSource)
TRANSPORTS = tuple(Transport)
name_source_code = NAME_SOURCES.index
#: A protocol table's ``protocol`` cells, by code into PROTOCOLS.
_PROTOCOL_VALUES = tuple(protocol.value for protocol in PROTOCOLS)

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
        # Gather indices: a subscriber's technology and business flag pick
        # a column of the day plan's (ADSL, FTTH) and season tables.
        self._ftth_index = self._is_ftth.astype(np.intp)
        self._business_index = self._business.astype(np.intp)
        self._ranks, self._volume_affinity = world.affinity_matrices()
        self._other = world.service_names().index(catalog.OTHER)
        #: Every server name of the world, and per service its domain table
        #: as ids into it: a flow batch's ``server_name`` dictionary is
        #: the names its flows use, re-coded in first-appearance order.
        names: Dict[Optional[str], int] = {}
        self._name_ids = {
            service.name: np.fromiter(
                (
                    names.setdefault(name, len(names))
                    for name in world.infrastructure_for(service.name).domain_table
                ),
                np.int64,
            )
            for service in world.services
        }
        self._unnamed = names.setdefault(None, len(names))
        self._names = list(names)
        #: Every address pool of the world's deployments, and per service
        #: each deployment's pool as an index into it.
        pools: Dict[AddressPool, int] = {}
        self._pool_ids = {
            service.name: np.array(
                [
                    pools.setdefault(deployment.pool, len(pools))
                    for deployment in world.infrastructure_for(service.name).deployments
                ]
            )
            for service in world.services
        }
        self._pools = list(pools)
        self._plan: Optional[StudyPlan] = None

    def _plan_row(self, day: datetime.date) -> Tuple[StudyPlan, int]:
        """The study plan holding ``day`` and its row in it: the plan of
        the world's span, built on first use, or a one-row plan of a day
        outside the span."""
        config = self.world.config
        if not config.start <= day <= config.end:
            return StudyPlan(self.world, day, day), 0
        if self._plan is None:
            self._plan = StudyPlan(self.world, config.start, config.end)
        return self._plan, day.toordinal() - self._plan.first

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
        plan = DayPlan(self, day)
        rows: List[Tuple[np.ndarray, ...]] = []
        protocol_totals: Dict[int, int] = {}
        for block in range(-(-lo // SUBSCRIBER_BLOCK), -(-hi // SUBSCRIBER_BLOCK)):
            self._draw_block(plan, block, rows, protocol_totals)
        traffic = DayTraffic(
            day=day,
            usage=self._usage_batch(day, rows),
            protocols=self._protocol_batch(plan, protocol_totals),
        )
        telemetry.count("usage_rows_generated", len(traffic.usage))
        return traffic

    def _draw_block(
        self,
        plan: "DayPlan",
        block: int,
        rows: List[Tuple[np.ndarray, ...]],
        protocol_totals: Dict[int, int],
    ) -> None:
        """One subscriber block's usage rows (appended to ``rows`` as one
        ``(subscribers, services, bytes down, bytes up, flows)`` group, a
        service as its row in ``world.services``) and its protocol volumes
        (added to ``protocol_totals``, keyed by the plan's protocol keys).

        The per-service loop makes only the block stream's draws, in the
        order the rows need them; :meth:`_block_volumes` then does the
        arithmetic once, over every service's users.
        """
        start = block * SUBSCRIBER_BLOCK
        span = slice(start, min(start + SUBSCRIBER_BLOCK, self._count))
        width = span.stop - start
        observed = (
            (self._join[span] <= plan.ordinal)
            & (self._leave[span] >= plan.ordinal)
            & plan.pop_up[self._pop_codes[span]]
        )
        if not observed.any():
            return

        table = plan.services
        rng = self.world.day_rng(plan.day, stream=0, block=block)
        active = observed & (rng.random(width) < self._activity[span])
        technology = self._ftth_index[span]
        adopters = active & (self._ranks[span].T < table.adoption[:, technology])
        use_probability = table.use[:, technology]
        # Per service with users: (service, users as offsets into the
        # block, download noise, upload noise, flow draws); per service
        # whose domains non-users touched: (service, those non-users,
        # bytes down, flows).
        drawn: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        touched: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        for service, adopted in enumerate(adopters.any(axis=1).tolist()):
            uniforms = rng.random(width)
            if not adopted:
                continue  # nobody in the block can use it
            chosen = adopters[service] & (uniforms < use_probability[service])
            users = chosen.nonzero()[0]
            if users.size == 0:
                continue
            mean, sigma = table.noise[service]
            down_noise = rng.lognormal(mean, sigma, users.size)
            # Uploads follow the subscriber's base rate with milder daily
            # noise than downloads: seeding and cloud sync are steadier
            # than bursty video fetching (and ADSL's uplink clips bursts).
            up_noise = rng.lognormal(-0.18, 0.6, users.size)
            flows = rng.poisson(table.flow_mean[service], users.size)
            drawn.append((service, users, down_noise, up_noise, flows))

            # Embedded-object noise: active non-users touch the service's
            # domains with volumes below its visit threshold (Section 4.1).
            contact = table.third_party[service]
            if contact is not None:
                nonusers = (active & ~chosen).nonzero()[0]
                hit = nonusers[rng.random(nonusers.size) < contact.probability]
                if hit.size:
                    down = rng.integers(contact.min_bytes, contact.max_bytes + 1, hit.size)
                    touched.append((service, hit, down, rng.integers(1, 4, hit.size)))

        groups: List[Tuple[np.ndarray, ...]] = []
        if drawn:
            group, totals = self._block_volumes(plan, start, technology, drawn, touched)
            groups.append(group)
            used = np.zeros(totals.size, dtype=bool)
            used[[draws[0] for draws in drawn]] = True
            entries = np.flatnonzero(used[table.entry_service])
            amounts = (
                totals[table.entry_service[entries]] * table.entry_share[entries]
            ).astype(np.int64)
            for key, amount in zip(table.entry_key[entries].tolist(), amounts.tolist()):
                protocol_totals[key] = protocol_totals.get(key, 0) + amount

        # Subscribed-but-inactive lines still emit background chatter that
        # must fail the Section 3 activity criterion.
        background = start + np.flatnonzero(observed & ~active)
        if background.size:
            chatter = _background_chatter(rng, background.size)
            groups.append((background, np.full(background.size, self._other), *chatter))
        if groups:
            rows.append(tuple(_joined(list(column)) for column in zip(*groups)))

    def _block_volumes(
        self,
        plan: "DayPlan",
        start: int,
        technology: np.ndarray,
        drawn: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
        touched: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]],
    ) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
        """The usage rows of a block's users and touched non-users — each
        service's users, then its touched non-users — from the draws
        :meth:`_draw_block` made, and the bytes of each service."""
        table = plan.services
        services, users, down_noise, up_noise, flow_draws = zip(*drawn)
        sizes = [offsets.size for offsets in users]
        service = np.repeat(services, sizes)
        offsets = np.concatenate(users)
        ids = start + offsets
        tech = technology[offsets]
        base = (
            table.volume[service, tech]
            * self._heaviness[ids]
            * self._volume_affinity[ids, service]
            * plan.weekly
            * plan.season[self._business_index[ids]]
        )
        down = base * np.concatenate(down_noise)
        up = base * table.ratio[service, tech] * np.concatenate(up_noise)
        boosted = table.boost[service]
        if boosted.any():
            down[boosted] *= _HOLIDAY_VOLUME_BOOST
            up[boosted] *= _HOLIDAY_VOLUME_BOOST
        down_int = np.maximum(1_000, down).astype(np.int64)
        up_int = np.maximum(200, up).astype(np.int64)
        totals = np.zeros(len(table.noise), dtype=np.int64)
        firsts = _firsts(sizes)
        totals[list(services)] = np.add.reduceat(down_int, firsts) + np.add.reduceat(
            up_int, firsts
        )
        rows = (ids, service, down_int, up_int, np.maximum(1, np.concatenate(flow_draws)))
        if not touched:
            return rows, totals

        services, hits, tp_down, tp_flows = zip(*touched)
        sizes = [hit.size for hit in hits]
        tp_down = np.concatenate(tp_down)
        tp_up = np.maximum(100, tp_down // 8)
        firsts = _firsts(sizes)
        totals[list(services)] += np.add.reduceat(tp_down, firsts) + np.add.reduceat(
            tp_up, firsts
        )
        tp_service = np.repeat(services, sizes)
        third = (start + np.concatenate(hits), tp_service, tp_down, tp_up, np.concatenate(tp_flows))
        # Each service's users, then its touched non-users.
        segment = np.concatenate([2 * service, 2 * tp_service + 1]).astype(np.int16)
        order = np.argsort(segment, kind="stable")
        return tuple(np.concatenate(pair)[order] for pair in zip(rows, third)), totals

    def _usage_batch(
        self, day: datetime.date, rows: List[Tuple[np.ndarray, ...]]
    ) -> "ColumnBatch[DailyUsage]":
        """The drawn row groups as one usage batch, in the order drawn;
        services are coded in order of first appearance."""
        subscriber, service_of, down, up, flows = (
            _joined([group[index] for group in rows]) for index in range(5)
        )
        service, services = first_appearance_codes(
            service_of, self.world.service_names()
        )
        return ColumnBatch(
            USAGE_CODEC,
            {
                "day": np.full(subscriber.size, day.toordinal()),
                "subscriber_id": subscriber,
                "technology": self._is_ftth[subscriber],
                "pop": self._pop_codes[subscriber],
                "service": service,
                "bytes_down": down,
                "bytes_up": up,
                "flows": flows,
            },
            {
                "day": {day.toordinal(): day},
                "technology": _TECHNOLOGY_VALUES,
                "pop": self._pop_names,
                "service": tuple(services),
            },
        )

    def _protocol_batch(
        self, plan: "DayPlan", protocol_totals: Dict[int, int]
    ) -> "ColumnBatch[ProtocolUsage]":
        """The day's protocol volumes, a row per key in key order, each name
        coded in order of first appearance: what ``ColumnBatch.from_rows``
        makes of the rows sorted by name."""
        keys = np.sort(np.fromiter(protocol_totals, np.intp, len(protocol_totals)))
        service, label = plan.services.keys[keys].T
        service, services = first_appearance_codes(service, self.world.service_names())
        label, labels = first_appearance_codes(label, _PROTOCOL_VALUES)
        return ColumnBatch(
            PROTOCOL_CODEC,
            {
                "day": np.full(keys.size, plan.ordinal),
                "service": service,
                "protocol": label,
                "total_bytes": [protocol_totals[key] for key in keys.tolist()],
            },
            {"service": services, "protocol": labels},
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
        plan = DayPlan(self, day)
        blocks = [
            self._block_flows(plan, int(block_of[lo]), usage[lo:hi], counts[lo:hi])
            for lo, hi in zip(cuts, cuts[1:])
            if hi > lo
        ]
        columns = {
            name: _joined([block[name] for block in blocks])
            for name in FLOW_CODEC.column_names()
            if name != "vantage"
        }
        columns["server_name"], name_dictionary = first_appearance_codes(
            columns["server_name"], self._names
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
        plan: "DayPlan",
        block: int,
        usage: "ColumnBatch[DailyUsage]",
        counts: np.ndarray,
    ) -> Dict[str, np.ndarray]:
        """The flow columns of one subscriber block's usage rows, ``counts``
        flows per row; ``server_name`` holds ids into the world's names.

        The expansion is **born columnar**: every per-flow quantity is one
        NumPy draw over all of the block's flows (grouped by service for
        protocol mixes and server selection, by deployment inside
        :meth:`~repro.synthesis.infrastructure.ServerPlan.pick`), and the
        columns are assembled directly — no per-flow Python loop, no
        intermediate records.
        """
        rng = self.world.day_rng(plan.day, stream=2, block=block)
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
        for technology, cdf in plan.diurnal_cdfs.items():
            mask = flow_ftth == (technology is Technology.FTTH)
            if not mask.any():
                continue
            bins[mask] = np.minimum(
                np.searchsorted(cdf, uniforms[mask], side="right"),
                BINS_PER_DAY - 1,
            )
        seconds_per_bin = 86_400 // BINS_PER_DAY
        ts_start = plan.midnight + bins * seconds_per_bin + rng.uniform(0, 600, total)

        # Protocol mixes and server picks, service by service (in
        # first-appearance order over the usage rows), each over its flows
        # in flow order; placed onto the flows at once.  A server name is
        # an id into the world's names until the batch's dictionary is
        # built, a server's pool an index into the world's pools.
        present, order = grouping(row_service[flow_row], len(services))
        protocols, pools, slots, names, rtts = [], [], [], [], []
        for code, hits in present:
            flows = plan.flow_service(services[code])
            if flows.mix is None:
                protocols.append(np.full(hits, protocol_code(WebProtocol.OTHER)))
            else:
                picks = np.minimum(
                    np.searchsorted(flows.mix, rng.random(hits), side="right"),
                    flows.mix_codes.size - 1,
                )
                protocols.append(flows.mix_codes[picks])
            servers = flows.servers.pick(rng, hits)
            pools.append(flows.pools[servers.deployments])
            slots.append(servers.slots)
            names.append(flows.name_ids[servers.names])
            rtts.append(servers.rtts_ms)
        true_protocol = placed(order, protocols, np.int64)  # codes into PROTOCOLS
        ips = addresses_in(
            self._pools, plan.day, placed(order, pools, np.int64), placed(order, slots, np.int64)
        )
        name_ids = placed(order, names, np.int64)
        rtt_draw = placed(order, rtts, np.float64)

        # Protocol-derived columns via the plan's 9-entry label table.
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

        name_ids[~named] = self._unnamed
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
            "protocol": plan.label_of[true_protocol],
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


class ServiceFlows(NamedTuple):
    """The flow tier's parameters of one service on one day."""

    mix: Optional[np.ndarray]  # protocol shares, cumulated (None: no mix)
    mix_codes: np.ndarray  # their protocols, as codes into PROTOCOLS
    servers: ServerPlan
    pools: np.ndarray  # each deployment's pool, as an index into the world's pools
    name_ids: np.ndarray  # the service's domain table as ids into the world's names


class DayPlan:
    """What every subscriber block of one day reads that depends on the
    day alone (DESIGN.md §5).

    One plan is made per :meth:`TrafficGenerator.generate_day` or
    :meth:`TrafficGenerator.expand_flows_batch` call and handed to each
    block, so a block pays only for its draws.  It holds the cheap facts
    of the day and reads everything the world's curves decide from its
    row of the generator's :class:`~repro.synthesis.studyplan.StudyPlan`,
    built once per generator: the aggregate tier's :attr:`services` table
    when a block first reads it, a service's :meth:`flow_service` part
    when a block first holds that service.
    """

    def __init__(self, generator: "TrafficGenerator", day: datetime.date) -> None:
        self.world = generator.world
        self.day = day
        self.ordinal = day.toordinal()
        self._plan, self._row = generator._plan_row(day)
        self.pop_up = np.array(
            [not self.world.outages.is_down(pop, day) for pop in generator._pop_names],
            dtype=bool,
        )
        #: The probe's reported label of each true protocol, both as codes.
        self.label_of = self._plan.label_of(self._row)
        self.weekly = studycalendar.weekly_factor(day)
        self.holiday = studycalendar.is_christmas_period(day) or studycalendar.is_new_year(
            day
        )
        #: season_factor takes only two values per day: residential, business.
        self.season = np.array(
            [studycalendar.season_factor(day, 0.0), studycalendar.season_factor(day, 1.0)]
        )
        #: The day's UTC midnight in epoch seconds, whatever the host's zone.
        self.midnight = (self.ordinal - datetime.date(1970, 1, 1).toordinal()) * 86400.0
        self._generator = generator
        self._flows: Dict[str, ServiceFlows] = {}

    @cached_property
    def services(self) -> ServiceDay:
        """The aggregate tier's per-service parameters (read on first use);
        on a holiday, the boosted services' use is boosted."""
        table = self._plan.services(self._row)
        if not self.holiday:
            return table
        boost = self._plan.boostable
        use = np.where(boost[:, None], np.minimum(1.0, table.use * _HOLIDAY_USE_BOOST), table.use)
        return table._replace(use=use, boost=boost)

    @cached_property
    def diurnal_cdfs(self) -> Dict[Technology, np.ndarray]:
        """Each technology's diurnal profile as a CDF over the day's bins."""
        cdfs = {}
        for technology in Technology:
            cdf = np.cumsum(self._generator._diurnal(self.day.year, technology))
            cdf /= cdf[-1]
            cdfs[technology] = cdf
        return cdfs

    def flow_service(self, name: str) -> ServiceFlows:
        """The flow tier's parameters of service ``name``, made on first use."""
        flows = self._flows.get(name)
        if flows is None:
            mix, codes = self._plan.flow_mix(self._row, name)
            flows = self._flows[name] = ServiceFlows(
                mix=mix,
                mix_codes=codes,
                servers=self._plan.servers(self._row, name, self.day),
                pools=self._generator._pool_ids[name],
                name_ids=self._generator._name_ids[name],
            )
        return flows


def _firsts(sizes: List[int]) -> np.ndarray:
    """Where each of consecutive runs of ``sizes`` elements starts."""
    firsts = np.zeros(len(sizes), dtype=np.intp)
    np.cumsum(sizes[:-1], out=firsts[1:])
    return firsts


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

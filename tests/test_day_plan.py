"""The day plan against the per-block loops it replaced.

:class:`~repro.synthesis.flowgen.DayPlan` moves everything that depends
on the day alone out of the subscriber-block loop, and the block loop
defers its volume arithmetic until every service's draws are made.  None
of it may move a single value: the generator below keeps the former
per-block bodies verbatim (``OracleGenerator``, with the former
``pick_servers`` / ``domains_on`` / ``addresses_of`` as functions), and
every batch the planned generator makes must equal the oracle's — the
same columns, dtypes and dictionaries, NaNs in the same places.
"""

import datetime
import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shards import plan_shards
from repro.dataflow.columnar import ColumnBatch, first_appearance_codes
from repro.services import catalog
from repro.synthesis import curves, studycalendar
from repro.synthesis.curves import PiecewiseLinear
from repro.synthesis.flowgen import (
    FLOW_CODEC,
    NAME_SOURCES,
    PROTOCOL_CODEC,
    PROTOCOLS,
    TRANSPORTS,
    USAGE_CODEC,
    DailyUsage,
    DayPlan,
    DayTraffic,
    FlowBatch,
    TrafficGenerator,
    _background_chatter,
    _HOLIDAY_USE_BOOST,
    _HOLIDAY_VOLUME_BOOST,
    _joined,
    _NAME_SOURCE_OF,
    _PORT_OF,
    _TECHNOLOGY_VALUES,
    name_source_code,
    protocol_code,
)
from repro.synthesis.infrastructure import ServerPicks, _fill_count, _fill_templates
from repro.synthesis.population import Technology
from repro.synthesis.studycalendar import BINS_PER_DAY
from repro.synthesis.world import SUBSCRIBER_BLOCK, World, WorldConfig
from repro.tstat.flow import NameSource, Transport, WebProtocol
from repro.tstat.versions import capabilities_on
from tests.conftest import TEST_SEED

D = datetime.date


def affinity_columns(world, service: str) -> Tuple[np.ndarray, np.ndarray]:
    """(adoption ranks, volume affinities) of one service, per subscriber."""
    index = world.service_names().index(service)
    ranks, volumes = world.affinity_matrices()
    return ranks[:, index], volumes[:, index]


class OracleGenerator(TrafficGenerator):
    """The generator as it was before the day plan: every block
    re-evaluates the day's curves and does its arithmetic service by
    service."""

    def generate_day(
        self,
        day: datetime.date,
        shard: Optional[Tuple[int, int]] = None,
    ) -> DayTraffic:
        lo, hi = shard if shard is not None else (0, self._count)
        if any(edge % SUBSCRIBER_BLOCK and edge != self._count for edge in (lo, hi)):
            raise ValueError(f"[{lo}, {hi}) does not fall on subscriber block edges")
        rows: List[Tuple[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        protocol_totals: Dict[Tuple[str, WebProtocol], int] = {}
        for block in range(-(-lo // SUBSCRIBER_BLOCK), -(-hi // SUBSCRIBER_BLOCK)):
            self._draw_block(day, block, rows, protocol_totals)
        totals = protocol_totals.items()
        # The tuple sort the live generator's array coding must reproduce.
        protocols = sorted((day, name, label.value, total) for (name, label), total in totals)
        traffic = DayTraffic(
            day=day,
            usage=self._usage_batch(day, rows),
            protocols=ColumnBatch.from_rows(protocols, PROTOCOL_CODEC),
        )
        return traffic

    def _draw_block(
        self,
        day: datetime.date,
        block: int,
        rows: List[Tuple[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
        protocol_totals: Dict[Tuple[str, WebProtocol], int],
    ) -> None:
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
            ranks, volume_affinity = affinity_columns(self.world, service.name)
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


    def expand_flows_batch(
        self,
        day: datetime.date,
        traffic: Optional[DayTraffic] = None,
        max_flows_per_usage: int = 8,
    ) -> FlowBatch:
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
        return batch

    def _block_flows(
        self,
        day: datetime.date,
        block: int,
        usage: "ColumnBatch[DailyUsage]",
        counts: np.ndarray,
        names: Dict[Optional[str], int],
    ) -> Dict[str, np.ndarray]:
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
            servers = oracle_pick_servers(infra, day, rng, hits)
            ips[mask] = oracle_addresses_of(infra, day, servers.deployments, servers.slots)
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


def oracle_domains_on(
    deployment, day: datetime.date, rng: np.random.Generator, count: int
) -> np.ndarray:
    weights = [max(0.0, curve(day)) for _, curve in deployment.domains]
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
    for index, (template, _) in enumerate(deployment.domains):
        mask = picks == index
        hits = int(np.count_nonzero(mask))
        if hits:
            ids[mask] = base + _fill_templates(template, rng, hits)
        base += _fill_count(template)
    return ids


def oracle_pick_servers(
    infra, day: datetime.date, rng: np.random.Generator, count: int
) -> ServerPicks:
    shares = infra.shares_on(day)
    if not shares:
        raise ValueError(f"{infra.service}: no deployment active on {day}")
    cumulative = np.cumsum([share for _, share in shares])
    picks = np.minimum(
        np.searchsorted(cumulative, rng.random(count)), len(shares) - 1
    )
    slots = np.empty(count, dtype=np.int64)
    names = np.empty(count, dtype=np.int64)
    rtts = np.empty(count, dtype=np.float64)
    remaps = infra._domain_layout()[1]
    for index, (deployment, _) in enumerate(shares):
        mask = picks == index
        hits = int(np.count_nonzero(mask))
        if not hits:
            continue
        active = max(1, int(deployment.active_slots(day)))
        slots[mask] = deployment.slot_offset + rng.integers(0, active, hits)
        names[mask] = remaps[index][oracle_domains_on(deployment, day, rng, hits)]
        rtts[mask] = deployment.sample_rtts_ms(rng, hits)
    return ServerPicks(picks, slots, names, rtts)


def oracle_addresses_of(
    infra, day: datetime.date, deployments: np.ndarray, slots: np.ndarray
) -> np.ndarray:
    ips = np.empty(slots.size, dtype=np.int64)
    for index, deployment in enumerate(infra.deployments):
        mask = deployments == index
        if mask.any():
            ips[mask] = deployment.pool.addresses_for(slots[mask], day)
    return ips


def assert_same_batch(planned: ColumnBatch, oracle: ColumnBatch) -> None:
    assert planned.codec is oracle.codec
    assert list(planned.columns) == list(oracle.columns)
    for name, column in oracle.columns.items():
        mine = planned.columns[name]
        assert mine.dtype == column.dtype, name
        assert np.array_equal(mine, column, equal_nan=mine.dtype.kind == "f"), name
    assert planned.dictionaries == oracle.dictionaries


def assert_same_day(planned: TrafficGenerator, oracle: OracleGenerator, day, shard=None):
    """Usage, protocol and flow batches of one day (or range) are the oracle's."""
    mine, theirs = planned.generate_day(day, shard), oracle.generate_day(day, shard)
    assert_same_batch(mine.usage, theirs.usage)
    assert_same_batch(mine.protocols, theirs.protocols)
    assert pickle.dumps(mine.protocols) == pickle.dumps(theirs.protocols)
    assert_same_batch(
        planned.expand_flows_batch(day, mine), oracle.expand_flows_batch(day, theirs)
    )
    return mine


@pytest.fixture(scope="module")
def oracle(world):
    return OracleGenerator(world)


@pytest.fixture(scope="module")
def multiblock_oracle(multiblock_world):
    return OracleGenerator(multiblock_world)


class TestPlannedDaysAreTheOracles:
    @pytest.mark.parametrize("day", [D(2016, 12, 25), D(2017, 1, 1)])
    def test_holiday_boost(self, generator, oracle, day):
        assert DayPlan(generator, day).services.boost.any()
        traffic = assert_same_day(generator, oracle, day)
        assert catalog.WHATSAPP in traffic.usage.dictionaries["service"]

    def test_august_season_factor(self, generator, oracle):
        day = D(2015, 8, 14)
        plan = DayPlan(generator, day)
        assert plan.season[1] < plan.season[0] < 1.0
        assert_same_day(generator, oracle, day)

    def test_one_pop_down(self, generator, oracle, world):
        day = D(2014, 6, 5)
        assert DayPlan(generator, day).pop_up.tolist().count(False) == 1
        traffic = assert_same_day(generator, oracle, day)
        assert len(traffic.usage)

    def test_subscribers_join_and_leave(self, generator, oracle, world):
        subscribers = world.population.subscribers
        joined = min(sub.join_date for sub in subscribers if sub.join_date > world.config.start)
        left = min(sub.leave_date for sub in subscribers if sub.leave_date)
        for day in (joined, left, left + datetime.timedelta(days=1)):
            assert_same_day(generator, oracle, day)

    def test_netflix_before_launch_is_never_planned(self, generator, oracle, world):
        """No deployment of Netflix is active yet; its servers cannot be
        picked, and a batch without Netflix must not ask."""
        day = D(2014, 6, 20)
        with pytest.raises(ValueError, match="no deployment active"):
            world.infrastructure_for(catalog.NETFLIX).pick_servers(day, np.random.default_rng(1), 3)
        traffic = assert_same_day(generator, oracle, day)
        assert catalog.NETFLIX not in traffic.usage.dictionaries["service"]

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_three_block_world_whole_and_split(
        self, multiblock_world, multiblock_generator, multiblock_oracle, parts
    ):
        """Split at block edges into ``parts`` runs of blocks, every range
        is the oracle's range."""
        count = len(multiblock_world.population)
        assert -(-count // SUBSCRIBER_BLOCK) == 3
        for day in (D(2016, 12, 25), D(2017, 4, 10)):
            for spec in plan_shards(count, parts):
                assert_same_day(multiblock_generator, multiblock_oracle, day, spec.bounds)


#: Prints a digest of one expanded flow batch, timestamps included.
_FLOW_DIGEST = """
import datetime, hashlib, pickle
from repro.synthesis.flowgen import TrafficGenerator
from repro.synthesis.world import World, WorldConfig
generator = TrafficGenerator(World(WorldConfig(seed={seed}, adsl_count=12, ftth_count=6)))
day = datetime.date(2017, 4, 12)
batch = generator.expand_flows_batch(day, generator.generate_day(day))
print(hashlib.sha256(pickle.dumps(batch)).hexdigest())
"""


def test_flow_timestamps_ignore_the_host_time_zone():
    """A day's flows start at its UTC midnight: the batch is byte-identical
    under any host time zone."""
    script = _FLOW_DIGEST.format(seed=TEST_SEED)
    digests = set()
    for zone in ("UTC", "Asia/Tokyo"):
        env = {**os.environ, "TZ": zone}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout.strip())
    generator = TrafficGenerator(World(WorldConfig(seed=TEST_SEED, adsl_count=12, ftth_count=6)))
    day = D(2017, 4, 12)
    batch = generator.expand_flows_batch(day, generator.generate_day(day))
    assert digests == {hashlib.sha256(pickle.dumps(batch)).hexdigest()}
    midnight = datetime.datetime(2017, 4, 12, tzinfo=datetime.timezone.utc).timestamp()
    assert DayPlan(generator, day).midnight == midnight


class TestServerPicksAreTheOracles:
    @pytest.mark.parametrize(
        "service, deployments",
        [(catalog.FACEBOOK, 5), (catalog.OTHER, 4), (catalog.YOUTUBE, 3), (catalog.BING, 1)],
    )
    @pytest.mark.parametrize("day", [D(2013, 8, 1), D(2015, 12, 20), D(2017, 6, 1)])
    @pytest.mark.parametrize("count", [0, 1, 257])
    def test_pick_servers(self, world, service, deployments, day, count):
        infra = world.infrastructure_for(service)
        assert len(infra.deployments) == deployments
        mine = infra.pick_servers(day, np.random.default_rng(count), count)
        theirs = oracle_pick_servers(infra, day, np.random.default_rng(count), count)
        for field, column in zip(ServerPicks._fields, theirs):
            assert getattr(mine, field).dtype == column.dtype, field
            assert np.array_equal(getattr(mine, field), column), field
        assert np.array_equal(
            infra.addresses_of(day, mine.deployments, mine.slots),
            oracle_addresses_of(infra, day, theirs.deployments, theirs.slots),
        )

    @pytest.mark.parametrize("service", [catalog.FACEBOOK, catalog.YOUTUBE, catalog.BING])
    @pytest.mark.parametrize("day", [D(2014, 1, 5), D(2015, 6, 1), D(2017, 6, 1)])
    def test_domains_on(self, world, service, day):
        for deployment in world.infrastructure_for(service).deployments:
            mine = deployment.domains_on(day, np.random.default_rng(5), 300)
            theirs = oracle_domains_on(deployment, day, np.random.default_rng(5), 300)
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)


def scanned(curve: PiecewiseLinear, day: datetime.date) -> float:
    """``PiecewiseLinear.__call__`` as a linear scan from the left."""
    knots = curve.knots
    if day <= knots[0][0]:
        return knots[0][1]
    if day >= knots[-1][0]:
        return knots[-1][1]
    for index in range(1, len(knots)):
        right_date, right_value = knots[index]
        if day <= right_date:
            left_date, left_value = knots[index - 1]
            span = float(right_date.toordinal()) - float(left_date.toordinal())
            fraction = (float(day.toordinal()) - float(left_date.toordinal())) / span
            return left_value + fraction * (right_value - left_value)
    return knots[-1][1]  # unreachable, defensive


_DAYS = st.integers(D(2013, 1, 1).toordinal(), D(2018, 12, 31).toordinal()).map(
    D.fromordinal
)
_VALUES = st.one_of(
    st.integers(-10**6, 10**6), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def _curve_and_days(draw):
    dates = sorted(draw(st.lists(_DAYS, min_size=1, max_size=6, unique=True)))
    curve = curves.PiecewiseLinear(tuple((day, draw(_VALUES)) for day in dates))
    probes = [dates[0] - datetime.timedelta(days=1), dates[-1] + datetime.timedelta(days=1)]
    probes += dates + [draw(_DAYS) for _ in range(4)]
    return curve, probes


@settings(max_examples=300, deadline=None)
@given(_curve_and_days())
def test_bisected_curve_is_the_scan(case):
    """Before, on, between and after the knots: the value the scan finds,
    as a float, bit for bit (NaN where the scan's arithmetic overflows to
    NaN); a curve called on a date returns a float."""
    curve, days = case
    with np.errstate(over="ignore", invalid="ignore"):
        mine = curve.over(np.array([day.toordinal() for day in days]))
        called = [curve(day) for day in days]
    theirs = np.array([scanned(curve, day) for day in days], dtype=np.float64)
    nan = np.isnan(theirs)
    assert np.array_equal(np.isnan(mine), nan)
    assert mine[~nan].tobytes() == theirs[~nan].tobytes()
    assert all(type(value) is float for value in called)
    assert np.array(called).tobytes() == mine.tobytes()

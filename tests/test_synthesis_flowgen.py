"""Tests for the traffic generator (aggregate, hourly and flow tiers)."""

import datetime

import numpy as np
import pytest

import repro.synthesis.flowgen as flowgen
from repro.core.shards import plan_shards
from repro.dataflow.columnar import ColumnBatch
from repro.services import catalog
from repro.synthesis.flowgen import (
    PROTOCOL_CODEC,
    USAGE_CODEC,
    TrafficGenerator,
)
from repro.synthesis.population import Technology
from repro.synthesis.studycalendar import BINS_PER_DAY
from repro.synthesis.world import SUBSCRIBER_BLOCK
from repro.tstat.flow import NameSource, Transport, WebProtocol
from repro.tstat.flowbatch import FLOW_CODEC, FlowBatch

D = datetime.date


def oracle_chatter(rng, lines):
    """The scalar loop ``_background_chatter`` replaced: three draws per
    idle line, one line after the other."""
    chatter = np.empty((3, lines), dtype=np.int64)
    for position in range(lines):
        chatter[0, position] = rng.integers(1_000, flowgen._BACKGROUND_BYTES_DOWN)
        chatter[1, position] = rng.integers(100, flowgen._BACKGROUND_BYTES_UP)
        chatter[2, position] = rng.integers(1, flowgen._BACKGROUND_FLOWS + 1)
    return chatter


@pytest.fixture(scope="module")
def day_traffic(generator):
    return generator.generate_day(D(2016, 9, 14))


class TestAggregateTier:
    def test_deterministic(self, world):
        generator = TrafficGenerator(world)
        day = D(2015, 5, 5)
        first = generator.generate_day(day)
        second = TrafficGenerator(world).generate_day(day)
        assert first == second

    def test_every_active_subscriber_has_other_row(self, day_traffic):
        by_subscriber = {}
        for row in day_traffic.usage:
            by_subscriber.setdefault(row.subscriber_id, set()).add(row.service)
        for services in by_subscriber.values():
            assert catalog.OTHER in services

    def test_background_rows_fail_activity_criterion(self, day_traffic):
        """Inactive lines emit only sub-threshold chatter (Section 3)."""
        from repro.services.thresholds import ActiveSubscriberCriterion

        criterion = ActiveSubscriberCriterion()
        by_subscriber = {}
        for row in day_traffic.usage:
            entry = by_subscriber.setdefault(row.subscriber_id, [0, 0, 0])
            entry[0] += row.flows
            entry[1] += row.bytes_down
            entry[2] += row.bytes_up
        active = sum(
            1
            for flows, down, up in by_subscriber.values()
            if criterion.is_active(flows, down, up)
        )
        total = len(by_subscriber)
        assert 0.6 < active / total < 0.95  # paper: ~80%

    def test_outage_drops_pop(self, world):
        generator = TrafficGenerator(world)
        # 2016-04-15 sits inside the pop1 hardware failure.
        traffic = generator.generate_day(D(2016, 4, 15))
        pops = {row.pop for row in traffic.usage}
        assert pops == {"pop2"}

    def test_no_rows_before_join(self, world):
        generator = TrafficGenerator(world)
        traffic = generator.generate_day(D(2013, 7, 2))
        late_joiners = {
            sub.subscriber_id
            for sub in world.population.subscribers
            if sub.join_date > D(2013, 7, 2)
        }
        assert not late_joiners & {row.subscriber_id for row in traffic.usage}

    def test_netflix_absent_before_launch(self, generator):
        traffic = generator.generate_day(D(2015, 6, 1))
        services = {row.service for row in traffic.usage}
        assert catalog.NETFLIX not in services

    def test_protocol_rows_match_usage_services(self, day_traffic):
        usage_services = {row.service for row in day_traffic.usage}
        protocol_services = {row.protocol_rows.service for row in []} or {
            row.service for row in day_traffic.protocols
        }
        # Background-only services aside, protocol rows exist for used services.
        assert protocol_services <= usage_services

    def test_protocol_volumes_close_to_usage_volumes(self, day_traffic):
        usage_total = sum(
            row.bytes_down + row.bytes_up
            for row in day_traffic.usage
            if row.flows > 5  # skip background rows (no protocol split)
        )
        protocol_total = sum(row.total_bytes for row in day_traffic.protocols)
        assert protocol_total == pytest.approx(usage_total, rel=0.1)

    def test_usage_is_columns_until_somebody_iterates(self, generator, monkeypatch):
        built = []
        construct = flowgen.DailyUsage.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            construct(self, *args, **kwargs)

        monkeypatch.setattr(flowgen.DailyUsage, "__init__", counting_init)
        usage = generator.generate_day(D(2016, 9, 14)).usage
        assert usage and len(usage) > 100 and built == []
        rows = list(usage)
        assert len(built) == len(rows) == len(usage)
        assert all(type(row) is flowgen.DailyUsage for row in rows)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_shard_batches_concatenate_to_the_whole_day(
        self, multiblock_world, multiblock_generator, shards
    ):
        generator, day = multiblock_generator, D(2016, 9, 14)
        whole = generator.generate_day(day)
        parts = [
            generator.generate_day(day, shard=spec.bounds)
            for spec in plan_shards(len(multiblock_world.population), shards)
        ]
        assert all(0 < len(part.usage) < len(whole.usage) for part in parts[: shards - 1])
        # shards draw consecutive runs of blocks of the one canonical order
        merged = ColumnBatch.concat([part.usage for part in parts], USAGE_CODEC)
        assert merged == whole.usage == list(whole.usage)
        # protocol and hourly volumes are per-block sums: the parts add up
        for volumes in (
            lambda traffic: {
                (row.service, row.protocol): row.total_bytes for row in traffic.protocols
            },
            lambda traffic: {
                (row.technology, row.bin_index): row.bytes_down
                for row in generator.generate_hourly(day, traffic)
            },
        ):
            added = {}
            for part in parts:
                for key, amount in volumes(part).items():
                    added[key] = added.get(key, 0) + amount
            assert added == volumes(whole)

    def test_a_range_off_the_block_edges_is_refused(self, multiblock_generator):
        with pytest.raises(ValueError, match="block edges"):
            multiblock_generator.generate_day(D(2016, 9, 14), shard=(0, 1000))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("prior_halves", (0, 1, 3))
    def test_chatter_draw_is_the_scalar_loop(self, seed, prior_halves):
        """Same values, and the generator left in the same state — also when
        the bit generator holds a buffered 32-bit half (odd prior draws)."""
        vector, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (vector, scalar):
            for _ in range(prior_halves):
                rng.integers(0, 10, dtype=np.int32)
        drawn = flowgen._background_chatter(vector, 1_500)
        assert drawn.dtype == np.int64 and drawn.shape == (3, 1_500)
        assert np.array_equal(drawn, oracle_chatter(scalar, 1_500))
        assert vector.bit_generator.state == scalar.bit_generator.state
        assert np.array_equal(vector.integers(0, 1 << 40, 4), scalar.integers(0, 1 << 40, 4))

    def test_codec_roundtrip(self, day_traffic):
        row = day_traffic.usage[0]
        assert USAGE_CODEC.decode(USAGE_CODEC.encode(row)) == row
        protocol_row = day_traffic.protocols[0]
        assert PROTOCOL_CODEC.decode(PROTOCOL_CODEC.encode(protocol_row)) == protocol_row

    def test_third_party_contacts_emitted(self, day_traffic, world):
        """Active non-users of Facebook still touch its domains (§4.1)."""
        from repro.services.thresholds import VisitClassifier

        classifier = VisitClassifier()
        facebook_rows = [
            row for row in day_traffic.usage if row.service == catalog.FACEBOOK
        ]
        below = [
            row
            for row in facebook_rows
            if not classifier.is_visit(
                catalog.FACEBOOK, row.bytes_down + row.bytes_up
            )
        ]
        assert below, "expected sub-threshold third-party contacts"
        # And they are a substantial share of contacting subscribers.
        assert len(below) > 0.2 * len(facebook_rows)

    def test_third_party_stays_below_threshold(self, world):
        """Generated embedded-object volumes never count as visits."""
        from repro.services.thresholds import DEFAULT_VISIT_THRESHOLDS

        for service in world.services:
            if service.third_party is None:
                continue
            threshold = DEFAULT_VISIT_THRESHOLDS[service.name]
            assert service.third_party.max_bytes * 1.2 < threshold + threshold

    def test_third_party_rows_unique_per_subscriber(self, day_traffic):
        seen = set()
        for row in day_traffic.usage:
            key = (row.subscriber_id, row.service)
            assert key not in seen, key
            seen.add(key)

    def test_christmas_whatsapp_boost(self, world):
        generator = TrafficGenerator(world)

        def whatsapp_mean(day):
            rows = [
                row
                for row in generator.generate_day(day).usage
                if row.service == catalog.WHATSAPP
            ]
            if not rows:
                return 0.0
            return sum(row.bytes_down + row.bytes_up for row in rows) / len(rows)

        christmas = whatsapp_mean(D(2016, 12, 25))
        ordinary = (whatsapp_mean(D(2016, 12, 13)) + whatsapp_mean(D(2016, 12, 14))) / 2
        assert christmas > 1.5 * ordinary


class TestHourlyTier:
    def test_bins_cover_day(self, generator):
        volumes = generator.generate_hourly(D(2016, 9, 14))
        assert len(volumes) == 2 * BINS_PER_DAY  # both technologies
        for technology in Technology:
            bins = [v.bin_index for v in volumes if v.technology is technology]
            assert sorted(bins) == list(range(BINS_PER_DAY))

    def test_total_preserved(self, generator, day_traffic):
        volumes = generator.generate_hourly(D(2016, 9, 14), day_traffic)
        hourly_total = sum(v.bytes_down for v in volumes)
        usage_total = sum(row.bytes_down for row in day_traffic.usage)
        assert hourly_total == pytest.approx(usage_total, rel=0.01)

    def test_prime_time_beats_night(self, generator):
        volumes = generator.generate_hourly(D(2016, 9, 14))
        night = sum(v.bytes_down for v in volumes if 12 <= v.bin_index < 36)
        prime = sum(v.bytes_down for v in volumes if 120 <= v.bin_index < 144)
        assert prime > night


class TestFlowTier:
    def test_bytes_conserved(self, generator, day_traffic):
        flows = generator.expand_flows(D(2016, 9, 14), day_traffic)
        flow_down = sum(flow.bytes_down for flow in flows)
        usage_down = sum(row.bytes_down for row in day_traffic.usage)
        assert flow_down == usage_down

    def test_flow_cap_respected(self, generator, day_traffic):
        flows = generator.expand_flows(D(2016, 9, 14), day_traffic, max_flows_per_usage=3)
        by_usage = {}
        for flow in flows:
            by_usage[flow.client_id] = by_usage.get(flow.client_id, 0) + 1
        max_services = max(
            sum(1 for row in day_traffic.usage if row.subscriber_id == sid)
            for sid in by_usage
        )
        assert max(by_usage.values()) <= 3 * max_services

    def test_quic_is_udp_everything_else_tcp(self, generator, day_traffic):
        flows = generator.expand_flows(D(2016, 9, 14), day_traffic)
        for flow in flows:
            if flow.protocol is WebProtocol.QUIC:
                assert flow.transport is Transport.UDP
                assert flow.rtt.samples == 0  # no TCP RTT from QUIC
            if flow.protocol in (WebProtocol.TLS, WebProtocol.HTTP2):
                assert flow.transport is Transport.TCP

    def test_p2p_flows_unnamed(self, generator, day_traffic):
        flows = generator.expand_flows(D(2016, 9, 14), day_traffic)
        p2p = [flow for flow in flows if flow.protocol is WebProtocol.P2P]
        assert p2p
        assert all(flow.server_name is None for flow in p2p)
        assert all(flow.server_port == 6881 for flow in p2p)

    def test_name_sources_match_protocols(self, generator, day_traffic):
        flows = generator.expand_flows(D(2016, 9, 14), day_traffic)
        for flow in flows:
            if flow.protocol is WebProtocol.HTTP:
                assert flow.name_source is NameSource.HOST
            elif flow.protocol in (WebProtocol.TLS, WebProtocol.SPDY, WebProtocol.HTTP2):
                assert flow.name_source is NameSource.SNI

    def test_spdy_labels_follow_probe_version(self, generator):
        """Before June 2015 the probe exported SPDY flows as TLS (event C)."""
        early_flows = generator.expand_flows(D(2015, 3, 10))
        assert not any(flow.protocol is WebProtocol.SPDY for flow in early_flows)
        late_flows = generator.expand_flows(D(2015, 9, 10))
        assert any(flow.protocol is WebProtocol.SPDY for flow in late_flows)

    def test_timestamps_within_day(self, generator, day_traffic):
        import datetime as dt

        midnight = dt.datetime.combine(D(2016, 9, 14), dt.time()).timestamp()
        flows = generator.expand_flows(D(2016, 9, 14), day_traffic)
        for flow in flows:
            assert midnight <= flow.ts_start < midnight + 86400
            assert flow.ts_end >= flow.ts_start


class TestShardedFlowTier:
    """A shard expands its own blocks' flows: concatenated in range order,
    the shards' batches are the whole day's."""

    DAY = D(2016, 9, 14)

    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 7])
    def test_shard_batches_restore_the_whole_day(
        self, multiblock_world, multiblock_generator, shards
    ):
        generator = multiblock_generator
        whole = generator.expand_flows_batch(self.DAY)
        parts = [
            generator.expand_flows_batch(
                self.DAY, generator.generate_day(self.DAY, shard=spec.bounds)
            )
            for spec in plan_shards(len(multiblock_world.population), shards)
        ]
        assert sum(1 for batch in parts if len(batch)) == min(shards, 3)
        merged = FlowBatch.concat(parts, FLOW_CODEC)
        for spec in FLOW_CODEC.columns:
            mine, theirs = merged.columns[spec.name], whole.columns[spec.name]
            if spec.kind == "str":  # codes follow each dictionary's own order
                mine = np.array(merged.dictionaries[spec.name], dtype=object)[mine]
                theirs = np.array(whole.dictionaries[spec.name], dtype=object)[theirs]
            assert mine.dtype == theirs.dtype, spec.name
            assert np.array_equal(mine, theirs), spec.name
        for batch in parts:
            self.assert_first_appearance(batch)

    @staticmethod
    def assert_first_appearance(batch):
        """Every name is used, and codes rise in order of first use."""
        codes = batch.columns["server_name"]
        names = batch.dictionaries["server_name"]
        assert len(set(names)) == len(names)
        _, first = np.unique(codes, return_index=True)
        assert first.size == len(names)
        assert np.all(np.diff(first) > 0)

    def test_unnamed_flows_hold_none_where_it_first_appears(self, multiblock_generator):
        batch = multiblock_generator.expand_flows_batch(self.DAY)
        names = batch.dictionaries["server_name"]
        unnamed = batch.equals("name_source", NameSource.NONE.value)
        assert unnamed.any() and None in names
        assert np.array_equal(batch.columns["server_name"] == names.index(None), unnamed)
        assert all(isinstance(name, str) for name in names if name is not None)


class TestIntegerSplit:
    """A usage row's bytes are split over its flows in integers that add
    back up exactly, whatever block the row belongs to."""

    DAY = D(2016, 9, 14)

    def test_sum_preserved(self, multiblock_generator):
        traffic = multiblock_generator.generate_day(self.DAY)
        flows = multiblock_generator.expand_flows_batch(self.DAY, traffic)
        usage = traffic.usage.columns
        clients = usage["subscriber_id"]
        assert np.unique(clients // SUBSCRIBER_BLOCK).size == 3
        size = int(clients.max()) + 1
        for column in ("bytes_down", "bytes_up"):
            per_flow = np.zeros(size, dtype=np.int64)
            np.add.at(per_flow, flows.columns["client_id"], flows.columns[column])
            per_row = np.zeros(size, dtype=np.int64)
            np.add.at(per_row, clients, usage[column])
            assert np.array_equal(per_flow, per_row), column

    def test_single_weight(self, multiblock_generator):
        """One flow per row: each flow carries its row's bytes whole."""
        traffic = multiblock_generator.generate_day(self.DAY)
        flows = multiblock_generator.expand_flows_batch(
            self.DAY, traffic, max_flows_per_usage=1
        )
        for column in ("subscriber_id", "bytes_down", "bytes_up"):
            flow_column = "client_id" if column == "subscriber_id" else column
            assert np.array_equal(
                flows.columns[flow_column], traffic.usage.columns[column]
            ), column

"""Lake format v2 (column chunks + zone maps): v1 equivalence, pruning,
predicate pushdown, and the telemetry counters of the pruned read path.

The contract under test: the lake's partition format is an
implementation detail.  Whatever execution style produced the archive
(serial, pooled, resumed) and whatever mix of v1/v2 partitions a lake
holds, the replayed StudyData is field-identical.
"""

import dataclasses
import datetime

import pytest

import repro.core.persistence  # noqa: F401 — registers fsck table codecs
from repro.core.config import StudyConfig
from repro.core.parallel import execute_study
from repro.core.persistence import (
    HOURLY_CODEC,
    HOURLY_TABLE,
    PROTOCOL_TABLE,
    USAGE_TABLE,
    PersistingStudy,
    replay_study,
)
from repro.dataflow.columnar import (
    ColumnBatch,
    ScanPredicate,
    encode_chunk,
    read_chunk,
    zone_map,
)
from repro.dataflow.datalake import FLOW_CODEC, DataLake
from repro.dataflow.integrity import fsck_lake, load_manifest
from repro.synthesis.flowgen import PROTOCOL_CODEC, USAGE_CODEC
from repro.synthesis.world import WorldConfig
from repro.telemetry import Telemetry, VirtualClock
from repro.telemetry.runtime import activate
from repro.tstat.flow import (
    FlowRecord,
    NameSource,
    RttSummary,
    Transport,
    WebProtocol,
)
from repro.tstat.flowbatch import FlowBatch

FLOWS_TABLE = "flows"

D = datetime.date


def small_config(seed):
    return StudyConfig(
        world=WorldConfig(
            seed=seed,
            adsl_count=30,
            ftth_count=15,
            start=D(2014, 2, 1),
            end=D(2014, 3, 31),
        ),
        day_stride=7,
        flow_days_per_month=1,
        rtt_days_per_comparison_month=1,
    )


def assert_identical(expected, actual):
    for field in dataclasses.fields(expected):
        assert getattr(expected, field.name) == getattr(actual, field.name), (
            f"StudyData.{field.name} differs"
        )


def archive(root, seed, write_format):
    lake = DataLake(root, write_format=write_format)
    data = PersistingStudy(small_config(seed), lake=lake).run()
    return lake, data


def counter_total(run_telemetry, name):
    counters = run_telemetry.snapshot().metrics.counters
    return sum(value for key, value in counters.items() if key[0] == name)


@pytest.mark.parametrize("seed", [31, 32])
class TestFormatEquivalence:
    def test_serial_replay_identical_across_formats(self, tmp_path, seed):
        lake_v1, data_v1 = archive(tmp_path / "v1", seed, "v1")
        lake_v2, data_v2 = archive(tmp_path / "v2", seed, "v2")
        assert_identical(data_v1, data_v2)  # the study itself is unaffected
        replay_v1 = replay_study(lake_v1, data_v1.months)
        replay_v2 = replay_study(lake_v2, data_v2.months)
        assert_identical(replay_v1, replay_v2)

    def test_cross_format_lake_reads_identically(self, tmp_path, seed):
        """A half-migrated lake (v1 and v2 partitions side by side) replays
        exactly like a pure-v1 archive of the same run."""
        lake_v1, data = archive(tmp_path / "v1", seed, "v1")
        mixed_root = tmp_path / "mixed"
        mixed_writer_v1 = DataLake(mixed_root, write_format="v1")
        mixed_writer_v2 = DataLake(mixed_root, write_format="v2")
        for table, codec in (
            (USAGE_TABLE, USAGE_CODEC),
            (PROTOCOL_TABLE, PROTOCOL_CODEC),
        ):
            for index, day in enumerate(lake_v1.days(table)):
                records = lake_v1.read_day(table, day, codec).collect()
                writer = mixed_writer_v2 if index % 2 else mixed_writer_v1
                writer.write_day(table, day, records, codec)
        mixed = DataLake(mixed_root)
        assert_identical(replay_study(lake_v1, data.months),
                         replay_study(mixed, data.months))
        assert fsck_lake(mixed).clean


class TestExecutionStyles:
    """Pooled and resumed runs against a v2 archive of the same seed."""

    @pytest.fixture(scope="class")
    def v2_replay(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("exec") / "v2"
        lake, data = archive(root, 31, "v2")
        return replay_study(lake, data.months), data

    def aggregate_fields_match(self, replayed, data):
        assert set(replayed.subscriber_days) == set(data.subscriber_days)
        assert replayed.protocol_rows == data.protocol_rows
        assert replayed.hourly == data.hourly
        assert replayed.service_stats == data.service_stats

    def test_pooled_run_matches_v2_replay(self, v2_replay):
        replayed, _ = v2_replay
        pooled = execute_study(small_config(31), workers=2).data
        self.aggregate_fields_match(replayed, pooled)

    def test_resumed_run_matches_v2_replay(self, v2_replay, tmp_path):
        replayed, _ = v2_replay
        checkpoints = tmp_path / "ckpt"
        execute_study(small_config(31), workers=1, checkpoint_root=checkpoints)
        resumed = execute_study(
            small_config(31), workers=1,
            checkpoint_root=checkpoints, resume=True,
        )
        assert all(
            record.source == "checkpoint" for record in resumed.report.records
        )
        self.aggregate_fields_match(replayed, resumed.data)


class TestZoneMapPruning:
    @pytest.fixture(scope="class")
    def v2_lake(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("prune") / "v2"
        lake, data = archive(root, 31, "v2")
        return lake, data

    def test_manifest_carries_zone_map(self, v2_lake):
        lake, _ = v2_lake
        day = lake.days(USAGE_TABLE)[0]
        path = lake.day_dir(USAGE_TABLE, day) / "part-0.colchunk"
        manifest = load_manifest(path)
        assert manifest.container == "colchunk"
        assert manifest.zone["day_min"] == day.isoformat()
        assert manifest.zone["day_max"] == day.isoformat()
        assert manifest.zone["rows"] == manifest.records
        assert manifest.zone["columns"]["service"]  # distinct services

    def test_pushdown_matches_full_scan_filter(self, v2_lake):
        lake, _ = v2_lake
        days = lake.days(USAGE_TABLE)
        start, end = days[0], days[-1]
        everything = lake.read_range(
            USAGE_TABLE, start, end, USAGE_CODEC
        ).collect()
        service = everything[0].service
        where = ScanPredicate.of(service=service)
        pushed = lake.read_range(
            USAGE_TABLE, start, end, USAGE_CODEC, where=where
        ).collect()
        assert pushed == [row for row in everything if row.service == service]

    def test_day_range_prunes_partitions_without_opening(self, v2_lake):
        lake, _ = v2_lake
        days = lake.days(USAGE_TABLE)
        target = days[2]
        where = ScanPredicate.of(day_range=(target, target))
        with activate(Telemetry(VirtualClock())) as telemetry:
            narrowed = lake.read_range(
                USAGE_TABLE, days[0], days[-1], USAGE_CODEC, where=where
            ).collect()
        full_day = lake.read_day(USAGE_TABLE, target, USAGE_CODEC).collect()
        assert narrowed == full_day
        pruned = counter_total(telemetry, "lake_partitions_pruned")
        assert pruned == len(days) - 1

    def test_non_matching_zone_prunes_every_partition(self, v2_lake):
        lake, _ = v2_lake
        days = lake.days(USAGE_TABLE)
        where = ScanPredicate.of(service="no-such-service")
        with activate(Telemetry(VirtualClock())) as telemetry:
            rows = lake.read_range(
                USAGE_TABLE, days[0], days[-1], USAGE_CODEC, where=where
            ).collect()
        assert rows == []
        assert counter_total(telemetry, "lake_partitions_pruned") == len(days)

    def test_columns_skipped_counter_on_empty_match(self, v2_lake):
        lake, _ = v2_lake
        day = lake.days(PROTOCOL_TABLE)[0]
        where = ScanPredicate.of(day_range=(day, day))
        path = lake.day_dir(PROTOCOL_TABLE, day) / "part-0.colchunk"
        # predicate matches the zone but no row once decoded: the chunk
        # reader decodes the predicate columns, finds nothing, and skips
        # the rest
        miss = ScanPredicate.of(protocol="no-such-protocol")
        scan = read_chunk(path, PROTOCOL_CODEC, miss)
        assert scan.rows_matched == 0
        assert scan.columns_skipped > 0
        with activate(Telemetry(VirtualClock())) as telemetry:
            rows = lake.read_day(
                PROTOCOL_TABLE, day, PROTOCOL_CODEC, where=where
            ).collect()
        assert rows  # sanity: predicate admits the day
        assert counter_total(telemetry, "lake_columns_skipped") >= 0

    def test_zone_map_is_conservative(self, v2_lake):
        """A predicate the zone admits may still match zero rows, but a
        predicate the zone rejects must match zero rows."""
        lake, _ = v2_lake
        day = lake.days(USAGE_TABLE)[0]
        path = lake.day_dir(USAGE_TABLE, day) / "part-0.colchunk"
        records = lake.read_day(USAGE_TABLE, day, USAGE_CODEC).collect()
        zone = load_manifest(path).zone
        for service in {row.service for row in records}:
            assert ScanPredicate.of(service=service).matches_zone(zone)
        rejected = ScanPredicate.of(service="definitely-absent")
        if not rejected.matches_zone(zone):
            assert not [r for r in records if r.service == "definitely-absent"]


class TestChunkRoundTrip:
    def test_zone_map_of_written_chunk(self, tmp_path):
        lake, _ = archive(tmp_path / "v2", 32, "v2")
        day = lake.days(USAGE_TABLE)[0]
        records = lake.read_day(USAGE_TABLE, day, USAGE_CODEC).collect()
        rows = [USAGE_CODEC.to_row(record) for record in records]
        zone = zone_map(USAGE_CODEC, rows, day)
        manifest = load_manifest(
            lake.day_dir(USAGE_TABLE, day) / "part-0.colchunk"
        )
        assert manifest.zone == zone

    def test_probe_records_read_back_identical_from_either_container(self, tmp_path):
        """The same flow records — floats beyond the wire precision, a
        ``None`` and an empty name, every transport, protocol and name
        source — archived as v1 lines and as a v2 chunk read back
        field-identical: at the log line's precision, an empty name as no
        name."""
        day = D(2016, 9, 14)
        members = list(zip(
            list(Transport) * 5, WebProtocol, list(NameSource) * 2
        ))
        assert {m[1] for m in members} == set(WebProtocol)
        assert {m[2] for m in members} == set(NameSource)
        records = [
            FlowRecord(
                client_id=i, server_ip=0x5DB8D800 + i, client_port=40_000 + i,
                server_port=443, transport=transport,
                ts_start=1473811200.123456789 + i / 7, ts_end=1473811260.0000005 + i / 3,
                packets_up=i, packets_down=2 * i, bytes_up=1000 * i, bytes_down=9000 * i,
                protocol=protocol,
                server_name=[None, "", f"host{i}.example.net"][i % 3],
                name_source=source,
                rtt=RttSummary(samples=i, min_ms=i / 7, avg_ms=i / 3 + 0.0005, max_ms=i * 1.1),
                vantage=f"pop{i % 2}",
            )
            for i, (transport, protocol, source) in enumerate(members)
        ]
        read_back = {}
        for write_format in ("v1", "v2"):
            lake = DataLake(tmp_path / write_format, write_format=write_format)
            lake.write_day(FLOWS_TABLE, day, records, FLOW_CODEC)
            assert fsck_lake(lake).clean
            read_back[write_format] = lake.read_day(FLOWS_TABLE, day, FLOW_CODEC).collect()
        assert read_back["v1"] == read_back["v2"]
        assert read_back["v2"] == [FLOW_CODEC.decode(FLOW_CODEC.encode(r)) for r in records]
        assert read_back["v2"] != records  # the floats were rounded...
        assert list(FlowBatch.of(records)) != read_back["v2"]  # ...on the wire only
        assert [r.server_name for r in read_back["v2"][:3]] == [None, None, "host2.example.net"]
        assert [r.ts_start for r in read_back["v2"][:2]] == [1473811200.123457, 1473811200.266314]
        assert read_back["v2"][1].rtt == RttSummary(1, 0.143, 0.334, 1.1)

    @pytest.mark.parametrize(
        "table", [USAGE_TABLE, PROTOCOL_TABLE, HOURLY_TABLE, FLOWS_TABLE]
    )
    def test_batch_is_its_rows(self, tmp_path, generator, table):
        """A batch, the list of its records and a generator over them encode
        to the same bytes, and the batch reads as that list."""
        day = D(2017, 4, 12)
        traffic = generator.generate_day(day)
        rows, codec = {
            USAGE_TABLE: lambda: (list(traffic.usage), USAGE_CODEC),
            PROTOCOL_TABLE: lambda: (list(traffic.protocols), PROTOCOL_CODEC),
            HOURLY_TABLE: lambda: (generator.generate_hourly(day, traffic), HOURLY_CODEC),
            # flow records as a probe's log holds them: at wire precision
            FLOWS_TABLE: lambda: (
                [
                    FLOW_CODEC.decode(FLOW_CODEC.encode(record))
                    for record in generator.expand_flows(day, traffic)[:500]
                ],
                FLOW_CODEC,
            ),
        }[table]()
        assert len(rows) > 3
        batch = ColumnBatch.of(rows, codec)
        assert ColumnBatch.of(batch, codec) is batch
        encoded = encode_chunk(batch, codec, day)
        assert encoded == encode_chunk(rows, codec, day)
        assert encoded == encode_chunk((row for row in rows), codec, day)
        # whatever dictionary a batch carries, the bytes are canonical
        backwards = ColumnBatch.of(rows[::-1], codec)
        assert encoded == encode_chunk(backwards[::-1], codec, day)
        stored = DataLake(tmp_path, write_format="v2").write_day(table, day, batch, codec)
        assert encoded == (stored.read_bytes(), load_manifest(stored))
        assert DataLake(tmp_path).read_day(table, day, codec).collect() == rows

        assert list(batch) == rows and batch == rows and rows == batch
        assert len(batch) == len(rows) and batch
        assert batch[0] == rows[0] and batch[-1] == rows[-1] and batch[2] == rows[2]
        assert type(batch[0]) is type(rows[0])
        assert batch[1:3] == rows[1:3] and batch[::2] == rows[::2]
        assert batch.take([2, 0]) == [rows[2], rows[0]]
        assert batch != rows[:-1] and batch != rows[1:] + rows[:1]
        with pytest.raises(IndexError):
            batch[len(rows)]
        empty = ColumnBatch.of([], codec)
        assert not empty and len(empty) == 0 and list(empty) == [] and empty == []
        halves = ColumnBatch.concat([rows[:2], batch[2:], empty], codec)
        assert halves == rows
        assert encode_chunk(halves, codec, day) == encoded

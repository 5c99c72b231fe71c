"""Lake format v2 (column chunks + zone maps): v1 equivalence, pruning,
predicate pushdown, and the telemetry counters of the pruned read path;
the chunk layout itself — format 3's byte planes, format 2 still read
through the same decode path, and a damaged header always a finding.

The contract under test: the lake's partition format is an
implementation detail.  Whatever execution style produced the archive
(serial, pooled, resumed) and whatever mix of v1/v2 partitions a lake
holds, the replayed StudyData is field-identical.
"""

import dataclasses
import datetime
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.core.persistence  # noqa: F401 — registers fsck table codecs
from repro.analytics.activity import SUBSCRIBER_DAY_CODEC, SubscriberDay
from repro.core.config import StudyConfig
from repro.core.parallel import execute_study
from repro.core.persistence import (
    HOURLY_CODEC,
    HOURLY_TABLE,
    PROTOCOL_TABLE,
    USAGE_TABLE,
    replay_study,
)
from repro.dataflow import columnar, datalake
from repro.dataflow.columnar import (
    CHUNK_MAGIC,
    Chunk,
    ColumnarCodec,
    ColumnBatch,
    ColumnSpec,
    ScanPredicate,
    dictionary_codes,
    encode_chunk,
    first_appearance_codes,
    read_chunk,
    verify_chunk,
    zone_map,
)
from repro.dataflow.datalake import FLOW_CODEC, DataLake
from repro.dataflow.integrity import (
    CORRUPT_BIT_FLIP,
    CorruptionPlan,
    CorruptionSpec,
    default_codecs,
    fsck_lake,
    load_manifest,
    write_manifest,
)
from repro.synthesis.flowgen import PROTOCOL_CODEC, USAGE_CODEC, DailyUsage
from repro.synthesis.population import Technology
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
    data = execute_study(small_config(seed), workers=1, lake=lake).data
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

    def test_read_range_span_times_the_planning(self, v2_lake, monkeypatch):
        """The span covers the listing and every manifest load it prunes by,
        not just the assembly after them."""
        lake, _ = v2_lake
        days = lake.days(USAGE_TABLE)
        clock = VirtualClock()
        loads = []

        def slow_load(path):
            loads.append(path)
            clock.advance(10.0)
            return load_manifest(path)

        monkeypatch.setattr(datalake, "load_manifest", slow_load)
        where = ScanPredicate.of(service="no-such-service")
        with activate(Telemetry(clock)) as telemetry:
            lake.read_range(USAGE_TABLE, days[0], days[-1], USAGE_CODEC, where=where)
        (span,) = [
            record for record in telemetry.snapshot().spans
            if record.name == "lake_read_range"
        ]
        assert len(loads) == len(days)
        assert span.duration >= 10.0 * len(loads)
        (planned,) = span.events
        assert dict(planned.attrs) == {"partitions": str(len(days)), "pruned": str(len(days))}

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
            HOURLY_TABLE: lambda: (list(generator.generate_hourly(day, traffic)), HOURLY_CODEC),
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


# ----------------------------------------------------------------------
# Chunk format 3: integer-coded columns as byte planes


#: Every column kind, for round trips below the record level.
EVERY_KIND_CODEC = ColumnarCodec(
    columns=[
        ColumnSpec("count", "int"),
        ColumnSpec("value", "float"),
        ColumnSpec("name", "str"),
        ColumnSpec("day", "date"),
        ColumnSpec("flag", "bool"),
    ],
    record=lambda *cells: cells,
)

INT64 = np.iinfo(np.int64)
EDGE_ROW = (INT64.min, -0.0, None, 1, False)
EDGE_FLOATS = [float("nan"), -0.0, 0.0, float("inf"), float("-inf")]


def every_kind_batch(rows, step):
    """``rows`` as an :data:`EVERY_KIND_CODEC` batch whose columns are
    strided views when ``step`` is not 1."""
    counts, values, names, ordinals, flags = zip(*rows) if rows else ((),) * 5
    ids = {}
    batch = ColumnBatch(
        EVERY_KIND_CODEC,
        {
            "count": np.array(counts, dtype="<i8"),
            "value": np.array(values, dtype="<f8"),
            "name": dictionary_codes(names, ids),
            "day": np.array(ordinals, dtype="<i8"),
            "flag": np.array(flags, dtype="?"),
        },
        {"name": list(ids)},
    )
    return batch.take(slice(None, None, step))


def split_chunk(path):
    """A chunk file as its header and its compressed column blobs."""
    blob = path.read_bytes()
    body = len(CHUNK_MAGIC) + 4
    (length,) = struct.unpack_from("<I", blob, len(CHUNK_MAGIC))
    header = json.loads(blob[body : body + length])
    base = body + length
    blobs = [
        blob[base + meta["offset"] : base + meta["offset"] + meta["nbytes"]]
        for meta in header["columns"]
    ]
    return header, blobs


def write_chunk(path, header, blobs):
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(b"".join([CHUNK_MAGIC, struct.pack("<I", len(text)), text, *blobs]))


def join_chunk(path, header, blobs):
    """Write ``header`` and ``blobs`` back as a chunk, offsets recomputed."""
    offset = 0
    for meta, blob in zip(header["columns"], blobs):
        meta["offset"], meta["nbytes"] = offset, len(blob)
        offset += len(blob)
    write_chunk(path, header, blobs)


def rewrite_header(path, change):
    header, blobs = split_chunk(path)
    change(header)
    write_chunk(path, header, blobs)


def restream(path, name, change):
    """Pass column ``name``'s decompressed stream through ``change``."""
    header, blobs = split_chunk(path)
    index = [meta["name"] for meta in header["columns"]].index(name)
    blobs[index] = zlib.compress(change(zlib.decompress(blobs[index])))
    join_chunk(path, header, blobs)


def encode_format2(records, codec):
    """The format-2 layout, kept as the oracle: each column's values' own
    little-endian bytes, compressed as they are."""
    batch = ColumnBatch.of(records, codec)
    header_columns, blobs = [], []
    for spec in codec.columns:
        array, dictionary = batch.columns[spec.name], None
        if spec.kind == "str":
            array, dictionary = batch.canonical_codes(spec.name)
        elif spec.digits is not None:
            array = np.array([round(v, spec.digits) for v in array.tolist()])
        raw = array.tobytes()
        meta = {"name": spec.name, "kind": spec.kind, "crc32": zlib.crc32(raw)}
        if dictionary is not None:
            meta["values"] = dictionary
        header_columns.append(meta)
        blobs.append(zlib.compress(raw, 6))
    header = {"format": 2, "rows": len(batch), "schema_version": 1,
              "columns": header_columns}
    return header, blobs


def rewrite_as_format2(path, codec):
    """Re-encode a stored chunk in the format-2 layout, its sidecar updated;
    returns the rows it holds.  The column CRCs stay the ones format 3
    recorded: both formats take them over the values."""
    rows = Chunk(path).scan(codec).batch
    header, blobs = encode_format2(rows, codec)
    current, _ = split_chunk(path)
    assert [m["crc32"] for m in header["columns"]] == [
        m["crc32"] for m in current["columns"]
    ]
    join_chunk(path, header, blobs)
    payload = path.read_bytes()
    write_manifest(path, dataclasses.replace(
        load_manifest(path), crc32=zlib.crc32(payload), payload_bytes=len(payload)
    ))
    assert Chunk(path).format == 2
    return rows


def usage_lake(root, rows=5):
    """A v2 lake of one small usage partition; returns it and the path."""
    day = D(2017, 4, 12)
    records = [
        DailyUsage(day, i, Technology.FTTH, f"pop-{i % 2}", "YouTube", 1000 * i, 7 * i, i)
        for i in range(rows)
    ]
    lake = DataLake(root, write_format="v2")
    return lake, lake.write_day(USAGE_TABLE, day, records, USAGE_CODEC), records


def fsck_kinds(lake):
    return [finding.kind for finding in fsck_lake(lake).findings]


class TestFormat3RoundTrip:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(INT64.min, INT64.max) | st.sampled_from([INT64.min, INT64.max]),
                st.floats() | st.sampled_from(EDGE_FLOATS),
                st.none() | st.text(max_size=3),
                st.integers(1, D.max.toordinal()),
                st.booleans(),
            ),
            max_size=40,
        ),
        step=st.sampled_from([1, 2, -1, -3]),
    )
    @example(rows=[], step=1)
    @example(rows=[EDGE_ROW], step=-1)
    @example(
        rows=[(INT64.max, value, "a", D.max.toordinal(), True) for value in EDGE_FLOATS],
        step=2,
    )
    def test_every_kind_reads_back_bit_for_bit(self, tmp_path, rows, step):
        batch = every_kind_batch(rows, step)
        payload, manifest = encode_chunk(batch, EVERY_KIND_CODEC, D(2017, 4, 12))
        contiguous = ColumnBatch(
            EVERY_KIND_CODEC,
            {name: array.copy() for name, array in batch.columns.items()},
            batch.dictionaries,
        )
        assert encode_chunk(contiguous, EVERY_KIND_CODEC, D(2017, 4, 12)) == (
            payload, manifest
        )
        path = tmp_path / "part-0.colchunk"
        path.write_bytes(payload)
        chunk = Chunk(path)
        assert chunk.format == 3 and chunk.rows == len(batch) == manifest.records
        assert chunk.check(manifest).ok
        for name in ("count", "value", "day", "flag"):  # NaN payloads and -0.0 included
            assert chunk.column(name).tobytes() == batch.columns[name].tobytes()
        flags = chunk.scan(EVERY_KIND_CODEC).batch.cells()[4]
        assert flags == batch.columns["flag"].tolist()
        assert {type(flag) for flag in flags} <= {bool}  # cells are Python bools
        names = batch.dictionaries["name"]
        stored = chunk._meta["name"]["values"]
        assert [stored[code] for code in chunk.column("name").tolist()] == [
            names[code] for code in batch.columns["name"].tolist()
        ]

    def test_integer_columns_are_planed_and_floats_are_not(self, tmp_path):
        rows = [(i * 1_000_003, i / 7, f"s{i % 3}", 735_000 + i, i % 4 == 0) for i in range(50)]
        batch = every_kind_batch(rows, 1)
        path = tmp_path / "part-0.colchunk"
        path.write_bytes(encode_chunk(batch, EVERY_KIND_CODEC, D(2017, 4, 12))[0])
        header, blobs = split_chunk(path)
        streams = {
            meta["name"]: (meta, zlib.decompress(blob))
            for meta, blob in zip(header["columns"], blobs)
        }
        codes = np.array([i % 3 for i in range(50)], dtype="<i4")
        for name, values in (
            ("count", batch.columns["count"]),
            ("name", codes),
            ("day", batch.columns["day"]),
        ):
            meta, stream = streams[name]
            raw, width = values.tobytes(), values.dtype.itemsize
            assert stream == b"".join(raw[plane::width] for plane in range(width))
            assert meta["crc32"] == zlib.crc32(raw)  # of the values, not the planes
        for name in ("value", "flag"):  # a bool's one byte is its one plane
            meta, stream = streams[name]
            assert stream == batch.columns[name].tobytes()
            assert meta["crc32"] == zlib.crc32(stream)


def unique_first_appearance_codes(codes, dictionary):
    """:func:`first_appearance_codes` by sorting the column, as it was."""
    used, first = np.unique(codes, return_index=True)
    used = used[np.argsort(first, kind="stable")]
    rank = np.zeros(len(dictionary), dtype=codes.dtype)
    rank[used] = np.arange(used.size, dtype=codes.dtype)
    return rank[codes], [dictionary[code] for code in used.tolist()]


@st.composite
def coded_columns(draw):
    """A dictionary (some entries unused) and a column of codes into it."""
    size = draw(st.integers(1, 40))
    dictionary = [f"name-{index}" for index in range(size)]
    if draw(st.booleans()):
        dictionary = tuple(dictionary)
    codes = draw(st.lists(st.integers(0, size - 1), max_size=300))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    return np.array(codes, dtype=dtype), dictionary


class TestFirstAppearanceCodes:
    @settings(max_examples=300, deadline=None)
    @given(coded_columns())
    @example((np.array([], dtype=np.int32), ["a", "b"]))  # empty column
    @example((np.array([3, 3, 3], dtype=np.int64), list("abcd")))  # one code
    @example((np.array([2, 0, 1, 0, 2], dtype=np.int32), ("x", "y", "z")))  # every code
    @example((np.array([5, 1, 5, 1], dtype=np.int64), list("abcdefgh")))  # unused entries
    def test_is_the_sorting_oracle(self, case):
        codes, dictionary = case
        mine = first_appearance_codes(codes, dictionary)
        theirs = unique_first_appearance_codes(codes, dictionary)
        assert mine[0].dtype == theirs[0].dtype == codes.dtype
        assert np.array_equal(mine[0], theirs[0])
        assert mine[1] == theirs[1] and type(mine[1]) is list
        ids = {}
        dictionary_codes([dictionary[code] for code in codes.tolist()], ids)
        assert mine[1] == list(ids)


class TestBoolColumns:
    """The ``bool`` kind (``active`` of a subscriber day) in both containers,
    and in front of a reader that predates it."""

    RECORDS = [
        SubscriberDay(D(2017, 4, 12), 7, Technology.ADSL, 20_000, 6_000, 12, True),
        SubscriberDay(D(2017, 4, 12), 8, Technology.FTTH, 10, 1, 1, False),
    ]

    def test_a_v1_line_round_trips_true_and_false(self, tmp_path):
        codec = SUBSCRIBER_DAY_CODEC
        lines = [codec.encode(record) for record in self.RECORDS]
        assert [line.rsplit("\t", 1)[1] for line in lines] == ["True", "False"]
        decoded = [codec.decode(line) for line in lines]
        assert decoded == self.RECORDS
        assert [type(record.active) for record in decoded] == [bool, bool]
        with pytest.raises(ValueError, match="not a bool cell"):
            codec.decode(lines[0].rsplit("\t", 1)[0] + "\t1")
        lake = DataLake(tmp_path)
        lake.write_day("subscriber_days", D(2017, 4, 12), self.RECORDS, codec)
        assert lake.read_day("subscriber_days", D(2017, 4, 12), codec).collect() == self.RECORDS

    def test_an_older_reader_refuses_a_bool_column_as_schema(self, tmp_path, monkeypatch):
        lake = DataLake(tmp_path, write_format="v2")
        path = lake.write_day(
            "subscriber_days", D(2017, 4, 12), self.RECORDS, SUBSCRIBER_DAY_CODEC
        )
        assert verify_chunk(path).ok and fsck_kinds(lake) == []
        older = {kind: dtype for kind, dtype in columnar._KIND_DTYPE.items() if kind != "bool"}
        monkeypatch.setattr(columnar, "_KIND_DTYPE", older)
        check = verify_chunk(path)
        assert (check.kind, check.detail) == ("schema", "unknown column kind 'bool'")
        assert fsck_kinds(lake) == ["schema"]


class TestFormat2Chunks:
    """Chunks of the previous layout stay readable through the one decode
    path: their column CRCs mean what format 3's do."""

    def test_format2_lake_fscks_clean_and_replays_the_same_study(self, tmp_path):
        lake, data = archive(tmp_path / "v2", 31, "v2")
        expected = replay_study(lake, data.months)
        codecs = default_codecs()
        rewritten = 0
        for table in lake.tables():
            for day in lake.days(table):
                for path in sorted(lake.day_dir(table, day).glob("*.colchunk")):
                    rows = rewrite_as_format2(path, codecs[table])
                    assert Chunk(path).scan(codecs[table]).batch == rows
                    rewritten += 1
        assert rewritten > 4
        assert fsck_lake(lake).clean
        assert_identical(expected, replay_study(lake, data.months))
        day = lake.days(USAGE_TABLE)[1]
        plan = CorruptionPlan.of(CorruptionSpec(USAGE_TABLE, day, CORRUPT_BIT_FLIP), seed=3)
        plan.apply(lake.root)
        assert {(f.table, f.day) for f in fsck_lake(lake).findings} == {(USAGE_TABLE, day)}

    def test_flow_chunk_of_either_format_reads_the_same(self, tmp_path, generator):
        """Flow columns at wire precision, floats among them, in format 2."""
        day = D(2017, 4, 12)
        lake = DataLake(tmp_path, write_format="v2")
        path = lake.write_day(
            FLOWS_TABLE, day, generator.expand_flows_batch(day)[:300], FLOW_CODEC
        )
        expected = lake.read_day(FLOWS_TABLE, day, FLOW_CODEC).collect()
        rewrite_as_format2(path, FLOW_CODEC)
        assert fsck_lake(lake).clean
        assert lake.read_day(FLOWS_TABLE, day, FLOW_CODEC).collect() == expected


class TestChunkHeaderDamage:
    """A header of the wrong shape is a ``schema`` finding: ``fsck`` reports
    it and never raises."""

    def test_a_newer_format_is_refused_as_schema(self, tmp_path):
        lake, path, _ = usage_lake(tmp_path)
        rewrite_header(path, lambda header: header.update(format=4))
        assert verify_chunk(path).kind == "schema"
        assert fsck_kinds(lake) == ["schema"]

    @pytest.mark.parametrize(
        "damage",
        [
            lambda header: header.update(rows="abc"),
            lambda header: header.update(rows=None),
            lambda header: header["columns"][0].pop("offset"),
            lambda header: header.update(columns=5),
            lambda header: next(
                meta for meta in header["columns"] if "values" in meta
            ).update(values=None),
        ],
        ids=[
            "rows-not-a-number",
            "rows-null",
            "column-without-offset",
            "columns-not-a-list",
            "dictionary-not-a-list",
        ],
    )
    def test_wrong_field_types_are_schema_findings(self, tmp_path, damage):
        lake, path, _ = usage_lake(tmp_path)
        rewrite_header(path, damage)
        assert verify_chunk(path).kind == "schema"
        assert fsck_kinds(lake) == ["schema"]

    def test_a_truncated_plane_stream_reports_count(self, tmp_path):
        lake, path, _ = usage_lake(tmp_path)
        restream(path, "bytes_down", lambda stream: stream[:-1])
        check = verify_chunk(path)
        assert (check.kind, check.detail) == (
            "count", "column 'bytes_down' holds 4 values, header declares 5 rows"
        )
        assert fsck_kinds(lake) == ["count"]

    def test_swapped_planes_fail_the_values_crc(self, tmp_path):
        lake, path, _ = usage_lake(tmp_path)
        restream(path, "bytes_down", lambda stream: stream[5:10] + stream[:5] + stream[10:])
        assert verify_chunk(path).kind == "checksum"
        assert fsck_kinds(lake) == ["checksum"]

"""Tests for the data-plane integrity tier: manifests, quarantine,
quality-gated admission, corruption injection, and fsck."""

import datetime
import gzip
import shutil
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro.core.persistence  # noqa: F401 — registers fsck table codecs
from repro.core.persistence import (
    HOURLY_CODEC,
    HOURLY_TABLE,
    PROTOCOL_TABLE,
    USAGE_TABLE,
    PersistingStudy,
    replay_study,
    run_replay,
)
from repro.core.config import StudyConfig
from repro.analytics.infrastructure import daily_server_census
from repro.core.study import INFRA_SERVICES, LongitudinalStudy
from repro.dataflow.columnar import ColumnBatch
from repro.dataflow.datalake import FLOW_CODEC, DataLake, LineCodec, tsv_codec
from repro.dataflow.engine import Dataset
from repro.dataflow.integrity import (
    CORRUPT_BIT_FLIP,
    CORRUPT_DROP_COLUMN,
    CORRUPT_DUPLICATE_LINE,
    CORRUPT_FOREIGN_HEADER,
    CORRUPT_TRUNCATE,
    CorruptionPlan,
    CorruptionSpec,
    DayAdmission,
    DayQualityReport,
    LakeIntegrity,
    PartitionIntegrityError,
    PartitionManifest,
    Quarantine,
    RecordDecodeError,
    default_codecs,
    fsck_lake,
    load_manifest,
    manifest_path_for,
    quarantine_tree,
    validate_policy,
    verify_partition,
    write_manifest,
)
import repro.synthesis.flowgen as flowgen
from repro.synthesis.flowgen import PROTOCOL_CODEC, USAGE_CODEC
from repro.synthesis.world import WorldConfig
from repro.tstat.flow import FlowRecord, Transport
from repro.tstat.flowbatch import FlowBatch

FLOWS_TABLE = "flows"

D = datetime.date
DAY = D(2014, 2, 3)

#: Not a CorruptionPlan kind — the bytes are sound — but one more class of
#: damage every walk must agree on: rows this build cannot decode.
DRIFTED_ROW = "drifted_row"

PAIR_CODEC: LineCodec = tsv_codec(
    from_fields=lambda fields: (int(fields[0]), fields[1]),
    to_fields=lambda pair: [str(pair[0]), pair[1]],
)


def make_lake(root, records=None, table="pairs", day=DAY, source="part-0"):
    lake = DataLake(root)
    if records is None:
        records = [(i, f"value-{i}") for i in range(20)]
    lake.write_day(table, day, records, PAIR_CODEC, source=source)
    return lake


def write_drifted_hourly(root, day, write_format, rows=4):
    """An ``hourly`` partition a newer probe build wrote: its technology
    column holds a value this build's enum does not know (software-upgrade
    drift).  Container and manifest are sound; only the rows fail."""
    newer = SimpleNamespace(value="DOCSIS")
    DataLake(root, write_format=write_format).write_day(
        HOURLY_TABLE,
        day,
        [
            SimpleNamespace(
                day=day, technology=newer, bin_index=i, bytes_down=100 + i
            )
            for i in range(rows)
        ],
        HOURLY_CODEC,
    )


def write_drifted_flows(root, day, rows=4):
    """A v2 ``flows`` partition whose second row a newer probe labelled with
    a protocol this build's :class:`WebProtocol` does not know."""
    records = [
        FlowRecord(
            client_id=i, server_ip=10 + i, client_port=1000 + i, server_port=443,
            transport=Transport.TCP, ts_start=float(i), ts_end=i + 1.0,
            server_name=f"host{i}.example",
        )
        for i in range(rows)
    ]
    records[1].protocol = SimpleNamespace(value="gopher")
    DataLake(root, write_format="v2").write_day(FLOWS_TABLE, day, records, FLOW_CODEC)


def write_dateless_hourly(root, day, rows=4):
    """An ``hourly`` chunk from a foreign (or buggy) producer: column CRCs,
    header and sidecar all agree, but the second row's ``day`` is ordinal
    0, which no :class:`datetime.date` has — a value that cannot become a
    cell, let alone a record."""

    class ForeignBatch(ColumnBatch):
        def zone(self, partition_day):  # the producer's zone map names the day
            return {
                "day_min": partition_day.isoformat(),
                "day_max": partition_day.isoformat(),
                "rows": len(self),
                "columns": {"technology": ["adsl"]},
            }

    ordinals = np.full(rows, day.toordinal())
    ordinals[1] = 0
    batch = ForeignBatch(
        HOURLY_CODEC,
        {
            "day": ordinals,
            "technology": np.zeros(rows),
            "bin_index": np.arange(rows),
            "bytes_down": 100 + np.arange(rows),
        },
        {"technology": ["adsl"]},
    )
    DataLake(root, write_format="v2").write_day(HOURLY_TABLE, day, batch, HOURLY_CODEC)


def finding_kinds(findings, table, day):
    return [f.kind for f in findings if (f.table, f.day) == (table, day)]


def assert_walks_agree(lake, scratch, damaged, codecs):
    """``fsck``, ``fsck --quarantine`` and guarded reads take one walk.

    ``damaged`` lists ``(table, day, codec, error)`` per damaged partition
    of ``lake``: each walker must record the same findings for it, the
    two quarantining walkers must leave the same ``_quarantine`` tree —
    also after a second pass — and a strict read must raise ``error``
    naming the partition.
    """
    expected = fsck_lake(lake, codecs=codecs).findings
    assert not (lake.root / "_quarantine").exists()

    def fsck_quarantine(copy):
        return fsck_lake(copy, codecs=codecs, quarantine=True).findings

    def quarantine_read(copy):
        context = LakeIntegrity.for_lake_root(copy.root, policy="quarantine")
        for table, day, codec, _ in damaged:
            copy.read_day(table, day, codec, context).collect()
        return context.findings

    trees = []
    for name, walker in (("fsck", fsck_quarantine), ("read", quarantine_read)):
        copy = copy_lake(lake, scratch / name / "lake")
        for attempt in ("first pass", "second pass"):
            found = walker(copy)
            for table, day, _, _ in damaged:
                assert finding_kinds(found, table, day) == finding_kinds(
                    expected, table, day
                ), (name, attempt, table, day)
            trees.append(quarantine_tree(copy.root / "_quarantine"))
    assert trees[0]  # something was quarantined...
    assert all(tree == trees[0] for tree in trees)  # ...once, identically

    skip = LakeIntegrity.for_lake_root(lake.root, policy="skip")
    for table, day, codec, error in damaged:
        lake.read_day(table, day, codec, skip).collect()
        assert finding_kinds(skip.findings, table, day) == finding_kinds(
            expected, table, day
        )
        with pytest.raises(error) as excinfo:
            lake.read_day(table, day, codec, LakeIntegrity()).collect()
        assert table in str(excinfo.value) and "part-0" in str(excinfo.value)
    assert not (lake.root / "_quarantine").exists()


class TestRecordDecodeError:
    def test_message_names_all_context(self):
        error = RecordDecodeError(
            "bad int", table="usage", day=DAY, source="pop1.tsv.gz",
            line_number=17,
        )
        message = str(error)
        assert "usage" in message
        assert "2014-02-03" in message
        assert "pop1.tsv.gz" in message
        assert "line 17" in message
        assert "bad int" in message

    def test_with_context_fills_only_missing_fields(self):
        error = RecordDecodeError("bad", source="a.tsv.gz")
        enriched = error.with_context(
            table="usage", day=DAY, source="IGNORED", line_number=3
        )
        assert enriched.table == "usage"
        assert enriched.source == "a.tsv.gz"  # original wins
        assert enriched.line_number == 3

    def test_is_a_value_error(self):
        assert issubclass(RecordDecodeError, ValueError)


class TestPartitionManifest:
    def test_sidecar_written_with_partition(self, tmp_path):
        lake = make_lake(tmp_path / "lake")
        path = lake.day_dir("pairs", DAY) / "part-0.tsv.gz"
        manifest = load_manifest(path)
        assert manifest is not None
        assert manifest.records == 20
        assert manifest.payload_bytes > 0

    def test_json_round_trip(self):
        manifest = PartitionManifest(
            records=5, crc32=123456, payload_bytes=99, schema_version=2
        )
        assert PartitionManifest.from_json(manifest.to_json()) == manifest

    def test_missing_sidecar_is_none(self, tmp_path):
        path = tmp_path / "orphan.tsv.gz"
        assert load_manifest(path) is None

    def test_unreadable_sidecar_raises(self, tmp_path):
        lake = make_lake(tmp_path / "lake")
        path = lake.day_dir("pairs", DAY) / "part-0.tsv.gz"
        manifest_path_for(path).write_text("{not json")
        with pytest.raises(PartitionIntegrityError, match="manifest"):
            load_manifest(path)

    def test_identical_records_identical_bytes(self, tmp_path):
        """mtime=0 gzip writes make partitions byte-deterministic."""
        lake_a = make_lake(tmp_path / "a")
        lake_b = make_lake(tmp_path / "b")
        path_a = lake_a.day_dir("pairs", DAY) / "part-0.tsv.gz"
        path_b = lake_b.day_dir("pairs", DAY) / "part-0.tsv.gz"
        assert path_a.read_bytes() == path_b.read_bytes()
        assert (
            manifest_path_for(path_a).read_text()
            == manifest_path_for(path_b).read_text()
        )


class TestVerifyPartition:
    def test_clean_partition_verifies(self, tmp_path):
        lake = make_lake(tmp_path / "lake")
        path = lake.day_dir("pairs", DAY) / "part-0.tsv.gz"
        check = verify_partition(path)
        assert check.ok and check.kind == ""

    def test_torn_gzip_detected(self, tmp_path):
        lake = make_lake(tmp_path / "lake")
        path = lake.day_dir("pairs", DAY) / "part-0.tsv.gz"
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        check = verify_partition(path)
        assert not check.ok and check.kind == "torn"

    def test_count_mismatch_detected(self, tmp_path):
        lake = make_lake(tmp_path / "lake")
        path = lake.day_dir("pairs", DAY) / "part-0.tsv.gz"
        lines = gzip.decompress(path.read_bytes())
        path.write_bytes(gzip.compress(lines + b"21\textra\n"))
        check = verify_partition(path)
        assert not check.ok and check.kind == "count"

    def test_content_change_detected_as_checksum(self, tmp_path):
        lake = make_lake(tmp_path / "lake")
        path = lake.day_dir("pairs", DAY) / "part-0.tsv.gz"
        text = gzip.decompress(path.read_bytes()).decode()
        altered = text.replace("value-0", "value-X", 1)
        path.write_bytes(gzip.compress(altered.encode()))
        check = verify_partition(path)
        assert not check.ok and check.kind == "checksum"

    def test_comment_lines_do_not_affect_crc(self, tmp_path):
        """The CRC covers payload lines only, as readers skip comments."""
        lake = make_lake(tmp_path / "lake")
        path = lake.day_dir("pairs", DAY) / "part-0.tsv.gz"
        text = gzip.decompress(path.read_bytes()).decode()
        path.write_bytes(gzip.compress(("# harmless note\n" + text).encode()))
        assert verify_partition(path).ok

    def test_foreign_schema_header_detected(self, tmp_path):
        lake = make_lake(tmp_path / "lake")
        path = lake.day_dir("pairs", DAY) / "part-0.tsv.gz"
        text = gzip.decompress(path.read_bytes()).decode()
        path.write_bytes(gzip.compress(("#tstat-log v99\n" + text).encode()))
        check = verify_partition(path)
        assert not check.ok and check.kind == "schema"


class TestPolicies:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            validate_policy("lenient")
        with pytest.raises(ValueError, match="policy"):
            LakeIntegrity(policy="lenient")

    def _corrupt_line(self, lake):
        path = lake.day_dir("pairs", DAY) / "part-0.tsv.gz"
        text = gzip.decompress(path.read_bytes()).decode()
        lines = text.splitlines(keepends=True)
        lines[4] = "not-an-int\toops\n"
        path.write_bytes(gzip.compress("".join(lines).encode()))
        return path

    def test_strict_record_error_names_partition_and_line(self, tmp_path):
        lake = make_lake(tmp_path / "lake")
        self._corrupt_line(lake)
        integrity = LakeIntegrity(policy="strict", verify_checksums=False)
        with pytest.raises(RecordDecodeError) as excinfo:
            lake.read_day("pairs", DAY, PAIR_CODEC, integrity).collect()
        message = str(excinfo.value)
        assert "pairs" in message
        assert "2014-02-03" in message
        assert "line 5" in message

    def test_strict_partition_error_names_partition(self, tmp_path):
        lake = make_lake(tmp_path / "lake")
        self._corrupt_line(lake)  # stale manifest -> checksum failure
        integrity = LakeIntegrity(policy="strict", verify_checksums=True)
        with pytest.raises(PartitionIntegrityError) as excinfo:
            lake.read_day("pairs", DAY, PAIR_CODEC, integrity).collect()
        message = str(excinfo.value)
        assert "pairs" in message and "part-0" in message

    def test_quarantine_routes_bad_line_with_provenance(self, tmp_path):
        lake = make_lake(tmp_path / "lake")
        self._corrupt_line(lake)
        integrity = LakeIntegrity(
            policy="quarantine",
            verify_checksums=False,
            quarantine=Quarantine(lake.root / "_quarantine"),
        )
        rows = lake.read_day("pairs", DAY, PAIR_CODEC, integrity).collect()
        assert len(rows) == 19
        tree = quarantine_tree(lake.root / "_quarantine")
        assert list(tree) == ["pairs/day=2014-02-03/part-0.bad"]
        entry = tree["pairs/day=2014-02-03/part-0.bad"]
        assert entry.startswith("5\t")  # line number
        assert "not-an-int" in entry

    def test_quarantined_table_hidden_from_tables(self, tmp_path):
        lake = make_lake(tmp_path / "lake")
        self._corrupt_line(lake)
        integrity = LakeIntegrity.for_lake_root(lake.root, policy="quarantine")
        lake.read_day(
            "pairs", DAY, PAIR_CODEC,
            LakeIntegrity(policy="quarantine", verify_checksums=False,
                          quarantine=integrity.quarantine),
        ).collect()
        assert lake.tables() == ["pairs"]

    def test_skip_drops_bad_lines_without_persisting(self, tmp_path):
        lake = make_lake(tmp_path / "lake")
        self._corrupt_line(lake)
        integrity = LakeIntegrity(policy="skip", verify_checksums=False)
        rows = lake.read_day("pairs", DAY, PAIR_CODEC, integrity).collect()
        assert len(rows) == 19
        assert not (lake.root / "_quarantine").exists()
        report = integrity.ledger.report_for(DAY)
        assert report.quarantined == 1
        assert report.decoded == 19

    def test_unguarded_read_raises_typed_error_with_context(self, tmp_path):
        lake = make_lake(tmp_path / "lake")
        self._corrupt_line(lake)
        with pytest.raises(RecordDecodeError) as excinfo:
            lake.read_day("pairs", DAY, PAIR_CODEC).collect()
        assert excinfo.value.line_number == 5
        assert excinfo.value.table == "pairs"


class TestDayQuality:
    def test_quality_fraction(self):
        report = DayQualityReport(day=DAY, decoded=99, quarantined=1,
                                  expected=100)
        assert report.quality == pytest.approx(0.99)

    def test_failed_partition_counts_expected_as_lost(self):
        report = DayQualityReport(day=DAY, decoded=0, expected=50,
                                  partitions=1, failed_partitions=1)
        assert report.quality == 0.0

    def test_empty_undamaged_day_is_perfect(self):
        assert DayQualityReport(day=DAY).quality == 1.0

    def test_admission_thresholds(self):
        admission = DayAdmission(min_quality=0.9)
        good = DayQualityReport(day=DAY, decoded=95, quarantined=5,
                                expected=100)
        bad = DayQualityReport(day=DAY + datetime.timedelta(days=1),
                               decoded=10, quarantined=90, expected=100)
        assert admission.admit(good)
        assert not admission.admit(bad)
        assert admission.excluded == [DAY + datetime.timedelta(days=1)]
        assert len(admission.quality_dicts()) == 2

    def test_admission_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            DayAdmission(min_quality=1.5)


class TestCorruptionPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            CorruptionSpec("pairs", DAY, "meteor_strike")

    def test_missing_partition_rejected(self, tmp_path):
        lake = make_lake(tmp_path / "lake")
        plan = CorruptionPlan.of(
            CorruptionSpec("pairs", DAY, CORRUPT_TRUNCATE, source="absent")
        )
        with pytest.raises(FileNotFoundError):
            plan.apply(lake.root)

    def test_deterministic_across_identical_lakes(self, tmp_path):
        other = DAY + datetime.timedelta(days=1)
        plan = CorruptionPlan.of(
            CorruptionSpec("pairs", DAY, CORRUPT_BIT_FLIP),
            CorruptionSpec("pairs", other, CORRUPT_DUPLICATE_LINE),
            seed=9,
        )
        blobs = []
        for name in ("a", "b"):
            lake = make_lake(tmp_path / name)
            lake.write_day(
                "pairs", other, [(i, f"o-{i}") for i in range(9)], PAIR_CODEC
            )
            plan.apply(lake.root)
            blobs.append(
                (lake.day_dir("pairs", DAY) / "part-0.tsv.gz").read_bytes()
                + (lake.day_dir("pairs", other) / "part-0.tsv.gz").read_bytes()
            )
        assert blobs[0] == blobs[1]

    def test_every_kind_detected_by_fsck(self, tmp_path):
        expected_kind = {
            CORRUPT_TRUNCATE: "torn",
            CORRUPT_BIT_FLIP: "torn",  # gzip container fails to decode
            CORRUPT_DROP_COLUMN: "checksum",
            CORRUPT_DUPLICATE_LINE: "count",
            CORRUPT_FOREIGN_HEADER: "schema",
            DRIFTED_ROW: "record",
        }
        codecs = {"pairs": PAIR_CODEC.decode}
        for kind, finding_kind in expected_kind.items():
            if kind == DRIFTED_ROW:
                # PAIR_CODEC writes any key but only reads back an int
                records = [("zero", "value-0")] + [(i, "v") for i in range(9)]
                lake = make_lake(tmp_path / kind / "lake", records)
                error = RecordDecodeError
            else:
                lake = make_lake(tmp_path / kind / "lake")
                CorruptionPlan.of(
                    CorruptionSpec("pairs", DAY, kind), seed=3
                ).apply(lake.root)
                error = PartitionIntegrityError
            report = fsck_lake(lake, codecs=codecs)
            assert not report.clean, kind
            assert finding_kind in report.kinds(), (kind, report.kinds())
            assert_walks_agree(
                lake, tmp_path / kind, [("pairs", DAY, PAIR_CODEC, error)], codecs
            )


class TestFsck:
    def test_clean_lake_zero_false_positives(self, tmp_path):
        lake = make_lake(tmp_path / "lake")
        lake.write_day("pairs", DAY + datetime.timedelta(days=1),
                       [(9, "z")], PAIR_CODEC)
        report = fsck_lake(lake, codecs={"pairs": PAIR_CODEC.decode})
        assert report.clean
        assert report.partitions_scanned == 2
        assert report.records_decoded == 21

    def test_finding_names_partition(self, tmp_path):
        lake = make_lake(tmp_path / "lake")
        CorruptionPlan.of(
            CorruptionSpec("pairs", DAY, CORRUPT_TRUNCATE)
        ).apply(lake.root)
        report = fsck_lake(lake, decode=False)
        (finding,) = report.findings
        assert finding.table == "pairs"
        assert finding.day == DAY
        assert finding.source == "part-0"
        assert "part-0" in finding.render()

    def test_missing_manifest_reported(self, tmp_path):
        lake = make_lake(tmp_path / "lake")
        path = lake.day_dir("pairs", DAY) / "part-0.tsv.gz"
        manifest_path_for(path).unlink()
        report = fsck_lake(lake, decode=False)
        assert report.kinds() == {"manifest": 1}

    def test_record_level_findings_with_codec(self, tmp_path):
        lake = make_lake(tmp_path / "lake")
        path = lake.day_dir("pairs", DAY) / "part-0.tsv.gz"
        text = gzip.decompress(path.read_bytes()).decode()
        altered = text.replace("0\tvalue-0", "zero\tvalue-0", 1)
        path.write_bytes(gzip.compress(altered.encode()))
        write_manifest(path, _recompute_manifest(path))  # structural pass ok
        report = fsck_lake(lake, codecs={"pairs": PAIR_CODEC.decode})
        assert report.kinds() == {"record": 1}
        assert "line 1" in report.findings[0].detail

    def test_quarantine_option_routes_findings(self, tmp_path):
        lake = make_lake(tmp_path / "lake")
        CorruptionPlan.of(
            CorruptionSpec("pairs", DAY, CORRUPT_TRUNCATE)
        ).apply(lake.root)
        report = fsck_lake(lake, decode=False, quarantine=True)
        assert report.quarantined_partitions == 1
        tree = quarantine_tree(lake.root / "_quarantine")
        assert list(tree) == ["pairs/day=2014-02-03/part-0.partition"]

    def test_report_serializes(self, tmp_path):
        import json

        lake = make_lake(tmp_path / "lake")
        report = fsck_lake(lake, decode=False)
        parsed = json.loads(json.dumps(report.to_dict()))
        assert parsed["clean"] is True
        assert parsed["partitions_scanned"] == 1
        assert "\n".join(report.summary_lines())


def _recompute_manifest(path):
    from repro.dataflow.integrity import PayloadDigest, is_payload_line

    digest = PayloadDigest()
    text = gzip.decompress(path.read_bytes()).decode()
    for line in text.splitlines(keepends=True):
        if is_payload_line(line):
            digest.add_line(line)
    return digest.manifest()


class TestGuardPartitions:
    def test_suppresses_failing_partition_tail(self):
        def good():
            return iter([1, 2, 3])

        def bad():
            yield 10
            raise OSError("torn")

        seen = []
        dataset = Dataset.from_partitions([good, bad]).guard_partitions(
            lambda index, exc: seen.append((index, type(exc).__name__)) or True
        )
        assert dataset.collect() == [1, 2, 3, 10]
        assert seen == [(1, "OSError")]

    def test_reraises_when_handler_declines(self):
        def bad():
            raise ValueError("boom")
            yield  # pragma: no cover

        dataset = Dataset.from_partitions([bad]).guard_partitions(
            lambda index, exc: False
        )
        with pytest.raises(ValueError, match="boom"):
            dataset.collect()


def replay_config():
    return StudyConfig(
        world=WorldConfig(
            seed=31,
            adsl_count=30,
            ftth_count=15,
            start=D(2014, 2, 1),
            end=D(2014, 3, 31),
        ),
        day_stride=7,
        flow_days_per_month=1,
        rtt_days_per_comparison_month=1,
    )


@pytest.fixture(scope="module")
def pristine_lake(tmp_path_factory):
    """A small archived lake, kept pristine — tests copy it."""
    root = tmp_path_factory.mktemp("pristine") / "lake"
    lake = DataLake(root)
    PersistingStudy(replay_config(), lake=lake).run()
    return lake


def copy_lake(pristine, destination):
    shutil.copytree(pristine.root, destination)
    return DataLake(destination)


class TestQualityGatedReplay:
    def test_clean_quarantine_replay_matches_plain(self, pristine_lake, tmp_path):
        """No corruption: quarantine mode is identical to the plain path."""
        lake = copy_lake(pristine_lake, tmp_path / "lake")
        plain = replay_study(lake, [])
        result = run_replay(lake, [], policy="quarantine")
        assert result.data == plain
        assert not (lake.root / "_quarantine").exists() or not quarantine_tree(
            lake.root / "_quarantine"
        )
        assert all(r.status == "completed" for r in result.report.records)
        assert all(
            q["quality"] == 1.0 for q in result.report.data_quality
        )

    def test_deterministic_under_corruption(self, pristine_lake, tmp_path):
        """Same plan + same lake bytes: two quarantine runs are identical."""
        days = pristine_lake.days(USAGE_TABLE)
        plan = CorruptionPlan.of(
            CorruptionSpec(USAGE_TABLE, days[1], CORRUPT_BIT_FLIP),
            CorruptionSpec(PROTOCOL_TABLE, days[2], CORRUPT_DUPLICATE_LINE),
            seed=11,
        )
        outcomes = []
        for name in ("one", "two"):
            lake = copy_lake(pristine_lake, tmp_path / name)
            plan.apply(lake.root)
            result = run_replay(
                lake, [], policy="quarantine", min_day_quality=0.999
            )
            outcomes.append(
                (
                    result.data,
                    quarantine_tree(lake.root / "_quarantine"),
                    result.report.data_quality,
                    [r.to_dict() for r in result.report.records],
                )
            )
        assert outcomes[0][0] == outcomes[1][0]  # field-for-field StudyData
        assert outcomes[0][1] == outcomes[1][1]  # identical quarantine trees
        assert outcomes[0][2] == outcomes[1][2]  # identical quality reports
        assert outcomes[0][3] == outcomes[1][3]

    def test_corrupt_days_excluded_and_flagged(self, pristine_lake, tmp_path):
        """One fully corrupt day and one partially corrupt day: the run
        completes in quarantine mode and gates per the threshold."""
        lake = copy_lake(pristine_lake, tmp_path / "lake")
        days = lake.days(USAGE_TABLE)
        full, partial = days[1], days[3]
        specs = [
            CorruptionSpec(table, full, CORRUPT_TRUNCATE)
            for table in lake.tables()
            if full in lake.days(table)
        ] + [CorruptionSpec(PROTOCOL_TABLE, partial, CORRUPT_DUPLICATE_LINE)]
        CorruptionPlan.of(*specs, seed=4).apply(lake.root)
        result = run_replay(
            lake, [], policy="quarantine", min_day_quality=0.999
        )
        by_day = {r.day: r for r in result.report.records}
        assert by_day[full].status == "excluded"
        assert by_day[partial].status == "excluded"
        assert full not in result.data.subscriber_days
        clean_day = days[0]
        assert by_day[clean_day].status == "completed"
        assert clean_day in result.data.subscriber_days
        quality = {q["day"]: q for q in result.report.data_quality}
        assert quality[full.isoformat()]["quality"] == 0.0
        assert 0.0 < quality[partial.isoformat()]["quality"] < 1.0

    def test_low_threshold_admits_partial_day(self, pristine_lake, tmp_path):
        lake = copy_lake(pristine_lake, tmp_path / "lake")
        partial = lake.days(PROTOCOL_TABLE)[0]
        CorruptionPlan.of(
            CorruptionSpec(PROTOCOL_TABLE, partial, CORRUPT_TRUNCATE)
        ).apply(lake.root)
        result = run_replay(lake, [], policy="quarantine", min_day_quality=0.1)
        by_day = {r.day: r for r in result.report.records}
        assert by_day[partial].status == "completed"
        quality = {q["day"]: q for q in result.report.data_quality}
        assert quality[partial.isoformat()]["quality"] < 1.0  # still flagged

    def test_strict_replay_raises_typed_error_naming_partition(
        self, pristine_lake, tmp_path
    ):
        lake = copy_lake(pristine_lake, tmp_path / "lake")
        day = lake.days(USAGE_TABLE)[0]
        CorruptionPlan.of(
            CorruptionSpec(USAGE_TABLE, day, CORRUPT_TRUNCATE)
        ).apply(lake.root)
        with pytest.raises(PartitionIntegrityError) as excinfo:
            run_replay(lake, [], policy="strict")
        assert USAGE_TABLE in str(excinfo.value)
        assert "part-0" in str(excinfo.value)

    def test_fsck_finds_all_injected_corruptions(self, pristine_lake, tmp_path):
        lake = copy_lake(pristine_lake, tmp_path / "lake")
        days = lake.days(USAGE_TABLE)
        plan = CorruptionPlan.of(
            CorruptionSpec(USAGE_TABLE, days[0], CORRUPT_TRUNCATE),
            CorruptionSpec(USAGE_TABLE, days[1], CORRUPT_BIT_FLIP),
            CorruptionSpec(PROTOCOL_TABLE, days[2], CORRUPT_DUPLICATE_LINE),
            CorruptionSpec(PROTOCOL_TABLE, days[3], CORRUPT_FOREIGN_HEADER),
            seed=2,
        )
        touched = plan.apply(lake.root)
        report = fsck_lake(lake)
        found = {(f.table, f.day, f.source) for f in report.findings}
        expected = {
            (spec.table, spec.day, spec.source) for spec in plan.specs
        }
        assert expected <= found, report.findings
        assert len(report.findings) == len(touched)  # zero false positives


@pytest.fixture(scope="module")
def pristine_v2_lake(tmp_path_factory):
    """The same study archived as v2 column chunks, kept pristine."""
    root = tmp_path_factory.mktemp("pristine_v2") / "lake"
    lake = DataLake(root, write_format="v2")
    PersistingStudy(replay_config(), lake=lake).run()
    return lake


class TestChunkCorruption:
    """Binary corruption of v2 column-chunk partitions: fsck must detect
    every injected fault, line-oriented kinds must refuse to apply."""

    def test_binary_kinds_detected_with_zero_false_positives(
        self, pristine_v2_lake, tmp_path
    ):
        lake = copy_lake(pristine_v2_lake, tmp_path / "lake")
        days = lake.days(USAGE_TABLE)
        plan = CorruptionPlan.of(
            CorruptionSpec(USAGE_TABLE, days[0], CORRUPT_TRUNCATE),
            CorruptionSpec(USAGE_TABLE, days[1], CORRUPT_BIT_FLIP),
            CorruptionSpec(PROTOCOL_TABLE, days[2], CORRUPT_TRUNCATE),
            CorruptionSpec(PROTOCOL_TABLE, days[3], CORRUPT_BIT_FLIP),
            seed=7,
        )
        touched = plan.apply(lake.root)
        assert all(path.name.endswith(".colchunk") for path in touched)
        report = fsck_lake(lake)
        found = {(f.table, f.day, f.source) for f in report.findings}
        expected = {
            (spec.table, spec.day, spec.source) for spec in plan.specs
        }
        assert expected <= found, report.findings
        assert len(report.findings) == len(touched)  # zero false positives
        table_codecs = {USAGE_TABLE: USAGE_CODEC, PROTOCOL_TABLE: PROTOCOL_CODEC}
        damaged = [
            (spec.table, spec.day, table_codecs[spec.table], PartitionIntegrityError)
            for spec in plan.specs
        ]
        # one more kind: sound bytes whose rows this build cannot decode
        write_drifted_hourly(lake.root, days[4], "v2")
        damaged.append((HOURLY_TABLE, days[4], HOURLY_CODEC, RecordDecodeError))
        drifted = finding_kinds(fsck_lake(lake).findings, HOURLY_TABLE, days[4])
        assert drifted == ["record"] * 4  # each bad row named, as for v1
        # and one more: sound bytes holding a value that cannot become a cell
        write_dateless_hourly(lake.root, days[5])
        damaged.append((HOURLY_TABLE, days[5], HOURLY_CODEC, RecordDecodeError))
        report = fsck_lake(lake)  # never raises on damage
        dateless = [f for f in report.findings if f.day == days[5]]
        assert [(f.table, f.kind) for f in dateless] == [(HOURLY_TABLE, "record")]
        assert dateless[0].detail.startswith("line 2: ")  # its stored row number
        with pytest.raises(RecordDecodeError, match="line 2"):  # unguarded read
            lake.read_day(HOURLY_TABLE, days[5], HOURLY_CODEC).collect()
        skip = LakeIntegrity.for_lake_root(lake.root, policy="skip")
        survivors = lake.read_day(HOURLY_TABLE, days[5], HOURLY_CODEC, skip).collect()
        assert [row.bin_index for row in survivors] == [0, 2, 3]  # the read finishes
        assert skip.ledger.report_for(days[5]).quality == 0.75
        # the same contract for the flow table: an out-of-enum protocol is
        # the row's failure, typed and named under strict, routed otherwise
        write_drifted_flows(lake.root, days[6])
        damaged.append((FLOWS_TABLE, days[6], FLOW_CODEC, RecordDecodeError))
        with pytest.raises(RecordDecodeError, match="line 2.*gopher"):
            lake.read_day(FLOWS_TABLE, days[6], FLOW_CODEC, LakeIntegrity()).collect()
        context = LakeIntegrity.for_lake_root(tmp_path / "scratch", policy="quarantine")
        kept = lake.read_day(FLOWS_TABLE, days[6], FLOW_CODEC, context).collect()
        assert [row.client_id for row in kept] == [0, 2, 3]
        assert finding_kinds(context.findings, FLOWS_TABLE, days[6]) == ["record"]
        (bad,) = (tmp_path / "scratch" / "_quarantine").rglob("*.bad")
        assert "gopher" in bad.read_text()
        assert_walks_agree(lake, tmp_path / "walks", damaged, default_codecs())

    def test_line_oriented_kinds_refuse_binary_chunks(
        self, pristine_v2_lake, tmp_path
    ):
        lake = copy_lake(pristine_v2_lake, tmp_path / "lake")
        day = lake.days(USAGE_TABLE)[0]
        for kind in (
            CORRUPT_DUPLICATE_LINE,
            CORRUPT_DROP_COLUMN,
            CORRUPT_FOREIGN_HEADER,
        ):
            plan = CorruptionPlan.of(CorruptionSpec(USAGE_TABLE, day, kind))
            with pytest.raises(ValueError, match="line-oriented"):
                plan.apply(lake.root)
        assert fsck_lake(lake).clean  # refused plans left the lake intact

    def test_corruption_is_deterministic_on_chunks(
        self, pristine_v2_lake, tmp_path
    ):
        day = pristine_v2_lake.days(USAGE_TABLE)[0]
        plan = CorruptionPlan.of(
            CorruptionSpec(USAGE_TABLE, day, CORRUPT_BIT_FLIP), seed=5
        )
        blobs = []
        for name in ("one", "two"):
            lake = copy_lake(pristine_v2_lake, tmp_path / name)
            touched = plan.apply(lake.root)
            blobs.append(touched[0].read_bytes())
        assert blobs[0] == blobs[1]

    def test_quarantine_replay_gates_corrupt_v2_day(
        self, pristine_v2_lake, tmp_path
    ):
        lake = copy_lake(pristine_v2_lake, tmp_path / "lake")
        days = lake.days(USAGE_TABLE)
        bad = days[1]
        specs = [
            CorruptionSpec(table, bad, CORRUPT_BIT_FLIP)
            for table in lake.tables()
            if bad in lake.days(table)
        ]
        CorruptionPlan.of(*specs, seed=3).apply(lake.root)
        result = run_replay(
            lake, [], policy="quarantine", min_day_quality=0.999
        )
        by_day = {r.day: r for r in result.report.records}
        assert by_day[bad].status == "excluded"
        assert bad not in result.data.subscriber_days
        assert by_day[days[0]].status == "completed"

    def test_strict_replay_names_chunk_partition(
        self, pristine_v2_lake, tmp_path
    ):
        lake = copy_lake(pristine_v2_lake, tmp_path / "lake")
        day = lake.days(USAGE_TABLE)[0]
        CorruptionPlan.of(
            CorruptionSpec(USAGE_TABLE, day, CORRUPT_TRUNCATE)
        ).apply(lake.root)
        with pytest.raises(PartitionIntegrityError) as excinfo:
            run_replay(lake, [], policy="strict")
        assert USAGE_TABLE in str(excinfo.value)
        assert "part-0" in str(excinfo.value)

    def test_verified_walks_open_each_chunk_once(
        self, pristine_v2_lake, tmp_path, monkeypatch
    ):
        """A verified replay and an fsck each read every data file once and
        inflate every column once: the structural check and the row build
        share one opened chunk."""
        lake = copy_lake(pristine_v2_lake, tmp_path / "lake")
        for day in lake.days(USAGE_TABLE)[3:]:  # keep a clean 3-day lake
            for table in lake.tables():
                shutil.rmtree(lake.day_dir(table, day), ignore_errors=True)
        chunks = sorted(lake.root.rglob("*.colchunk"))
        columns = sum(
            len(default_codecs()[path.relative_to(lake.root).parts[0]].columns)
            for path in chunks
        )
        assert len(lake.days(USAGE_TABLE)) == 3 and chunks
        calls = {"read_bytes": 0, "decompress": 0}
        read_bytes, decompress = Path.read_bytes, zlib.decompress

        def counting_read_bytes(path):
            calls["read_bytes"] += path.name.endswith(".colchunk")
            return read_bytes(path)

        def counting_decompress(*args, **kwargs):
            calls["decompress"] += 1
            return decompress(*args, **kwargs)

        monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
        monkeypatch.setattr(zlib, "decompress", counting_decompress)
        for walk in (
            lambda: fsck_lake(lake),
            lambda: run_replay(lake, [], policy="strict"),
        ):
            calls.update(read_bytes=0, decompress=0)
            walk()
            assert calls == {"read_bytes": len(chunks), "decompress": columns}

    def test_clean_walks_build_no_usage_row(
        self, pristine_v2_lake, tmp_path, monkeypatch
    ):
        """``fsck``, a strict replay and a counting scan of a clean v2 lake
        vouch for, reduce and count the usage rows as columns: not one
        :class:`DailyUsage` is constructed.  Whoever asks for rows gets them."""
        lake = copy_lake(pristine_v2_lake, tmp_path / "lake")
        days = lake.days(USAGE_TABLE)[:3]
        for day in lake.days(USAGE_TABLE)[3:]:  # keep a clean 3-day lake
            for table in lake.tables():
                shutil.rmtree(lake.day_dir(table, day), ignore_errors=True)
        generator = LongitudinalStudy(replay_config()).generator
        written = {day: list(generator.generate_day(day).usage) for day in days}
        rows = sum(len(usage) for usage in written.values())
        assert rows > 100

        built = []
        construct = flowgen.DailyUsage.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            construct(self, *args, **kwargs)

        monkeypatch.setattr(flowgen.DailyUsage, "__init__", counting_init)
        assert fsck_lake(lake).clean
        replayed = run_replay(lake, [], policy="strict").data
        assert sorted(replayed.subscriber_days) == days
        counted = lake.read_range(USAGE_TABLE, days[0], days[-1], USAGE_CODEC).count()
        assert counted == rows
        assert built == []
        for day in days:
            collected = lake.read_day(USAGE_TABLE, day, USAGE_CODEC).collect()
            assert type(collected) is list and collected == written[day]
        assert len(built) == rows

    def test_clean_flow_walks_build_no_flow_record(self, tmp_path, monkeypatch):
        """A generated flow batch archived as a v2 ``flows`` partition, the
        ``fsck`` of it, and a read of it into the stage-1 analytics stay
        columns end to end: not one :class:`FlowRecord` is constructed."""
        study = LongitudinalStudy(replay_config())
        day = D(2014, 2, 3)
        built = []
        construct = FlowRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            construct(self, *args, **kwargs)

        monkeypatch.setattr(FlowRecord, "__init__", counting_init)
        flows = study.generator.expand_flows_batch(day)
        lake = DataLake(tmp_path / "lake", write_format="v2")
        lake.write_day(FLOWS_TABLE, day, flows, FLOW_CODEC)
        assert fsck_lake(lake).clean
        (block,) = lake.read_day(FLOWS_TABLE, day, FLOW_CODEC, LakeIntegrity()).blocks()
        stored = FlowBatch.of(block)
        assert len(stored) == len(flows) > 100
        assert stored.columns["server_ip"] is block.columns["server_ip"]  # adopted
        services = list(INFRA_SERVICES)
        census = daily_server_census(
            stored, study.rules, services, day, codes=stored.service_view(study.rules)
        )
        assert census == daily_server_census(flows, study.rules, services, day)
        assert any(entry.total_ips for entry in census)
        assert built == []
        assert len(list(stored)) == len(built) == len(flows)  # whoever asks gets rows

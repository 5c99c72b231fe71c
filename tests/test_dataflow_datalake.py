"""Tests for the day-partitioned data lake."""

import datetime

import pytest

from repro.dataflow.datalake import (
    FLOW_CODEC,
    CheckpointError,
    CheckpointStore,
    DataLake,
    LineCodec,
    month_days,
)
from repro.tstat.flow import FlowRecord, NameSource, Transport, WebProtocol

DAY = datetime.date(2015, 3, 14)


def record(client_id=1):
    return FlowRecord(
        client_id=client_id,
        server_ip=12345,
        client_port=1000,
        server_port=443,
        transport=Transport.TCP,
        ts_start=1.0,
        ts_end=2.0,
        protocol=WebProtocol.TLS,
        server_name="x.example",
        name_source=NameSource.SNI,
    )


def _parse_pair(line):
    fields = line.rstrip("\n").split("\t")
    return (fields[0], int(fields[1]))


PAIR_CODEC = LineCodec(
    encode=lambda pair: f"{pair[0]}\t{pair[1]}", decode=_parse_pair
)


class TestDataLake:
    def test_write_read_day(self, tmp_path):
        lake = DataLake(tmp_path / "lake")
        lake.write_day("flows", DAY, [record(1), record(2)], FLOW_CODEC)
        loaded = lake.read_day("flows", DAY, FLOW_CODEC).collect()
        assert [row.client_id for row in loaded] == [1, 2]

    def test_layout_is_hive_style(self, tmp_path):
        lake = DataLake(tmp_path / "lake")
        path = lake.write_day("flows", DAY, [record()], FLOW_CODEC, source="pop1")
        assert "year=2015" in str(path)
        assert "month=03" in str(path)
        assert "day=14" in str(path)
        assert path.name == "pop1.tsv.gz"

    def test_multiple_sources_become_partitions(self, tmp_path):
        lake = DataLake(tmp_path / "lake")
        lake.write_day("flows", DAY, [record(1)], FLOW_CODEC, source="pop1")
        lake.write_day("flows", DAY, [record(2)], FLOW_CODEC, source="pop2")
        dataset = lake.read_day("flows", DAY, FLOW_CODEC)
        assert dataset.num_partitions == 2
        assert sorted(row.client_id for row in dataset.collect()) == [1, 2]

    def test_days_listing(self, tmp_path):
        lake = DataLake(tmp_path / "lake")
        days = [DAY, DAY + datetime.timedelta(days=1), DAY + datetime.timedelta(days=40)]
        for day in days:
            lake.write_day("flows", day, [record()], FLOW_CODEC)
        assert lake.days("flows") == days
        assert lake.days("missing") == []

    def test_has_day(self, tmp_path):
        lake = DataLake(tmp_path / "lake")
        assert not lake.has_day("flows", DAY)
        lake.write_day("flows", DAY, [record()], FLOW_CODEC)
        assert lake.has_day("flows", DAY)

    def test_read_missing_day_is_empty(self, tmp_path):
        lake = DataLake(tmp_path / "lake")
        assert lake.read_day("flows", DAY, FLOW_CODEC).collect() == []

    def test_read_range_skips_holes(self, tmp_path):
        lake = DataLake(tmp_path / "lake")
        lake.write_day("flows", DAY, [record(1)], FLOW_CODEC)
        lake.write_day(
            "flows", DAY + datetime.timedelta(days=5), [record(2)], FLOW_CODEC
        )
        dataset = lake.read_range(
            "flows", DAY, DAY + datetime.timedelta(days=2), FLOW_CODEC
        )
        assert [row.client_id for row in dataset.collect()] == [1]

    def test_generic_codec(self, tmp_path):
        lake = DataLake(tmp_path / "lake")
        lake.write_day("pairs", DAY, [("a", 1), ("b", 2)], PAIR_CODEC)
        assert lake.read_day("pairs", DAY, PAIR_CODEC).collect() == [("a", 1), ("b", 2)]

    def test_tables(self, tmp_path):
        lake = DataLake(tmp_path / "lake")
        lake.write_day("flows", DAY, [record()], FLOW_CODEC)
        lake.write_day("pairs", DAY, [("a", 1)], PAIR_CODEC)
        assert lake.tables() == ["flows", "pairs"]

    def test_tables_hides_underscore_directories(self, tmp_path):
        """Bookkeeping trees like _quarantine are not data tables."""
        lake = DataLake(tmp_path / "lake")
        lake.write_day("flows", DAY, [record()], FLOW_CODEC)
        (lake.root / "_quarantine").mkdir()
        assert lake.tables() == ["flows"]

    def test_write_day_finalizes_manifest_sidecar(self, tmp_path):
        from repro.dataflow.integrity import load_manifest

        lake = DataLake(tmp_path / "lake")
        path = lake.write_day("pairs", DAY, [("a", 1), ("b", 2)], PAIR_CODEC)
        manifest = load_manifest(path)
        assert manifest is not None
        assert manifest.records == 2
        leftovers = [p for p in path.parent.iterdir() if ".part" in p.name]
        assert leftovers == []

    def test_lazy_read(self, tmp_path):
        """read_day must not open files until iterated."""
        lake = DataLake(tmp_path / "lake")
        lake.write_day("flows", DAY, [record()], FLOW_CODEC)
        dataset = lake.read_day("flows", DAY, FLOW_CODEC)
        # Remove the file after building the dataset: collect now fails,
        # proving reads are deferred (a materialized read would succeed).
        for path in lake.day_dir("flows", DAY).glob("*.tsv.gz"):
            path.unlink()
        with pytest.raises(FileNotFoundError):
            dataset.collect()


class TestCheckpointStore:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path, "cafebabe")
        assert not store.has(DAY)
        store.save(DAY, {"rows": [1, 2, 3]})
        assert store.has(DAY)
        assert store.load(DAY) == {"rows": [1, 2, 3]}
        assert store.days() == [DAY]

    def test_layout_is_keyed_by_config_hash(self, tmp_path):
        store = CheckpointStore(tmp_path, "cafebabe")
        path = store.save(DAY, "payload")
        assert path == tmp_path / "config=cafebabe" / "day=2015-03-14.ckpt"
        assert store.manifest_path.parent == path.parent

    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        store = CheckpointStore(tmp_path, "cafebabe")
        store.save(DAY, "first")
        store.save(DAY, "second")
        assert store.load(DAY) == "second"
        leftovers = [p for p in store.directory.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_missing_checkpoint_raises(self, tmp_path):
        store = CheckpointStore(tmp_path, "cafebabe")
        with pytest.raises(CheckpointError):
            store.load(DAY)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path, "cafebabe")
        store.path_for(DAY).write_bytes(b"not a pickle")
        with pytest.raises(CheckpointError):
            store.load(DAY)

    def test_foreign_config_hash_rejected(self, tmp_path):
        writer = CheckpointStore(tmp_path, "cafebabe")
        writer.save(DAY, "payload")
        reader = CheckpointStore(tmp_path, "deadbeef")
        # A renamed/moved file must not sneak into a different run.
        writer.path_for(DAY).rename(reader.path_for(DAY))
        with pytest.raises(CheckpointError, match="belongs to config"):
            reader.load(DAY)

    def test_wrong_day_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path, "cafebabe")
        other = DAY + datetime.timedelta(days=1)
        store.save(DAY, "payload")
        store.path_for(DAY).rename(store.path_for(other))
        with pytest.raises(CheckpointError, match="holds"):
            store.load(other)

    def test_days_ignores_unparseable_names(self, tmp_path):
        store = CheckpointStore(tmp_path, "cafebabe")
        store.save(DAY, "payload")
        (store.directory / "day=garbage.ckpt").write_bytes(b"x")
        assert store.days() == [DAY]

    @pytest.mark.parametrize("keep_fraction", [0.0, 0.3, 0.6, 0.95])
    def test_truncated_checkpoint_rejected(self, tmp_path, keep_fraction):
        """A file torn at any point loads as CheckpointError, never as a
        partial payload — resume then recomputes the day."""
        store = CheckpointStore(tmp_path, "cafebabe")
        path = store.save(DAY, {"rows": list(range(100))})
        blob = path.read_bytes()
        path.write_bytes(blob[: int(len(blob) * keep_fraction)])
        with pytest.raises(CheckpointError):
            store.load(DAY)

    def test_bit_rot_in_payload_caught_by_crc(self, tmp_path):
        store = CheckpointStore(tmp_path, "cafebabe")
        path = store.save(DAY, "y" * 200)
        blob = bytearray(path.read_bytes())
        # Flip a byte inside the payload run; the envelope still unpickles,
        # so only the CRC check can catch this.
        index = bytes(blob).index(b"y" * 200) + 100
        blob[index] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="CRC"):
            store.load(DAY)


class TestMonthDays:
    def test_regular_month(self):
        days = month_days(2015, 4)
        assert len(days) == 30
        assert days[0] == datetime.date(2015, 4, 1)
        assert days[-1] == datetime.date(2015, 4, 30)

    def test_leap_february(self):
        assert len(month_days(2016, 2)) == 29
        assert len(month_days(2015, 2)) == 28

    def test_december_rollover(self):
        days = month_days(2017, 12)
        assert days[-1] == datetime.date(2017, 12, 31)

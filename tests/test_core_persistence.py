"""Tests for lake persistence and the replay (historical-query) path."""

import dataclasses
import datetime

import pytest

from repro.core.config import StudyConfig
from repro.core.parallel import CancelToken, RunCancelled, execute_study
from repro.core.persistence import (
    ARCHIVE_CODECS,
    HOURLY_TABLE,
    PROTOCOL_TABLE,
    USAGE_TABLE,
    ForeignPartitionError,
    replay_study,
    run_replay,
    shard_source,
)
from repro.core.shards import plan_shards
from repro.core.study import LongitudinalStudy, _summed
from repro.dataflow.columnar import ColumnBatch
from repro.dataflow.datalake import DataLake
from repro.dataflow.integrity import partition_files, partition_source_name
from repro.figures import fig03_volume_trend, fig08_protocols
from repro.synthesis.world import SUBSCRIBER_BLOCK, WorldConfig
from tests.test_core_shards import multiblock_config
from tests.test_flow_tables import weekly_active

D = datetime.date


def config():
    return StudyConfig(
        world=WorldConfig(
            seed=31,
            adsl_count=40,
            ftth_count=20,
            start=D(2014, 2, 1),
            end=D(2014, 7, 31),
        ),
        day_stride=7,
        flow_days_per_month=1,
        rtt_days_per_comparison_month=1,
    )


def spanning(base, start, end, **knobs):
    return dataclasses.replace(
        base, world=dataclasses.replace(base.world, start=start, end=end), **knobs
    )


def lake_bytes(root):
    """Every file of a lake (data and sidecars) by relative path."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def archived(tmp_path_factory):
    lake = DataLake(tmp_path_factory.mktemp("lake"))
    data = execute_study(config(), workers=1, lake=lake).data
    return lake, data


class TestPersistence:
    def test_tables_created(self, archived):
        lake, _ = archived
        assert set(lake.tables()) == {USAGE_TABLE, PROTOCOL_TABLE, HOURLY_TABLE}

    def test_every_processed_day_stored(self, archived):
        lake, data = archived
        assert set(lake.days(USAGE_TABLE)) == set(data.subscriber_days)

    def test_hourly_only_comparison_months(self, archived):
        lake, _ = archived
        months = {(day.year, day.month) for day in lake.days(HOURLY_TABLE)}
        assert months == {(2014, 4)}  # April 2017 is outside this span

    def test_run_results_match_plain_study(self, archived):
        _, data = archived
        assert data == LongitudinalStudy(config()).run()


#: Execution cells of an archive: (config, workers, shards, start method).
#: The serial whole-day cell of each config is the reference lake.
CONFIGS = {
    "multiblock": multiblock_config,
    "two_day": lambda: spanning(
        multiblock_config(), D(2017, 3, 1), D(2017, 3, 3), day_stride=2
    ),
}
ARCHIVE_CELLS = [
    ("multiblock", 1, 1, None),
    ("multiblock", 1, 3, None),
    ("multiblock", 2, 1, None),
    ("multiblock", 2, 3, None),
    ("two_day", 2, 3, "spawn"),
]


@pytest.fixture(scope="module")
def archive_runs(tmp_path_factory):
    """One archive per cell (and one plain study per config), memoised."""
    runs = {}

    def run(name, workers=1, shards=1, start_method=None):
        key = (name, workers, shards, start_method)
        if key not in runs:
            lake = DataLake(tmp_path_factory.mktemp(name), write_format="v2")
            result = execute_study(
                CONFIGS[name](),
                workers=workers,
                shards=shards,
                start_method=start_method,
                lake=lake,
            )
            runs[key] = (lake, result.data)
        return runs[key]

    def plain(name):
        if name not in runs:
            runs[name] = LongitudinalStudy(CONFIGS[name]()).run()
        return runs[name]

    return run, plain


def day_blocks(lake, table, day):
    return list(lake.read_day(table, day, ARCHIVE_CODECS[table]).blocks())


class TestArchiveCells:
    """Archiving is the same in every execution mode: a split day's
    parts concatenate (usage) or key-sum (protocols, hourly) to the
    serial lake's partition, and the lake replays to the same study."""

    @pytest.mark.parametrize("name,workers,shards,start_method", ARCHIVE_CELLS)
    def test_cell_matches_the_serial_lake(
        self, archive_runs, name, workers, shards, start_method
    ):
        run, plain = archive_runs
        serial, _ = run(name)
        lake, data = run(name, workers, shards, start_method)
        assert data == plain(name)
        assert lake.tables() == serial.tables()
        days = serial.days(USAGE_TABLE)
        assert days and lake.days(USAGE_TABLE) == days
        for day in days:
            parts = partition_files(lake.day_dir(USAGE_TABLE, day))
            assert len(parts) == shards  # every shard holds a block
            assert ColumnBatch.concat(
                day_blocks(lake, USAGE_TABLE, day), ARCHIVE_CODECS[USAGE_TABLE]
            ) == ColumnBatch.concat(
                day_blocks(serial, USAGE_TABLE, day), ARCHIVE_CODECS[USAGE_TABLE]
            )
        for table, field in ((PROTOCOL_TABLE, "protocol_rows"), (HOURLY_TABLE, "hourly")):
            assert lake.days(table) == serial.days(table)
            for day in serial.days(table):
                assert _summed(day_blocks(lake, table, day), field) == _summed(
                    day_blocks(serial, table, day), field
                )
        assert run_replay(lake, data.months).data == run_replay(serial, data.months).data

    def test_split_day_parts_sort_in_shard_order(self, tmp_path):
        specs = plan_shards(12 * SUBSCRIBER_BLOCK, 12)
        names = [shard_source(spec) for spec in specs]
        assert names[:2] == ["part-00", "part-01"] and len(set(names)) == 12
        assert shard_source(plan_shards(SUBSCRIBER_BLOCK, 1)[0]) == "part-0"
        lake = DataLake(tmp_path, write_format="v2")
        for name in reversed(names):
            path = lake.partition_path(USAGE_TABLE, D(2017, 4, 8), name)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.touch()
        listed = partition_files(lake.day_dir(USAGE_TABLE, D(2017, 4, 8)))
        assert [partition_source_name(path) for path in listed] == names


class TestForeignPartitions:
    """A planned day that holds a partition the run would not write is
    refused before any work: replay would read it beside the new parts."""

    def test_rearchive_in_another_container_is_refused(self, tmp_path):
        execute_study(config(), workers=1, lake=DataLake(tmp_path))
        before = lake_bytes(tmp_path)
        first = min(LongitudinalStudy(config()).planned_days())
        with pytest.raises(ForeignPartitionError) as excinfo:
            execute_study(
                config(), workers=1, lake=DataLake(tmp_path, write_format="v2")
            )
        assert f"lake day {first} holds " in str(excinfo.value)
        assert "part-0.tsv.gz" in str(excinfo.value)
        assert lake_bytes(tmp_path) == before  # nothing written

    def test_rearchive_with_fewer_shards_is_refused(self, tmp_path):
        two_day = CONFIGS["two_day"]()
        execute_study(two_day, workers=1, shards=3, lake=DataLake(tmp_path))
        with pytest.raises(ForeignPartitionError) as excinfo:
            execute_study(two_day, workers=1, lake=DataLake(tmp_path))
        assert "part-1.tsv.gz" in str(excinfo.value)

    def test_days_in_different_containers_coexist(self, tmp_path):
        february = spanning(config(), D(2014, 2, 1), D(2014, 2, 28))
        march = spanning(config(), D(2014, 3, 1), D(2014, 3, 31))
        first = execute_study(february, workers=1, lake=DataLake(tmp_path)).data
        second = execute_study(
            march, workers=1, lake=DataLake(tmp_path, write_format="v2")
        ).data
        replayed = run_replay(DataLake(tmp_path), []).data
        assert set(replayed.subscriber_days) == (
            set(first.subscriber_days) | set(second.subscriber_days)
        )
        assert list(replayed.protocol_rows) == (
            list(first.protocol_rows) + list(second.protocol_rows)
        )


class TestResumeIntoALake:
    def test_resume_into_a_fresh_lake_recomputes_checkpointed_tasks(self, tmp_path):
        """Killed with one lake, resumed with another: the checkpointed
        tasks are recomputed, so the second lake is a whole archive."""
        checkpoints = tmp_path / "ckpt"
        token = CancelToken()
        seen = []

        def cancel_after_two(day):
            seen.append(day)
            if len(seen) >= 2:
                token.set()

        with pytest.raises(RunCancelled) as excinfo:
            execute_study(
                config(), workers=1, checkpoint_root=checkpoints, cancel=token,
                progress=cancel_after_two, lake=DataLake(tmp_path / "first"),
            )
        assert excinfo.value.report.completed == 2
        execute_study(
            config(), workers=1, checkpoint_root=checkpoints, resume=True,
            lake=DataLake(tmp_path / "second"),
        )
        execute_study(config(), workers=1, lake=DataLake(tmp_path / "fresh"))
        assert lake_bytes(tmp_path / "second") == lake_bytes(tmp_path / "fresh")
        again = execute_study(
            config(), workers=1, checkpoint_root=checkpoints, resume=True,
            lake=DataLake(tmp_path / "second"),
        )
        assert again.report.checkpoint_hits == again.report.planned_tasks


class TestReplay:
    @pytest.fixture(scope="class")
    def replayed(self, archived):
        lake, data = archived
        return replay_study(lake, data.months), data

    def test_subscriber_days_recovered(self, replayed):
        fresh, original = replayed
        assert set(fresh.subscriber_days) == set(original.subscriber_days)
        for day in original.subscriber_days:
            assert sorted(
                fresh.subscriber_days[day], key=lambda e: e.subscriber_id
            ) == sorted(original.subscriber_days[day], key=lambda e: e.subscriber_id)

    def test_service_stats_recovered(self, replayed):
        fresh, original = replayed

        def key(cell):
            return (cell.day, cell.service, cell.technology.value)

        assert sorted(fresh.service_stats, key=key) == sorted(
            original.service_stats, key=key
        )

    def test_protocol_rows_recovered(self, replayed):
        fresh, original = replayed

        def key(row):
            return (row.day, row.service, row.protocol.value)

        assert sorted(fresh.protocol_rows, key=key) == sorted(
            original.protocol_rows, key=key
        )

    def test_weekly_structures_recovered(self, replayed):
        fresh, original = replayed
        assert weekly_active(fresh) == weekly_active(original)
        assert fresh.weekly_visitors == original.weekly_visitors

    def test_run_replay_matches_plain_replay(self, archived, replayed):
        """The manifest-producing entry point computes the same data."""
        lake, data = archived
        fresh, _ = replayed
        result = run_replay(lake, data.months, policy="strict")
        assert result.data == fresh

    def test_run_replay_manifest_shape(self, archived):
        lake, data = archived
        result = run_replay(lake, data.months, policy="quarantine")
        report = result.report.to_dict()
        assert report["execution"] == "replay"
        days = sorted(
            set(lake.days(USAGE_TABLE))
            | set(lake.days(PROTOCOL_TABLE))
            | set(lake.days(HOURLY_TABLE))
        )
        assert [r["day"] for r in report["days"]] == [
            d.isoformat() for d in days
        ]
        assert all(r["status"] == "completed" for r in report["days"])
        quality = report["data_quality"]
        assert len(quality) == len(days)
        assert all(q["quality"] == 1.0 for q in quality)
        assert all(q["failed_partitions"] == 0 for q in quality)

    def test_figures_run_on_replayed_data(self, replayed):
        fresh, original = replayed
        fig_fresh = fig03_volume_trend.compute(fresh)
        fig_orig = fig03_volume_trend.compute(original)
        from repro.synthesis.population import Technology

        assert fig_fresh.get(Technology.ADSL, "down").values == fig_orig.get(
            Technology.ADSL, "down"
        ).values
        assert fig08_protocols.report(fig08_protocols.compute(fresh))

"""A study day is N range tasks — any N, any path, one result.

Property suite for DESIGN.md §15: a study day planned as N >= 1
subscriber-range tasks must produce a *field-identical*
:class:`StudyData` for every N — serial, pooled, spilled to disk, or
killed mid-day and resumed.  The whole day is just N = 1 of the same
code, so the independent oracle is the set of study digests committed
under ``tests/golden/`` from before the paths were unified (and, for a
world of several subscriber blocks, from when streams became
block-keyed) — plus regression tests for the merge-overlap and
dispatch-accounting bugs the shard work exposed.
"""

import datetime
import json
import pickle
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.chaos.fsfaults import FsFaultSpec, injected
from repro.core import fsio
from repro.core.config import StudyConfig, config_hash, small_study
from repro.core.faults import KIND_TRANSIENT, FaultPlan, FaultSpec
from repro.core.parallel import (
    ChunkError,
    ColumnarPartial,
    DayFailure,
    DaySuccess,
    RetryPolicy,
    _check_layout,
    _Dispatch,
    execute_study,
)
from repro.core.shards import (
    ShardExtra,
    ShardSpec,
    load_spilled,
    plan_shards,
    spill_file_name,
    spill_partial,
)
from repro.core.study import LongitudinalStudy, MergeOverlapError, StudyData
from repro.dataflow.datalake import CheckpointError, CheckpointStore
from repro.service.results import study_digest
from repro.synthesis.population import Technology
from repro.telemetry import runtime as telemetry_runtime
from repro.telemetry.runtime import Telemetry
from repro.synthesis.world import SUBSCRIBER_BLOCK, World, WorldConfig

D = datetime.date

SHARD_COUNTS = (1, 2, 4, 7)

#: ``name:seed`` → {config_hash, study_digest}.  Computed at commit
#: 10a884b, when the whole-day path was still its own code — except
#: ``multiblock:17``, computed when streams became block-keyed (a world
#: of one block draws what it drew before).
GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "study_digests.json").read_text()
)
CHECKPOINT_FIXTURES = Path(__file__).parent / "fixtures" / "checkpoints" / "pre-pr13"


def tiny_config(seed=17):
    return StudyConfig(
        world=WorldConfig(
            seed=seed,
            adsl_count=40,
            ftth_count=20,
            start=D(2014, 1, 1),
            end=D(2014, 6, 30),
        ),
        day_stride=6,
        flow_days_per_month=1,
        rtt_days_per_comparison_month=1,
    )


def fixture_config():
    """The config tests/fixtures/checkpoints/pre-pr13 was written for."""
    return StudyConfig(
        world=WorldConfig(
            seed=17,
            adsl_count=12,
            ftth_count=6,
            start=D(2014, 4, 8),
            end=D(2014, 4, 10),
        ),
        day_stride=1,
        flow_days_per_month=1,
        rtt_days_per_comparison_month=1,
    )


def multiblock_config(seed=17):
    """Three subscriber blocks over five April days: one flow + RTT day,
    one flow day, every day hourly."""
    return StudyConfig(
        world=WorldConfig(
            seed=seed,
            adsl_count=2000,
            ftth_count=1000,
            start=D(2017, 4, 8),
            end=D(2017, 4, 12),
        ),
    )


def assert_golden(name, config, data):
    golden = GOLDEN[name]
    assert config_hash(config) == golden["config_hash"], name
    assert study_digest(data) == golden["study_digest"], name


class TestPlanShards:
    def test_partition_covers_population(self):
        for population in (0, 1, 59, 1024, 1025, 3000, 100_000):
            blocks = -(-population // SUBSCRIBER_BLOCK)
            for count in (1, 2, 4, 7, 61):
                specs = plan_shards(population, count)
                assert len(specs) == count
                assert specs[0].lo == 0
                assert specs[-1].hi == population
                for left, right in zip(specs, specs[1:]):
                    assert left.hi == right.lo  # contiguous, disjoint
                for spec in specs:  # whole blocks: the last may be short
                    for edge in spec.bounds:
                        assert edge % SUBSCRIBER_BLOCK == 0 or edge == population
                sizes = [
                    -(-spec.hi // SUBSCRIBER_BLOCK) - -(-spec.lo // SUBSCRIBER_BLOCK)
                    for spec in specs
                ]
                assert sum(sizes) == blocks
                assert max(sizes) - min(sizes) <= 1

    def test_shards_past_the_last_block_are_empty(self):
        specs = plan_shards(3000, 7)
        assert [spec.bounds for spec in specs] == [
            (0, 1024), (1024, 2048), (2048, 3000)
        ] + [(3000, 3000)] * 4
        assert specs[1].label == "1of7"

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            plan_shards(10, 0)
        with pytest.raises(ValueError):
            plan_shards(-1, 2)


class TestStreamKeys:
    """Block 0 draws what the day drew before streams were block-keyed;
    every other block draws its own."""

    DAY = D(2017, 4, 10)

    @pytest.mark.parametrize("seed", (0, 7, 2**32 - 1, 2**32, 2**64 - 1))
    def test_block_zero_is_the_unblocked_key(self, seed):
        world = World(WorldConfig(seed=seed, adsl_count=2, ftth_count=1))
        for stream in (0, 1, 2):
            unblocked = np.random.default_rng(
                np.random.SeedSequence([seed, self.DAY.toordinal(), stream])
            ).bit_generator.state
            assert world.day_rng(self.DAY, stream, 0).bit_generator.state == unblocked
            assert world.day_rng(self.DAY, stream).bit_generator.state == unblocked

    def test_blocks_draw_distinct_streams(self):
        world = World(WorldConfig(seed=17, adsl_count=2, ftth_count=1))
        for stream in (0, 1, 2):
            draws = [
                tuple(world.day_rng(self.DAY, stream, block).integers(0, 2**62, 4))
                for block in range(4)
            ]
            assert len(set(draws)) == 4

    def test_config_hash_changes_only_past_one_block(self):
        def config(adsl, ftth):
            return StudyConfig(
                world=WorldConfig(
                    seed=17,
                    adsl_count=adsl,
                    ftth_count=ftth,
                    start=D(2017, 4, 8),
                    end=D(2017, 4, 12),
                )
            )

        # The values these configs hashed to before streams were block-keyed.
        assert config_hash(config(700, 324)) == "53108ff3b1f733d7"
        assert config_hash(config(1000, 500)) != "ab28b561afaac2df"


class TestShardedEqualsUnsharded:
    """The core §15 property, across three seeds and four shard counts."""

    @pytest.mark.parametrize("seed", (7, 17, 23))
    def test_serial_field_identical(self, seed):
        config = tiny_config(seed)
        base = execute_study(config, workers=1).data
        assert_golden(f"tiny_config:{seed}", config, base)
        for count in SHARD_COUNTS:
            sharded = execute_study(config, workers=1, shards=count)
            assert sharded.data == base, f"seed={seed} shards={count}"
            assert sharded.report.shards == count

    def test_pooled_field_identical(self):
        config = tiny_config()
        base = execute_study(config, workers=1).data
        pooled = execute_study(config, workers=2, shards=2, start_method="fork")
        assert pooled.data == base
        assert pooled.report.execution == "pool"

    def test_more_shards_than_subscribers(self):
        config = tiny_config()
        base = execute_study(config, workers=1).data
        sharded = execute_study(config, workers=1, shards=61)
        assert sharded.data == base  # trailing shards are empty but planned

    def test_empty_range_of_a_flow_day_expands_to_an_empty_batch(
        self, multiblock_world, multiblock_generator
    ):
        """A range past the last block draws nothing and hands back a whole
        (if empty) batch: nothing may trip over having no flows to reduce."""
        generator, day = multiblock_generator, D(2017, 4, 10)
        whole = generator.expand_flows_batch(day)
        batches = []
        for spec in plan_shards(len(multiblock_world.population), 8):
            traffic = generator.generate_day(day, shard=spec.bounds)
            batch = generator.expand_flows_batch(day, traffic)
            assert set(batch.dictionaries) == set(whole.dictionaries)
            if len(traffic.usage) == 0:
                assert list(batch) == [] and batch.dictionaries["server_name"] == []
            batches.append(batch)
        assert sum(1 for batch in batches if len(batch) == 0) == 5
        assert sum(len(batch) for batch in batches) == len(whole)

    def test_config_hash_unchanged(self):
        config = tiny_config()
        one = execute_study(config, workers=1, shards=1).report
        four = execute_study(config, workers=1, shards=4).report
        assert one.config_hash == four.config_hash


class TestGoldenDigests:
    """{serial, pooled} x shards {1, 3} x {fresh, resumed} against digests
    committed before the whole-day path became shard 0-of-1, and
    {serial, pooled} x shards {1, 2, 3, 4, 7} x {fresh, resumed} on a
    world of three blocks, whose shards draw different streams."""

    @staticmethod
    def _fresh_then_resumed(name, config, workers, shards, root):
        options = dict(workers=workers, shards=shards, checkpoint_root=root)
        if workers > 1:
            options["start_method"] = "fork"
        fresh = execute_study(config, **options)
        assert_golden(name, config, fresh.data)
        assert fresh.report.execution == ("pool" if workers > 1 else "serial")
        resumed = execute_study(config, resume=True, **options)
        assert_golden(name, config, resumed.data)
        assert resumed.report.checkpoint_hits == resumed.report.planned_tasks

    @pytest.mark.parametrize("shards", (1, 3))
    @pytest.mark.parametrize("workers", (1, 2))
    def test_tiny_matrix(self, tmp_path, workers, shards):
        self._fresh_then_resumed(
            "tiny_config:17", tiny_config(17), workers, shards, tmp_path
        )

    @pytest.mark.parametrize(
        "seed,workers,shards", [(7, 2, 3), (17, 1, 1), (23, 2, 1)]
    )
    def test_small_study(self, tmp_path, seed, workers, shards):
        self._fresh_then_resumed(
            f"small_study:{seed}", small_study(seed), workers, shards, tmp_path
        )

    @pytest.mark.parametrize("shards", (1, 2, 3, 4, 7))
    @pytest.mark.parametrize("workers", (1, 2))
    def test_multiblock_matrix(self, tmp_path, workers, shards):
        config = multiblock_config()
        plan = LongitudinalStudy(config).planned_days()
        assert any("rtt" in roles for roles in plan.values())
        assert any("flows" in roles and "rtt" not in roles for roles in plan.values())
        self._fresh_then_resumed("multiblock:17", config, workers, shards, tmp_path)

    def test_study_run_is_the_one_shard_fold(self):
        config = tiny_config(23)
        assert_golden("tiny_config:23", config, LongitudinalStudy(config).run())

    def test_multiblock_run_is_the_one_shard_fold(self):
        config = multiblock_config()
        assert_golden("multiblock:17", config, LongitudinalStudy(config).run())


class TestPreRefactorCheckpoints:
    """Checkpoint dirs written before the one-path refactor: whole days
    keep loading byte for byte, shard files of another layout are
    recomputed, never merged."""

    @staticmethod
    def _copy(name, tmp_path):
        root = tmp_path / name
        shutil.copytree(CHECKPOINT_FIXTURES / name, root)
        return root

    def test_whole_day_files_load_and_are_rewritten_byte_identical(self, tmp_path):
        config = fixture_config()
        resumed = execute_study(
            config,
            workers=1,
            checkpoint_root=self._copy("shards1", tmp_path),
            resume=True,
        )
        assert resumed.report.checkpoint_hits == resumed.report.planned_tasks == 3
        assert_golden("checkpoint_fixture:17", config, resumed.data)
        execute_study(config, workers=1, checkpoint_root=tmp_path / "fresh")
        old_files = sorted((CHECKPOINT_FIXTURES / "shards1").rglob("*.ckpt"))
        assert len(old_files) == 3
        for old in old_files:
            new = tmp_path / "fresh" / old.relative_to(CHECKPOINT_FIXTURES / "shards1")
            assert new.read_bytes() == old.read_bytes(), old.name

    def test_old_range_shard_files_are_recomputed(self, tmp_path):
        """The N = 3 files hold sidecars of the 0-6/6-12/12-18 row ranges
        the block plan no longer makes: each is a typed CheckpointError
        on load, so the run recomputes them and lands on the golden."""
        config = fixture_config()
        root = self._copy("shards3", tmp_path)
        store = CheckpointStore(root, config_hash(config))
        for day in sorted(LongitudinalStudy(config).planned_days()):
            for spec in plan_shards(18, 3):
                with pytest.raises(CheckpointError):
                    _check_layout(day, store.load(day, shard=spec.key), spec)
        resumed = execute_study(
            config, workers=1, shards=3, checkpoint_root=root, resume=True
        )
        assert resumed.report.checkpoint_hits == 0
        assert resumed.report.planned_tasks == 9
        assert_golden("checkpoint_fixture:17", config, resumed.data)

    def test_sidecar_of_another_layout_is_recomputed_not_merged(self, tmp_path):
        config = multiblock_config()
        execute_study(config, workers=1, shards=3, checkpoint_root=tmp_path)
        store = CheckpointStore(tmp_path, config_hash(config))
        day, shard = D(2017, 4, 8), (1, 3)
        partial = store.load(day, shard=shard)
        assert isinstance(partial.extra, ShardExtra) and partial.extra.processed
        del partial.extra.__dict__["active_counts"]  # a writer without that field
        store.save(day, partial, shard=shard)
        resumed = execute_study(
            config, workers=1, shards=3, checkpoint_root=tmp_path, resume=True
        )
        assert resumed.report.checkpoint_hits == resumed.report.planned_tasks - 1
        recomputed = [r for r in resumed.report.records if r.source != "checkpoint"]
        assert [(r.day, r.shard) for r in recomputed] == [(day, 1)]
        assert_golden("multiblock:17", config, resumed.data)


class TestSpill:
    def test_spilled_run_field_identical(self, tmp_path):
        config = multiblock_config()
        base = execute_study(config, workers=1).data
        spill_dir = tmp_path / "spill"
        result = execute_study(
            config,
            workers=1,
            shards=3,
            shard_spill_dir=spill_dir,
            spill_watermark_bytes=1,
        )
        assert result.data == base
        assert result.report.spills > 0
        # All read back, and no staging litter from the atomic writes.
        assert list(spill_dir.iterdir()) == []

    def test_spill_roundtrip(self, tmp_path):
        payload = {"rows": list(range(1000)), "day": D(2014, 4, 1)}
        path = tmp_path / spill_file_name(D(2014, 4, 1), 2)
        freed = spill_partial(path, D(2014, 4, 1), 2, payload)
        assert freed > 0
        assert path.is_file()
        assert load_spilled(path) == payload
        # The checkpoint tier's record, verified before it is unpickled:
        # keyed for another task, bit-rotted, or torn, it does not load.
        blob = path.read_bytes()
        inner = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        at = blob.index(inner) + len(inner) // 2
        damaged = {
            "wrong day": lambda: spill_partial(path, D(2014, 4, 2), 2, payload),
            "wrong shard": lambda: spill_partial(path, D(2014, 4, 1), 3, payload),
            "flipped byte": lambda: path.write_bytes(
                blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1 :]
            ),
            "truncated": lambda: path.write_bytes(blob[: len(blob) // 2]),
        }
        for damage in damaged.values():
            damage()
            with pytest.raises(CheckpointError):
                load_spilled(path)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_refused_spill_writes_keep_partials_resident(self, tmp_path):
        """A full disk under the spill directory costs memory, not the
        run — the same tolerance the checkpoint write has."""
        config = tiny_config()
        base = execute_study(config, workers=1).data
        every_write = tuple(
            FsFaultSpec(fsio.SURFACE_SPILL, fsio.MODE_ENOSPC, n) for n in range(256)
        )
        with injected(every_write) as gate:
            result = execute_study(
                config,
                workers=1,
                shards=3,
                shard_spill_dir=tmp_path / "spill",
                spill_watermark_bytes=1,
                telemetry=Telemetry.for_spec("virtual"),
            )
        assert gate.fired and len(gate.fired) == gate.writes_seen(fsio.SURFACE_SPILL)
        assert result.data == base
        assert result.report.spills == 0
        counters = result.telemetry.metrics.counters
        assert counters[("spill_write_failures", ())] == len(gate.fired)
        labels = {record.label for record in result.report.records}
        refused = [
            dict(event.attrs)
            for event in result.telemetry.events
            if event.name == "spill_write_failed"
        ]
        assert len(refused) == len(gate.fired)
        assert {attrs["task"] for attrs in refused} <= labels

    def test_unreadable_spill_names_its_task_and_resumes(self, tmp_path):
        """A spill file torn on its way to disk fails its own task — a
        typed ChunkError whose label is a manifest row — not the run's
        error contract."""
        config = tiny_config()
        run = dict(
            workers=1,
            shards=3,
            checkpoint_root=tmp_path / "ckpt",
            shard_spill_dir=tmp_path / "spill",
            spill_watermark_bytes=1,
        )
        torn = (FsFaultSpec(fsio.SURFACE_SPILL, fsio.MODE_TORN_TARGET, 0),)
        with injected(torn) as gate:
            with pytest.raises(ChunkError) as err:
                execute_study(config, **run)
        assert len(gate.fired) == 1
        (failure,) = err.value.failures
        assert "CheckpointError" in failure.error
        assert gate.fired[0]["artifact"] == spill_file_name(failure.day, failure.shard)
        manifest = json.loads(
            (tmp_path / "ckpt" / f"config={config_hash(config)}" / "manifest.json")
            .read_text()
        )
        assert manifest["failed"] == 1
        assert manifest["telemetry"]["days"][failure.label]["source"] == "worker"

        resumed = execute_study(config, resume=True, **run)
        assert resumed.report.failed == 0
        assert_golden("tiny_config:17", config, resumed.data)
        assert list((tmp_path / "spill").iterdir()) == []


class TestShardResume:
    def test_kill_mid_day_resume_replays_only_missing_shards(self, tmp_path):
        config = multiblock_config()
        base = execute_study(config, workers=1).data
        days = sorted(LongitudinalStudy(config).planned_days())
        target = days[2]
        plan = FaultPlan.of(
            FaultSpec(day=target, kind=KIND_TRANSIENT, times=-1, shard=1)
        )
        with pytest.raises(ChunkError) as err:
            execute_study(
                config,
                workers=1,
                shards=4,
                checkpoint_root=tmp_path,
                fault_plan=plan,
                retry=RetryPolicy(retries=1, backoff=0.0),
            )
        assert [f.shard for f in err.value.failures] == [1]
        assert target.isoformat() in str(err.value)
        report = err.value.report
        # One label per (day, shard): what the error names is a manifest row.
        manifest_labels = set(report.telemetry_dict()["days"])
        assert {f.label for f in err.value.failures} <= manifest_labels
        assert f"{target.isoformat()}/1" in str(err.value).splitlines()[0]
        assert report.failed == 1
        assert report.completed == report.planned_tasks - 1

        resumed = execute_study(
            config, workers=1, shards=4, checkpoint_root=tmp_path, resume=True
        )
        assert resumed.data == base
        # Every surviving shard came back from its checkpoint; only the
        # killed shard of the target day was recomputed.
        assert resumed.report.checkpoint_hits == resumed.report.planned_tasks - 1

    def test_shard_fault_leaves_other_shards_alone(self):
        config = tiny_config()
        days = sorted(LongitudinalStudy(config).planned_days())
        plan = FaultPlan.of(
            FaultSpec(day=days[0], kind=KIND_TRANSIENT, times=-1, shard=3)
        )
        # Unsharded run never fires a shard-targeted fault.
        result = execute_study(
            config, workers=1, fault_plan=plan,
            retry=RetryPolicy(retries=0, backoff=0.0),
        )
        assert result.report.failed == 0

    def test_checkpoints_are_shard_keyed(self, tmp_path):
        store = CheckpointStore(tmp_path, "cafe")
        day = D(2014, 4, 1)
        store.save(day, {"k": 1}, shard=(0, 4))
        assert store.has(day, shard=(0, 4))
        assert not store.has(day)  # unsharded name untouched
        assert not store.has(day, shard=(1, 4))
        assert store.load(day, shard=(0, 4)) == {"k": 1}
        # A shard file renamed to another shard's slot is rejected.
        (tmp_path / "config=cafe" / store.path_for(day, (1, 4)).name).write_bytes(
            store.path_for(day, (0, 4)).read_bytes()
        )
        with pytest.raises(CheckpointError):
            store.load(day, shard=(1, 4))
        # Shard files never surface as whole days.
        assert store.days() == []


class TestMergeOverlapRegression:
    """Satellite 1: StudyData.merge used to silently overwrite days."""

    def test_overlapping_subscriber_days_raise(self):
        day = D(2014, 4, 1)
        left = StudyData(subscriber_days={day: []})
        right = StudyData(subscriber_days={day: []})
        with pytest.raises(MergeOverlapError) as err:
            left.merge(right)
        assert err.value.field_name == "subscriber_days"
        assert "2014-04-01" in str(err.value)

    def test_weekly_keys_union_instead_of_replacing(self):
        key = (2014, 14, "facebook", Technology.ADSL)
        left = StudyData(weekly_visitors={key: {1, 2}})
        right = StudyData(weekly_visitors={key: {2, 3}})
        left.merge(right)
        assert left.weekly_visitors[key] == {1, 2, 3}
        active = (2014, 14, Technology.ADSL)
        left = StudyData(weekly_active={active: {1}})
        right = StudyData(weekly_active={active: {4}})
        left.merge(right)
        assert left.weekly_active[active] == {1, 4}


class TestDispatchAccountingRegression:
    """Satellite 2: completion counters hid behind the telemetry guard."""

    @staticmethod
    def _success(telemetry=None):
        return DaySuccess(
            index=0,
            day=D(2014, 4, 1),
            attempt=0,
            partial=ColumnarPartial.pack(StudyData()),
            wall_time=1.25,
            worker=123,
            telemetry=telemetry,
        )

    def test_counters_move_without_snapshot(self):
        bundle = Telemetry.for_spec("monotonic")
        dispatch = _Dispatch(RetryPolicy(), None, None)
        with telemetry_runtime.activate(bundle):
            dispatch.succeed(self._success(telemetry=None), source="worker")
        snapshot = bundle.snapshot()
        assert snapshot.metrics.counters[("pool_days_completed", ())] == 1
        histogram = snapshot.metrics.histograms[("pool_day_wall_seconds", ())]
        assert histogram.total == 1
        assert histogram.sum == pytest.approx(1.25)

    def test_failed_day_records_real_wall_time(self):
        dispatch = _Dispatch(RetryPolicy(), None, None)
        dispatch.fail(
            DayFailure(
                index=0,
                day=D(2014, 4, 1),
                attempt=0,
                transient=False,
                error="boom",
                traceback_text="",
                worker=7,
                wall_time=0.75,
            )
        )
        record = dispatch.records[(D(2014, 4, 1), 0)]
        assert record.status == "failed"
        assert record.wall_time == pytest.approx(0.75)

    def test_worker_failure_carries_elapsed_time(self):
        config = tiny_config()
        day = sorted(LongitudinalStudy(config).planned_days())[0]
        plan = FaultPlan.of(FaultSpec(day=day, kind=KIND_TRANSIENT, times=-1))
        with pytest.raises(ChunkError) as err:
            execute_study(
                config,
                workers=1,
                fault_plan=plan,
                retry=RetryPolicy(retries=0, backoff=0.0),
            )
        record = next(
            r for r in err.value.report.records if r.status == "failed"
        )
        assert record.wall_time >= 0.0
        assert err.value.failures[0].wall_time >= 0.0


class TestShardManifest:
    def test_manifest_rows_are_shard_granular(self, tmp_path):
        config = tiny_config()
        result = execute_study(
            config, workers=1, shards=2, checkpoint_root=tmp_path
        )
        report = result.report
        assert report.planned_tasks == 2 * report.planned_days
        labels = {record.label for record in report.records}
        day = report.records[0].day.isoformat()
        assert f"{day}/0" in labels and f"{day}/1" in labels
        payload = report.to_dict()
        assert payload["shards"] == 2
        assert payload["planned_tasks"] == report.planned_tasks
        assert len(payload["telemetry"]["days"]) == report.planned_tasks

    def test_shard_spec_on_task_is_validated(self):
        with pytest.raises(ValueError):
            execute_study(tiny_config(), workers=1, shards=0)

    def test_day_shard_partial_matches_day_partial(self):
        """Single-shard fan-out reproduces the whole-day partial 1:1."""
        config = tiny_config()
        study = LongitudinalStudy(config)
        plan = study.planned_days()
        day = sorted(plan)[0]
        whole = study.day_partial(day, set(plan[day]))
        spec = ShardSpec(index=0, count=1, lo=0, hi=60)
        data, extra = LongitudinalStudy(config).day_shard_partial(
            day, set(plan[day]), spec
        )
        from repro.core.study import merge_day_shards

        merged = merge_day_shards(
            day, [(data, extra)], LongitudinalStudy(config).world.rib
        )
        assert merged == whole

"""Tests for the parallel study runner: identical results, any worker count."""

import copy
import dataclasses
import datetime
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.core.config import StudyConfig, small_study
from repro.core.parallel import ColumnarPartial, execute_study
from repro.core.study import LongitudinalStudy
from repro.dataflow.columnar import ColumnBatch
from repro.synthesis.world import WorldConfig
from tests.test_flow_tables import weekly_active

D = datetime.date


def tiny_config():
    return StudyConfig(
        world=WorldConfig(
            seed=17,
            adsl_count=40,
            ftth_count=20,
            start=D(2014, 1, 1),
            end=D(2014, 6, 30),
        ),
        day_stride=6,
        flow_days_per_month=1,
        rtt_days_per_comparison_month=1,
    )


class TestParallelEqualsSerial:
    @pytest.fixture(scope="class")
    def serial(self):
        return LongitudinalStudy(tiny_config()).run()

    @pytest.fixture(scope="class")
    def parallel(self):
        return execute_study(tiny_config(), workers=3).data

    def test_subscriber_days_identical(self, serial, parallel):
        assert set(serial.subscriber_days) == set(parallel.subscriber_days)
        for day in serial.subscriber_days:
            assert sorted(
                serial.subscriber_days[day], key=lambda e: e.subscriber_id
            ) == sorted(parallel.subscriber_days[day], key=lambda e: e.subscriber_id)

    def test_service_stats_identical(self, serial, parallel):
        def key(cell):
            return (cell.day, cell.service, cell.technology.value)

        assert sorted(serial.service_stats, key=key) == sorted(
            parallel.service_stats, key=key
        )

    def test_protocol_rows_identical(self, serial, parallel):
        def key(row):
            return (row.day, row.service, row.protocol.value)

        assert sorted(serial.protocol_rows, key=key) == sorted(
            parallel.protocol_rows, key=key
        )

    def test_rtt_and_flow_days_identical(self, serial, parallel):
        assert serial.flow_days == parallel.flow_days
        assert len(serial.rtt) > 0 and len(serial.servers) > 0
        assert serial.rtt == parallel.rtt
        assert serial.servers == parallel.servers

    def test_weekly_structures_identical(self, serial, parallel):
        assert weekly_active(serial) == weekly_active(parallel)
        assert serial.weekly_visitors == parallel.weekly_visitors

    def test_single_worker_falls_back_to_serial(self):
        data = execute_study(tiny_config(), workers=1).data
        assert data.subscriber_days


class TestWorldBuiltOncePerProcess:
    """The parent plans from the memoised study; the inline executor
    computes with it and fork workers inherit it."""

    @pytest.fixture
    def built(self, monkeypatch, tmp_path):
        """Pids of the processes that constructed a ``World``, in order."""
        from repro.core import parallel
        from repro.synthesis.world import World

        log = tmp_path / "worlds.log"
        log.touch()
        construct = World.__init__

        def counting_init(self, *args, **kwargs):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            construct(self, *args, **kwargs)

        monkeypatch.setattr(World, "__init__", counting_init)
        monkeypatch.setattr(parallel, "_STUDY_CACHE", {})
        return lambda: [int(line) for line in log.read_text().split()]

    def test_serial_run_builds_one_world(self, built):
        execute_study(tiny_config(), workers=1)
        assert built() == [os.getpid()]
        execute_study(tiny_config(), workers=1, shards=2)
        assert built() == [os.getpid()]  # the second run reuses it

    def test_fork_pool_builds_none_in_a_worker(self, built):
        result = execute_study(tiny_config(), workers=2, start_method="fork")
        assert result.report.execution == "pool"
        assert built() == [os.getpid()]

    def test_a_fifth_config_evicts_only_the_oldest(self, built):
        from repro.core import parallel

        configs = [
            dataclasses.replace(
                tiny_config(), world=dataclasses.replace(tiny_config().world, seed=seed)
            )
            for seed in range(5)
        ]
        studies = [parallel._cached_study(config) for config in configs]
        assert len(built()) == 5 and len(parallel._STUDY_CACHE) == 4
        for config, study in zip(configs[1:], studies[1:]):
            assert parallel._cached_study(config) is study  # runs in flight keep theirs
        assert parallel._cached_study(configs[0]) is not studies[0]


class TestConfigHashedOncePerConfig:
    def test_serial_run_hashes_its_config_once(self, monkeypatch):
        """The digest is asked for per task; a config object computes it
        once, however many tasks the run has."""
        from repro.core import config as config_module

        digest = config_module._digest
        calls = []

        def counting_digest(config):
            calls.append(config)
            return digest(config)

        monkeypatch.setattr(config_module, "_digest", counting_digest)
        config = tiny_config()
        result = execute_study(config, workers=1)
        assert result.report.planned_tasks > 10
        assert len(calls) == 1
        assert config_module.config_hash(config) == digest(tiny_config())


class TestNoEmptyTablePerTask:
    def test_serial_run_builds_no_empty_table_per_task(self, monkeypatch):
        """A task builds only the tables it produces: the empty tables a
        day partial holds are shared, so a run builds as many empties
        however many tasks it has (five per task once)."""
        from_rows = ColumnBatch.from_rows.__func__
        empties = []

        def counting_from_rows(cls, rows, codec):
            batch = from_rows(cls, rows, codec)
            if not batch:
                empties.append(codec)
            return batch

        monkeypatch.setattr(ColumnBatch, "from_rows", classmethod(counting_from_rows))
        full = small_study(1)
        month = dataclasses.replace(
            full.world, end=full.world.start + datetime.timedelta(days=30)
        )
        built = []
        for config in (dataclasses.replace(full, world=month), full):
            empties.clear()
            tasks = execute_study(config, workers=1).report.planned_tasks
            built.append((tasks, len(empties)))
        (few, few_empties), (many, many_empties) = built
        assert many > 10 * few
        assert many_empties == few_empties


class TestColumnarPartialPack:
    def test_pack_does_not_mutate_its_input(self):
        """Regression: pack() once stripped the flow-tier fields off the
        StudyData it was given, corrupting any caller that kept using the
        original."""
        study = LongitudinalStudy(tiny_config())
        day, roles = _richest_day(study)
        data = study.day_partial(day, roles)
        snapshot = copy.deepcopy(data)
        ColumnarPartial.pack(data)
        for field in dataclasses.fields(data):
            assert getattr(data, field.name) == getattr(snapshot, field.name), (
                f"pack() mutated StudyData.{field.name}"
            )

    def test_pack_unpack_roundtrip_exact(self):
        study = LongitudinalStudy(tiny_config())
        day, roles = _richest_day(study)
        data = study.day_partial(day, roles)
        restored = ColumnarPartial.pack(data).unpack()
        for field in dataclasses.fields(data):
            assert getattr(data, field.name) == getattr(restored, field.name)


def _richest_day(study):
    """The planned day with the most roles — fills every table."""
    plan = study.planned_days()
    day = max(sorted(plan), key=lambda d: len(plan[d]))
    return day, plan[day]


class TestExactEquality:
    def test_parallel_equals_serial_field_for_field(self):
        """Per-day dispatch merged in calendar order is *exactly* the
        serial result — no canonical-sort escape hatch needed."""
        serial = LongitudinalStudy(tiny_config()).run()
        parallel = execute_study(tiny_config(), workers=3).data
        for field in dataclasses.fields(serial):
            assert getattr(serial, field.name) == getattr(parallel, field.name)


_SIGINT_DRIVER = textwrap.dedent(
    """
    import datetime, sys
    from repro.core.config import StudyConfig
    from repro.core.parallel import execute_study
    from repro.synthesis.world import WorldConfig

    def announce(pool):
        print("PIDS " + " ".join(map(str, pool.worker_pids())), flush=True)

    config = StudyConfig(
        world=WorldConfig(
            seed=17, adsl_count=200, ftth_count=100,
            start=datetime.date(2014, 1, 1), end=datetime.date(2016, 12, 31),
        ),
        day_stride=2,
    )
    execute_study(config, workers=3, pool_observer=announce)
    """
)


class TestInterrupt:
    def test_sigint_leaves_no_orphaned_workers(self, tmp_path):
        """Regression: execute_study leaked live pool workers when the
        parent took a KeyboardInterrupt mid-run."""
        script = tmp_path / "driver.py"
        script.write_text(_SIGINT_DRIVER)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(_SRC_ROOT), env.get("PYTHONPATH")])
        )
        process = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,  # isolate the SIGINT from pytest
        )
        try:
            line = process.stdout.readline()
            assert line.startswith("PIDS "), f"driver never started: {line!r}"
            worker_pids = [int(token) for token in line.split()[1:]]
            assert worker_pids
            process.send_signal(signal.SIGINT)
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if not any(_alive(pid) for pid in worker_pids):
                return
            time.sleep(0.1)
        leaked = [pid for pid in worker_pids if _alive(pid)]
        assert not leaked, f"workers survived SIGINT: {leaked}"


_SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class TestMerge:
    def test_merge_rejects_mismatched_spans(self):
        first = LongitudinalStudy(tiny_config()).empty_data()
        other_config = StudyConfig(
            world=WorldConfig(
                seed=17, adsl_count=10, ftth_count=5,
                start=D(2015, 1, 1), end=D(2015, 3, 1),
            ),
            day_stride=10,
        )
        second = LongitudinalStudy(other_config).empty_data()
        with pytest.raises(ValueError):
            first.merge(second)


class TestCancellation:
    """Cooperative cancel: drain, checkpoint, resume to identity."""

    @staticmethod
    def _run(tmp_path, *, workers, cancel=None, progress=None):
        from repro.core.parallel import execute_study

        return execute_study(
            tiny_config(),
            workers=workers,
            checkpoint_root=tmp_path,
            resume=True,
            cancel=cancel,
            progress=progress,
        )

    def test_pre_set_token_cancels_before_any_work(self, tmp_path):
        from repro.core.parallel import CancelToken, RunCancelled

        token = CancelToken()
        token.set()
        for workers in (1, 2):
            with pytest.raises(RunCancelled) as excinfo:
                self._run(tmp_path / str(workers), workers=workers, cancel=token)
            assert excinfo.value.report is not None
            assert excinfo.value.report.completed == 0

    def test_cancel_during_retry_backoff_leaves_the_task_unsettled(self, tmp_path):
        """The in-process executor defers a retry exactly as the pool
        does: a cancel that lands in the backoff drops the retry, so the
        task has no manifest row and the resume computes it."""
        from repro.core.faults import KIND_TRANSIENT, FaultPlan, FaultSpec
        from repro.core.parallel import (
            CancelToken,
            RetryPolicy,
            RunCancelled,
            execute_study,
        )

        class CancelledWhileBackingOff(CancelToken):
            def __init__(self):
                super().__init__()
                self.backoffs = []

            def wait(self, timeout):
                self.backoffs.append(timeout)
                self.set()
                return True

        first = sorted(LongitudinalStudy(tiny_config()).planned_days())[0]
        token = CancelledWhileBackingOff()
        with pytest.raises(RunCancelled) as excinfo:
            execute_study(
                tiny_config(),
                workers=1,
                checkpoint_root=tmp_path,
                cancel=token,
                # One transient failure: had the retry run, it would have
                # succeeded and left a row with two attempts.
                fault_plan=FaultPlan.of(
                    FaultSpec(day=first, kind=KIND_TRANSIENT, times=1)
                ),
                retry=RetryPolicy(retries=2, backoff=5.0, jitter=1.0),
            )
        assert token.backoffs == [pytest.approx(5.0, abs=0.5)]  # never slept
        # Nothing settled: not the failed task, and no later one started.
        assert excinfo.value.report.records == []
        resumed = self._run(tmp_path, workers=1)
        assert resumed.report.checkpoint_hits == 0
        assert resumed.report.completed == resumed.report.planned_tasks

    @pytest.mark.parametrize("workers", [1, 3])
    def test_cancel_then_resume_is_field_identical(self, tmp_path, workers):
        from repro.core.parallel import CancelToken, RunCancelled

        baseline = LongitudinalStudy(tiny_config()).run()

        token = CancelToken()
        seen = []

        def cancel_after_two(day):
            seen.append(day)
            if len(seen) >= 2:
                token.set()

        with pytest.raises(RunCancelled) as excinfo:
            self._run(tmp_path, workers=workers, cancel=token,
                      progress=cancel_after_two)
        partial_report = excinfo.value.report
        assert partial_report is not None
        completed_before = partial_report.completed
        assert completed_before > 0
        # the cancelled run checkpointed exactly what it completed
        assert str(completed_before) in str(excinfo.value)

        resumed = self._run(tmp_path, workers=workers)
        # the cancel really stopped early...
        assert completed_before < resumed.report.planned_tasks
        # ...the resume picked the completed prefix up from checkpoints...
        assert resumed.report.checkpoint_hits == completed_before
        assert resumed.report.completed == resumed.report.planned_tasks
        # ...and the merged result is field-for-field the serial study
        for field in dataclasses.fields(baseline):
            assert getattr(baseline, field.name) == \
                getattr(resumed.data, field.name), field.name

    def test_cancelled_manifest_is_written(self, tmp_path):
        import json

        from repro.core.parallel import CancelToken, RunCancelled

        for workers in (1, 2):
            token = CancelToken()

            def cancel_immediately(day):
                token.set()

            with pytest.raises(RunCancelled):
                self._run(tmp_path / str(workers), workers=workers,
                          cancel=token, progress=cancel_immediately)
            manifests = list(
                (tmp_path / str(workers)).glob("config=*/manifest.json")
            )
            assert len(manifests) == 1
            manifest = json.loads(manifests[0].read_text())
            assert manifest["completed"] >= 1


class TestRetryPolicy:
    """Backoff must be capped and jitter must be deterministic: a chaos
    trial that retries the same day twice has to produce the same wait
    schedule — and the same report bytes — on every run."""

    def test_backoff_is_capped(self):
        from repro.core.parallel import RetryPolicy

        policy = RetryPolicy(retries=20, backoff=0.05, factor=2.0,
                             max_backoff=5.0, jitter=1.0)
        delays = [policy.delay(attempt) for attempt in range(20)]
        assert max(delays) <= 5.0
        # Early attempts still grow geometrically below the cap.
        assert delays[0] == pytest.approx(0.05)
        assert delays[1] == pytest.approx(0.10)
        assert delays[-1] == pytest.approx(5.0)

    def test_jitter_is_seeded_by_key_not_wall_clock(self):
        from repro.core.parallel import RetryPolicy

        policy = RetryPolicy(backoff=1.0, factor=1.0, max_backoff=1.0,
                             jitter=0.5)
        key = ("2014-01-05", 0)
        first = [policy.delay(a, key=key) for a in range(4)]
        second = [policy.delay(a, key=key) for a in range(4)]
        assert first == second  # pure function of (key, attempt)
        assert all(0.5 <= d <= 1.0 for d in first)
        # Different keys spread differently (the whole point of jitter).
        other = [policy.delay(a, key=("2014-01-06", 1)) for a in range(4)]
        assert first != other

    def test_no_key_means_no_jitter(self):
        from repro.core.parallel import RetryPolicy

        policy = RetryPolicy(backoff=0.2, factor=1.0, max_backoff=1.0,
                             jitter=0.5)
        assert policy.delay(0) == pytest.approx(0.2)


class TestCheckpointWriteFailureTolerance:
    """A day that *computed* must never be lost to a failed checkpoint
    write: the run carries on (telemetry notes the miss) and the final
    data is field-identical to an unfaulted run."""

    def _config(self):
        return tiny_config()

    def test_enospc_on_every_checkpoint_write_does_not_fail_the_run(
        self, tmp_path
    ):
        from repro.chaos.fsfaults import FsFaultSpec, injected
        from repro.core import fsio
        from repro.core.parallel import execute_study
        from repro.telemetry import runtime as telemetry_runtime
        from repro.telemetry.runtime import Telemetry

        config = self._config()
        baseline = execute_study(config, workers=1).data
        specs = tuple(
            FsFaultSpec(fsio.SURFACE_CHECKPOINT, fsio.MODE_ENOSPC, n)
            for n in range(64)
        )
        bundle = Telemetry.for_spec("monotonic")
        with injected(specs):
            with telemetry_runtime.activate(bundle):
                result = execute_study(
                    config, workers=1, checkpoint_root=tmp_path
                )
        for field in dataclasses.fields(baseline):
            assert getattr(result.data, field.name) == \
                getattr(baseline, field.name), field.name
        counters = bundle.snapshot().metrics.counters
        assert counters[("checkpoint_write_failures", ())] > 0
        # Nothing was persisted, so a resume recomputes everything —
        # and still converges.
        resumed = execute_study(
            config, workers=1, checkpoint_root=tmp_path, resume=True
        )
        for field in dataclasses.fields(baseline):
            assert getattr(resumed.data, field.name) == \
                getattr(baseline, field.name), field.name

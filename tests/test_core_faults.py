"""Fault-injection coverage for the crash-safe study runner.

Every scenario the fault-tolerance tier promises to survive is exercised
here with :mod:`repro.core.faults`: transient worker errors (retried with
backoff), deterministic poison days (fail fast, other days keep their
results), workers killed mid-task (``os._exit``), and killed runs resumed
from per-day checkpoints with bit-identical merged output.

The multiprocessing start method defaults to the runtime choice; CI's
fault-smoke job re-runs this file under both ``fork`` and ``spawn`` via
the ``REPRO_START_METHOD`` environment variable.
"""

import dataclasses
import datetime
import os

import pytest

from repro.core.config import StudyConfig, config_hash
from repro.core.faults import (
    KIND_ERROR,
    KIND_KILL,
    KIND_TRANSIENT,
    FaultPlan,
    FaultSpec,
)
from repro.core.parallel import ChunkError, RetryPolicy, execute_study
from repro.core.study import LongitudinalStudy
from repro.synthesis.world import WorldConfig
from repro.telemetry.runtime import Telemetry

D = datetime.date

#: CI matrix override; None means "resolve at runtime" (fork where available).
START_METHOD = os.environ.get("REPRO_START_METHOD") or None

#: Fast backoff so retry tests don't sleep for real.
FAST_RETRY = RetryPolicy(retries=2, backoff=0.001, factor=1.0)


def micro_config(seed=17):
    return StudyConfig(
        world=WorldConfig(
            seed=seed,
            adsl_count=16,
            ftth_count=8,
            start=D(2014, 1, 1),
            end=D(2014, 2, 28),
        ),
        day_stride=6,
        flow_days_per_month=1,
        rtt_days_per_comparison_month=1,
    )


def planned_days(config):
    return sorted(LongitudinalStudy(config).planned_days())


def assert_identical(expected, actual):
    """Field-for-field equality — stronger than spot-checking figures."""
    for field in dataclasses.fields(expected):
        assert getattr(expected, field.name) == getattr(actual, field.name), (
            f"StudyData.{field.name} differs"
        )


@pytest.fixture(scope="module")
def serial_17():
    return LongitudinalStudy(micro_config(seed=17)).run()


#: The in-process executor and the pool run the same dispatch loop, so
#: every retry rule is asserted for both and the two must agree.
WORKER_COUNTS = (1, 2)


def retry_attempts(telemetry):
    """The attempt each of the run's ``retry`` events scheduled, in order."""
    return [
        dict(event.attrs)["attempt"]
        for event in telemetry.events
        if event.name == "retry"
    ]


class TestRetries:
    def test_transient_crash_twice_then_succeed(self, serial_17):
        config = micro_config(seed=17)
        target = planned_days(config)[2]
        plan = FaultPlan.of(FaultSpec(day=target, kind=KIND_TRANSIENT, times=2))
        seen = {}
        for workers in WORKER_COUNTS:
            result = execute_study(
                config, workers=workers, start_method=START_METHOD,
                retry=FAST_RETRY, fault_plan=plan,
                telemetry=Telemetry.for_spec("virtual"),
            )
            assert_identical(serial_17, result.data)
            record = next(r for r in result.report.records if r.day == target)
            assert record.attempts == 3
            assert record.retries == 2
            assert result.report.retries == 2
            seen[workers] = retry_attempts(result.telemetry)
        assert seen[1] == seen[2] == ["1", "2"]

    def test_worker_killed_mid_task_recovers(self, serial_17):
        config = micro_config(seed=17)
        target = planned_days(config)[1]
        plan = FaultPlan.of(FaultSpec(day=target, kind=KIND_KILL, times=1))
        result = execute_study(
            config, workers=2, start_method=START_METHOD,
            retry=FAST_RETRY, fault_plan=plan,
        )
        assert_identical(serial_17, result.data)
        assert result.report.crashes >= 1
        record = next(r for r in result.report.records if r.day == target)
        assert record.attempts == 2

    def test_deterministic_error_fails_fast(self):
        config = micro_config(seed=17)
        target = planned_days(config)[0]
        plan = FaultPlan.of(FaultSpec(day=target, kind=KIND_ERROR, times=-1))
        for workers in WORKER_COUNTS:
            with pytest.raises(ChunkError) as excinfo:
                execute_study(
                    config, workers=workers, start_method=START_METHOD,
                    retry=FAST_RETRY, fault_plan=plan,
                )
            record = next(
                r for r in excinfo.value.report.records if r.day == target
            )
            assert record.attempts == 1, "deterministic failures must not retry"

    def test_poison_day_exhausts_retries_and_names_itself(self, tmp_path):
        config = micro_config(seed=17)
        days = planned_days(config)
        target = days[3]
        plan = FaultPlan.of(
            FaultSpec(day=target, kind=KIND_TRANSIENT, times=-1)
        )
        seen = {}
        for workers in WORKER_COUNTS:
            bundle = Telemetry.for_spec("virtual")
            with pytest.raises(ChunkError) as excinfo:
                execute_study(
                    config, workers=workers, start_method=START_METHOD,
                    checkpoint_root=tmp_path / str(workers),
                    retry=FAST_RETRY, fault_plan=plan, telemetry=bundle,
                )
            error = excinfo.value
            assert error.days == (target,)
            assert target.isoformat() in str(error)
            assert str(config.world.seed) in str(error)
            assert error.failures[0].traceback_text
            # Other days' results are not lost: all checkpointed on disk.
            report = error.report
            assert report.completed == len(days) - 1
            assert report.failed == 1
            failed_record = next(r for r in report.records if r.day == target)
            assert failed_record.attempts == FAST_RETRY.retries + 1
            # A failed run hands back no event list; the retries it noted
            # are in the caller's bundle and the final failure in the row.
            counters = bundle.snapshot().metrics.counters
            seen[workers] = (
                counters[("pool_retries", ())],
                [(r.label, r.status, r.attempts) for r in report.records],
                failed_record.error,
            )
        assert seen[1] == seen[2]
        assert seen[1][0] == FAST_RETRY.retries


class TestResume:
    @pytest.mark.parametrize("seed", [7, 17])
    def test_killed_run_resumes_bit_identical(self, tmp_path, seed):
        config = micro_config(seed=seed)
        days = planned_days(config)
        target = days[len(days) // 2]
        plan = FaultPlan.of(
            FaultSpec(day=target, kind=KIND_TRANSIENT, times=-1)
        )
        with pytest.raises(ChunkError):
            execute_study(
                config, workers=2, start_method=START_METHOD,
                checkpoint_root=tmp_path, retry=FAST_RETRY, fault_plan=plan,
            )
        resumed = execute_study(
            config, workers=2, start_method=START_METHOD,
            checkpoint_root=tmp_path, resume=True, retry=FAST_RETRY,
        )
        assert resumed.report.checkpoint_hits == len(days) - 1
        assert_identical(LongitudinalStudy(config).run(), resumed.data)

    def test_resume_without_checkpoints_recomputes(self, tmp_path, serial_17):
        config = micro_config(seed=17)
        result = execute_study(
            config, workers=2, start_method=START_METHOD,
            checkpoint_root=tmp_path, resume=True, retry=FAST_RETRY,
        )
        assert result.report.checkpoint_hits == 0
        assert_identical(serial_17, result.data)

    def test_checkpoints_keyed_by_config_hash(self, tmp_path):
        first = micro_config(seed=17)
        second = micro_config(seed=23)
        assert config_hash(first) != config_hash(second)
        execute_study(
            first, workers=1, checkpoint_root=tmp_path, retry=FAST_RETRY,
        )
        result = execute_study(
            second, workers=1, checkpoint_root=tmp_path, resume=True,
            retry=FAST_RETRY,
        )
        assert result.report.checkpoint_hits == 0, (
            "a different config's checkpoints must never be reused"
        )
        assert_identical(LongitudinalStudy(second).run(), result.data)

    def test_truncated_checkpoint_recomputed_bit_identical(
        self, tmp_path, serial_17
    ):
        """A .ckpt torn mid-file is treated as missing on resume: the day
        is recomputed and the merged StudyData stays bit-identical."""
        config = micro_config(seed=17)
        days = planned_days(config)
        execute_study(
            config, workers=1, checkpoint_root=tmp_path, retry=FAST_RETRY,
        )
        from repro.dataflow.datalake import CheckpointStore

        store = CheckpointStore(tmp_path, config_hash(config))
        torn = store.path_for(days[1])
        blob = torn.read_bytes()
        torn.write_bytes(blob[: len(blob) // 2])
        resumed = execute_study(
            config, workers=1, checkpoint_root=tmp_path, resume=True,
            retry=FAST_RETRY,
        )
        assert resumed.report.checkpoint_hits == len(days) - 1
        assert_identical(serial_17, resumed.data)

    def test_manifest_written_next_to_checkpoints(self, tmp_path):
        import json

        config = micro_config(seed=17)
        result = execute_study(
            config, workers=1, checkpoint_root=tmp_path, retry=FAST_RETRY,
        )
        manifest = (
            tmp_path / f"config={config_hash(config)}" / "manifest.json"
        )
        assert manifest.is_file()
        payload = json.loads(manifest.read_text())
        assert payload["config_hash"] == config_hash(config)
        assert payload["planned_days"] == result.report.planned_days
        assert len(payload["days"]) == result.report.planned_days


class TestStartMethods:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_exact_identity_under_both_methods(self, method, serial_17):
        import multiprocessing

        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{method} unavailable on this platform")
        result = execute_study(
            micro_config(seed=17), workers=2, start_method=method,
            retry=FAST_RETRY,
        )
        assert result.report.start_method == method
        assert_identical(serial_17, result.data)

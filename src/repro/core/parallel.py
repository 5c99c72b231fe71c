"""Fault-tolerant parallel study execution.

The paper processed its 247 billion records on a Hadoop cluster that
survived probe outages, disk failures, and software upgrades (§2); the
reproduction's equivalent lever is that every study day is independent —
generation and stage-1 aggregation share no state across days (per-day
seeds, DESIGN.md §6).  :func:`execute_study` therefore dispatches *one
task per planned (day, shard)* and treats partial failure as the normal
case:

* a worker exception comes back as a structured :class:`DayFailure`
  naming the day, attempt, and traceback — never as an opaque
  ``Pool.map`` abort that throws away every other chunk;
* transient failures (I/O flakiness, injected
  :class:`~repro.core.faults.TransientWorkerError`, a worker process
  dying mid-task) are retried with bounded exponential backoff;
  deterministic failures fail fast;
* days that fail permanently surface as a :class:`ChunkError` naming the
  day, seed, and traceback — raised only after every other day has been
  drained (and checkpointed), so one poison day cannot lose the rest;
* each completed day is checkpointed through a
  :class:`~repro.dataflow.datalake.CheckpointStore` keyed by
  ``(config_hash, day)``, making a killed run resumable with
  bit-identical merged results;
* the whole run is described by a :class:`RunReport` manifest (per-day
  wall time, attempts, worker id, checkpoint hits) that ``repro run
  --report`` prints and checkpointed runs persist as ``manifest.json``.

Partials are merged strictly in calendar order — the same left fold as
:meth:`LongitudinalStudy.run` — so the merged :class:`StudyData` is
*exactly* equal to it: parallelism, retries, crashes, resumes, and
sharding change wall-clock, never results (asserted in tests).

Every task goes through one lifecycle whatever the worker count: one
dispatch loop (:func:`_run_tasks`) submits a bounded window of tasks to
an executor, settles what comes back, defers transient failures through
their backoff and honours the cancel token.  The executor is a
:class:`~repro.core.pool.SupervisedPool`, or — when one worker is all
the plan can use — an in-process stand-in with the same surface, so a
serial run exercises the very retry and cancel rules a pooled run does.

A study day is always a list of N >= 1 range tasks (DESIGN.md §15):
``execute_study(..., shards=N)`` plans one :class:`DayTask` per
``(day, shard)`` and every worker runs
:meth:`LongitudinalStudy.day_shard_partial` over its subscriber range.
A one-shard task holds the whole day, so its worker also runs the fan-in
(:func:`~repro.core.study.merge_day_shards`) and ships the finished day
partial; the parts of a split day are fanned in by the parent before the
calendar fold, with shard-granular checkpoints and manifest rows,
so a killed 100k-subscriber run resumes mid-day.  Completed partials
above a memory watermark spill to disk (``shard_spill_dir``) in the
checkpoint tier's record format and are read back during fan-in.

Workers ship their partials back as :class:`ColumnarPartial`\\ s: the
bulky flow-tier payloads — per-(service, year) RTT sample lists, per-day
server-IP sets and (address → shared?) role maps — are flattened into
NumPy arrays before pickling, so the parent deserializes a handful of
buffers instead of millions of boxed floats and dict entries.  Packing
and unpacking are exact inverses; the merged result is unchanged.
"""

from __future__ import annotations

import collections
import dataclasses
import datetime
import json
import math
import multiprocessing
import os
import threading
import time
import traceback
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core import fsio
from repro.core.config import StudyConfig, config_hash
from repro.core.faults import FaultPlan, is_transient
from repro.core.pool import (
    EVENT_CRASH,
    EVENT_DONE,
    EVENT_ERROR,
    SupervisedPool,
    WorkerEnvironmentError,
    resolve_start_method,
)
from repro.core.shards import (
    DEFAULT_SPILL_WATERMARK_BYTES,
    ShardExtra,
    ShardSpec,
    load_spilled,
    plan_shards,
    shard_key,
    spill_file_name,
    spill_partial,
    task_attrs,
    task_label,
)
from repro.core.study import LongitudinalStudy, StudyData, merge_day_shards
from repro.dataflow.datalake import CheckpointError, CheckpointStore
from repro.telemetry import runtime as telemetry_runtime
from repro.telemetry.clock import Clock, MonotonicClock, VirtualClock, clock_for
from repro.telemetry.export import RunEvent, RunTelemetry
from repro.telemetry.metrics import merge_snapshots
from repro.telemetry.runtime import Telemetry, TelemetrySnapshot
from repro.telemetry.spans import SpanRecord, reparent

#: In-flight dispatch window per pool worker: enough queued tasks that a
#: settling worker never idles waiting for the parent's next ``submit``,
#: small enough that a cooperative cancel drains quickly (only tasks
#: already handed to the queue keep running after a cancel).
_SUBMIT_WINDOW_PER_WORKER = 2

#: Dispatch/settlement key: (day, shard index).
_Key = Tuple[datetime.date, int]

#: Per-process memo of studies built from their (hashed) config: the
#: parent plans from it, the inline executor computes with it and fork
#: workers inherit it, so a process builds a config's world once.
_STUDY_CACHE: Dict[str, LongitudinalStudy] = {}  # repro: noqa[RPR004] -- per-process memo keyed by config hash; an entry is built deterministically from the config and never mutated afterwards, so the copy a fork worker inherits equals the one it would build; never pickled — spawn workers rebuild from the task's config


@dataclass
class ColumnarPartial:
    """One worker's StudyData with the heavy flow-tier fields columnarized."""

    data: StudyData
    rtt: List[Tuple[Tuple[str, int], np.ndarray]]
    ip_sets: List[Tuple[str, datetime.date, np.ndarray]]
    ip_roles: List[Tuple[str, datetime.date, np.ndarray, np.ndarray]]
    #: Shard fan-in sidecar (:class:`~repro.core.shards.ShardExtra`) of
    #: one part of a split day; ``None`` on a finished day partial.
    extra: Optional[object] = None

    @classmethod
    def pack(cls, data: StudyData, extra: Optional[object] = None) -> "ColumnarPartial":
        """Flatten the object-graph fields into compact arrays.

        ``data`` is left untouched: the returned partial wraps a shallow
        copy whose three flow-tier dicts are emptied, so callers that
        pack a partial and keep using their StudyData never see silent
        loss.  (The copy shares the remaining aggregate lists with
        ``data`` — packing is a serialization step, not a deep fork.)
        """
        rtt = [
            (key, np.asarray(samples, dtype=np.float64))
            for key, samples in data.rtt_samples.items()
        ]
        ip_sets = [
            (service, day, np.fromiter(sorted(addresses), np.int64, len(addresses)))
            for service, entries in data.daily_ip_sets.items()
            for day, addresses in entries
        ]
        ip_roles = [
            (
                service,
                day,
                np.fromiter(roles.keys(), np.int64, len(roles)),
                np.fromiter(roles.values(), bool, len(roles)),
            )
            for service, entries in data.daily_ip_roles.items()
            for day, roles in entries
        ]
        shell = dataclasses.replace(
            data, rtt_samples={}, daily_ip_sets={}, daily_ip_roles={}
        )
        return cls(
            data=shell, rtt=rtt, ip_sets=ip_sets, ip_roles=ip_roles, extra=extra
        )

    def approx_nbytes(self) -> int:
        """Cheap resident-size estimate used by the spill watermark.

        Exact for the columnarized arrays; the boxed aggregate rows are
        charged a flat per-row estimate (a pickle round-trip per ``put``
        would cost more than the spill it gates).
        """
        total = 0
        for _, samples in self.rtt:
            total += samples.nbytes
        for _, _, addresses in self.ip_sets:
            total += addresses.nbytes
        for _, _, addresses, shared in self.ip_roles:
            total += addresses.nbytes + shared.nbytes
        data = self.data
        total += 96 * sum(len(rows) for rows in data.subscriber_days.values())
        total += 112 * len(data.service_stats)
        total += 64 * (len(data.protocol_rows) + len(data.hourly))
        total += 96 * len(data.census)
        return total

    def unpack(self) -> StudyData:
        """Rebuild the exact StudyData the worker reduced."""
        data = self.data
        for key, samples in self.rtt:
            data.rtt_samples[key] = samples.tolist()
        for service, day, addresses in self.ip_sets:
            data.daily_ip_sets.setdefault(service, []).append(
                (day, set(addresses.tolist()))
            )
        for service, day, addresses, shared in self.ip_roles:
            data.daily_ip_roles.setdefault(service, []).append(
                (day, dict(zip(addresses.tolist(), shared.tolist())))
            )
        return data


# ----------------------------------------------------------------------
# Tasks and outcomes


@dataclass(frozen=True)
class DayTask:
    """One unit of dispatch: one subscriber range of a planned day at a
    given attempt (the whole day when the plan has one shard)."""

    index: int
    day: datetime.date
    roles: Tuple[str, ...]
    attempt: int
    config: StudyConfig
    shard: ShardSpec
    fault_plan: Optional[FaultPlan] = None
    #: When set, the worker activates a fresh Telemetry bundle around the
    #: day and ships the snapshot back on the result pipe (no live state
    #: ever crosses the process boundary).
    telemetry_enabled: bool = False
    #: Clock spec for the worker's bundle; matches the parent's clock so
    #: virtual-clock runs stay deterministic end to end.
    clock_spec: str = "monotonic"

    @property
    def label(self) -> str:
        return task_label(self.day, self.shard.index, self.shard.count)


@dataclass(frozen=True)
class DaySuccess:
    index: int
    day: datetime.date
    attempt: int
    partial: ColumnarPartial
    wall_time: float
    worker: int
    telemetry: Optional[TelemetrySnapshot] = None
    #: Which shard of the day settled (0 of 1 for a whole day).
    shard: int = 0
    shards: int = 1


@dataclass(frozen=True)
class DayFailure:
    """A structured worker failure: which day, which attempt, why."""

    index: int
    day: datetime.date
    attempt: int
    transient: bool
    error: str
    traceback_text: str
    worker: Optional[int]
    #: Elapsed seconds the failed attempt actually burned (the manifest
    #: used to record a flat 0.0 for failed days).
    wall_time: float = 0.0
    shard: int = 0
    shards: int = 1

    @property
    def label(self) -> str:
        return task_label(self.day, self.shard, self.shards)


def _cached_study(config: StudyConfig) -> LongitudinalStudy:
    key = config_hash(config)
    study = _STUDY_CACHE.get(key)
    if study is None:
        # Full: drop the oldest entries, never the studies of runs in
        # flight (the newest).  ``list`` and ``pop`` are each atomic, so
        # concurrent runs of the service cannot trip over each other here.
        for stale in list(_STUDY_CACHE)[:-3]:
            _STUDY_CACHE.pop(stale, None)
        study = LongitudinalStudy(config)
        _STUDY_CACHE[key] = study
    return study


def _run_chunk(task: DayTask) -> object:
    """Worker entry point: process one day, report the outcome.

    Spawn-clean by construction: everything it touches arrives through
    the picklable ``task`` or module-level imports, so the function works
    identically under fork and spawn start methods (RPR004 walks this
    function's import closure for shared mutable state).
    """
    clock = clock_for(task.clock_spec)
    started = clock.now()
    bundle: Optional[Telemetry] = None
    shard = task.shard
    try:
        if task.fault_plan is not None:
            task.fault_plan.fire(task.day, task.attempt, shard=shard.index)
        study = _cached_study(task.config)
        if task.telemetry_enabled:
            bundle = Telemetry.for_spec(task.clock_spec)
        scope = (
            telemetry_runtime.activate(bundle)
            if bundle is not None
            else nullcontext()
        )
        with scope:
            data, extra = study.day_shard_partial(
                task.day, set(task.roles), shard
            )
            if shard.key is None:
                # The task holds the whole day: fan it in here and ship the
                # finished partial, so the parent does no per-day analytics.
                data = merge_day_shards(task.day, [(data, extra)], study.world.rib)
                extra = None
        partial = ColumnarPartial.pack(data, extra=extra)
    except Exception as exc:
        return DayFailure(
            index=task.index,
            day=task.day,
            attempt=task.attempt,
            transient=is_transient(exc),
            error=repr(exc),
            traceback_text=traceback.format_exc(),
            worker=os.getpid(),
            wall_time=clock.now() - started,
            shard=shard.index,
            shards=shard.count,
        )
    return DaySuccess(
        index=task.index,
        day=task.day,
        attempt=task.attempt,
        partial=partial,
        wall_time=clock.now() - started,
        worker=os.getpid(),
        telemetry=bundle.snapshot() if bundle is not None else None,
        shard=shard.index,
        shards=shard.count,
    )


# ----------------------------------------------------------------------
# Retry policy, manifest, and errors


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for transient failures.

    ``retries`` counts *additional* attempts after the first (so a day
    may run ``retries + 1`` times); worker crashes count as transient.
    Deterministic failures are never retried.

    The exponential curve is clamped at ``max_backoff`` — a high
    ``--retries`` with ``factor`` growth must not turn into minute-long
    sleeps — and, when a ``key`` identifies the retrying unit, the delay
    is spread deterministically over ``[jitter * max, max]`` so shards
    that failed together (one crashed worker takes a whole submit
    window with it) do not retry in lockstep.  The spread hashes only
    the key and attempt: same schedule every run, no RNG state.
    """

    retries: int = 2
    backoff: float = 0.05
    factor: float = 2.0
    #: Ceiling on a single backoff sleep, in seconds.
    max_backoff: float = 5.0
    #: Lower edge of the jitter window as a fraction of the full delay;
    #: 1.0 disables jitter entirely.
    jitter: float = 0.5

    def delay(self, failed_attempt: int, key: object = None) -> float:
        """Seconds to back off after 0-based ``failed_attempt`` failed.

        ``key`` (e.g. ``(day, shard)``) decorrelates concurrent
        retriers; without one the clamped exponential is returned as-is.
        """
        base = min(self.backoff * (self.factor ** failed_attempt),
                   self.max_backoff)
        if key is None or self.jitter >= 1.0:
            return base
        token = f"{key!r}|{failed_attempt}".encode("utf-8")
        fraction = (zlib.crc32(token) % 10_000) / 10_000.0
        return base * (self.jitter + (1.0 - self.jitter) * fraction)


@dataclass(frozen=True)
class DayRecord:
    """One manifest row: how a planned day reached its final state."""

    day: datetime.date
    status: str  # "completed" | "failed" | "excluded" (quality-gated replay)
    attempts: int
    wall_time: float
    worker: Optional[int]
    source: str  # "worker" | "serial" | "checkpoint"
    error: str = ""
    #: Which shard of the day this row covers (0 of 1 for a whole day).
    shard: int = 0
    shards: int = 1

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)

    @property
    def label(self) -> str:
        """Manifest key: the ISO day, suffixed ``/k`` when sharded."""
        return task_label(self.day, self.shard, self.shards)

    def to_dict(self) -> dict:
        return {
            "day": self.day.isoformat(),
            "status": self.status,
            "attempts": self.attempts,
            "retries": self.retries,
            "wall_time": round(self.wall_time, 6),
            "worker": self.worker,
            "source": self.source,
            "error": self.error,
            "shard": self.shard,
            "shards": self.shards,
        }


@dataclass
class RunReport:
    """The run manifest: everything an operator needs post-mortem."""

    config_hash: str
    seed: int
    start_method: str
    workers: int
    records: List[DayRecord] = field(default_factory=list)
    crashes: int = 0
    wall_time: float = 0.0
    #: How the days actually ran: "serial", "pool", or "none" (every day
    #: came from checkpoints / nothing was planned).  ``start_method`` is
    #: always the *resolved* method — never the ``None`` default — even
    #: when no pool was spawned, so manifests from defaulted runs still
    #: say what a resume would use.
    execution: str = "none"
    #: Per-day data-quality dicts (see :class:`repro.dataflow.integrity.
    #: DayQualityReport.to_dict`) for runs that read from the lake under
    #: an integrity policy; empty for world-model runs.
    data_quality: List[dict] = field(default_factory=list)
    #: Shard fan-out per day (records are per shard-task).
    shards: int = 1
    #: Completed partials spilled to disk under the memory watermark.
    spills: int = 0

    @property
    def planned_days(self) -> int:
        return len({record.day for record in self.records})

    @property
    def planned_tasks(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.status == "completed")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.status == "failed")

    @property
    def checkpoint_hits(self) -> int:
        return sum(1 for r in self.records if r.source == "checkpoint")

    @property
    def retries(self) -> int:
        return sum(r.retries for r in self.records)

    def worker_wall_time(self) -> float:
        return math.fsum(r.wall_time for r in self.records)

    def telemetry_dict(self) -> dict:
        """The manifest's telemetry section: per-day wall time, retry
        counts, and where each day's result came from."""
        return {
            "worker_wall_time": round(self.worker_wall_time(), 6),
            "retries": self.retries,
            "checkpoint_hits": self.checkpoint_hits,
            "days": {
                record.label: {
                    "wall_time": round(record.wall_time, 6),
                    "retries": record.retries,
                    "source": record.source,
                }
                for record in self.records
            },
        }

    def to_dict(self) -> dict:
        return {
            "version": 2,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "start_method": self.start_method,
            "execution": self.execution,
            "workers": self.workers,
            "shards": self.shards,
            "spills": self.spills,
            "planned_days": self.planned_days,
            "planned_tasks": self.planned_tasks,
            "completed": self.completed,
            "failed": self.failed,
            "checkpoint_hits": self.checkpoint_hits,
            "retries": self.retries,
            "crashes": self.crashes,
            "wall_time": round(self.wall_time, 6),
            "telemetry": self.telemetry_dict(),
            "days": [record.to_dict() for record in self.records],
            "data_quality": self.data_quality,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def telemetry_lines(self) -> List[str]:
        """The telemetry section, rendered for ``repro run --report``."""
        lines = [
            f"telemetry: {self.worker_wall_time():.2f}s of per-day work, "
            f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}, "
            f"{self.checkpoint_hits} checkpoint hit(s)",
            "day         wall(s)  retries  source",
        ]
        for record in self.records:
            lines.append(
                f"{record.label}  {record.wall_time:7.3f}  "
                f"{record.retries:>7}  {record.source}"
            )
        return lines

    def summary_lines(self) -> List[str]:
        if self.shards > 1:
            tasks = (
                f"days: {self.planned_days} planned x {self.shards} shards "
                f"= {self.planned_tasks} tasks, {self.completed} completed "
                f"({self.checkpoint_hits} from checkpoints), "
                f"{self.failed} failed"
            )
            if self.spills:
                tasks += f", {self.spills} partial(s) spilled"
        else:
            tasks = (
                f"days: {self.planned_days} planned, "
                f"{self.completed} completed "
                f"({self.checkpoint_hits} from checkpoints), "
                f"{self.failed} failed"
            )
        return [
            f"run {self.config_hash} seed={self.seed} "
            f"method={self.start_method} ({self.execution}) "
            f"workers={self.workers}",
            tasks,
            f"faults: {self.retries} retr{'y' if self.retries == 1 else 'ies'}, "
            f"{self.crashes} worker crash(es)",
            f"wall: {self.wall_time:.2f}s elapsed, "
            f"{self.worker_wall_time():.2f}s of per-day work",
        ]

    def day_lines(self) -> List[str]:
        lines = ["day         status     att  wall(s)  worker  source"]
        for record in self.records:
            lines.append(
                f"{record.label}  {record.status:<9}  "
                f"{record.attempts:>3}  {record.wall_time:7.3f}  "
                f"{record.worker or '-':>6}  {record.source}"
                + (f"  {record.error}" if record.error else "")
            )
        return lines


class ChunkError(RuntimeError):
    """A day failed permanently: names the day(s), seed, and traceback.

    Raised only after every other day finished (and, when checkpointing,
    was persisted), so nothing else is lost: ``report`` carries the full
    manifest and a resumed run recomputes only the failed days.
    """

    def __init__(
        self,
        failures: List[DayFailure],
        seed: int,
        report: Optional[RunReport] = None,
    ) -> None:
        self.failures = tuple(failures)
        self.seed = seed
        self.report = report
        first = self.failures[0]
        days = ", ".join(f.label for f in self.failures)
        message = (
            f"{len(self.failures)} day(s) failed permanently "
            f"(seed {seed}): {days}\n"
            f"first failure: day {first.label} after "
            f"{first.attempt + 1} attempt(s): {first.error}"
        )
        if first.traceback_text:
            message += f"\n{first.traceback_text}"
        super().__init__(message)

    @property
    def days(self) -> Tuple[datetime.date, ...]:
        return tuple(f.day for f in self.failures)


class CancelToken:
    """Cooperative stop signal for a run in flight.

    Thread-safe: the owner (another thread, a signal handler, the
    service control plane) calls :meth:`set` once; the dispatch loops
    poll :meth:`is_set` between tasks.  Cancellation is *cooperative* —
    tasks already handed to a worker run to completion and are
    checkpointed, so a cancelled run is always resumable.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def set(self) -> None:
        self._event.set()

    def is_set(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float) -> bool:
        """Block up to ``timeout`` seconds; True if cancelled meanwhile."""
        return self._event.wait(timeout)


class RunCancelled(RuntimeError):
    """The run stopped at a :class:`CancelToken`, not at a failure.

    Raised only after every in-flight task drained and checkpointed (and
    the manifest was written), so ``report`` describes a consistent,
    resumable prefix of the run: re-running with ``resume=True`` picks
    up exactly the tasks that never settled.
    """

    def __init__(self, seed: int, report: Optional[RunReport] = None) -> None:
        self.seed = seed
        self.report = report
        completed = report.completed if report is not None else 0
        super().__init__(
            f"run cancelled (seed {seed}): {completed} task(s) completed "
            "and checkpointed; resume to finish the rest"
        )


@dataclass
class RunResult:
    """What :func:`execute_study` hands back: the data plus its manifest."""

    data: StudyData
    report: RunReport
    #: Populated only when :func:`execute_study` ran with a telemetry
    #: bundle: the merged metrics, span forest, and execution events.
    telemetry: Optional[RunTelemetry] = None


# ----------------------------------------------------------------------
# Execution


class _PartialStore:
    """Completed partials, spilling the largest past a memory watermark.

    With no spill directory this is a plain keyed dict.  With one, every
    ``put`` re-checks the resident-size estimate and spills the largest
    partials (:func:`~repro.core.shards.spill_partial`) until the
    estimate is back under the watermark; :meth:`pop` reads spilled
    partials back in during fan-in and deletes the file.
    """

    def __init__(
        self,
        spill_dir: Optional[object],
        watermark_bytes: Optional[int],
    ) -> None:
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None  # type: ignore[arg-type]
        self.watermark = (
            watermark_bytes
            if watermark_bytes is not None
            else DEFAULT_SPILL_WATERMARK_BYTES
        )
        self._resident: Dict[_Key, ColumnarPartial] = {}
        self._sizes: Dict[_Key, int] = {}
        self._spilled: Dict[_Key, Path] = {}
        self.spills = 0

    def __contains__(self, key: _Key) -> bool:
        return key in self._resident or key in self._spilled

    def __len__(self) -> int:
        return len(self._resident) + len(self._spilled)

    def put(
        self, key: _Key, partial: ColumnarPartial
    ) -> Optional[Tuple[_Key, OSError]]:
        """Keep ``partial``; returns the ``(key, error)`` of a spill write
        the disk refused (that partial, and the rest, stay resident)."""
        self._resident[key] = partial
        self._sizes[key] = partial.approx_nbytes()
        if self.spill_dir is None:
            return None
        total = sum(self._sizes.values())
        while total > self.watermark and self._resident:
            victim = max(self._sizes, key=self._sizes.__getitem__)
            day, shard = victim
            path = self.spill_dir / spill_file_name(day, shard)
            try:
                spill_partial(path, day, shard, self._resident[victim])
            except OSError as exc:
                return victim, exc
            del self._resident[victim]
            total -= self._sizes.pop(victim)
            self._spilled[victim] = path
            self.spills += 1
            telemetry_runtime.count("shard_partials_spilled")
        return None

    def pop(self, key: _Key) -> ColumnarPartial:
        """Remove and return a partial, restoring it from disk if spilled
        (:class:`CheckpointError` when the file does not read back)."""
        if key in self._resident:
            self._sizes.pop(key, None)
            return self._resident.pop(key)
        path = self._spilled.pop(key)
        try:
            partial = load_spilled(path)
        finally:
            path.unlink(missing_ok=True)
        telemetry_runtime.count("shard_partials_restored")
        assert isinstance(partial, ColumnarPartial)
        return partial


class _Dispatch:
    """Settlement bookkeeping of one run: partials, manifest rows, events."""

    def __init__(
        self,
        policy: RetryPolicy,
        store: Optional[CheckpointStore],
        progress: Optional[Callable[[datetime.date], None]],
        partials: Optional[_PartialStore] = None,
    ) -> None:
        self.policy = policy
        self.store = store
        self.progress = progress
        self.partials = partials if partials is not None else _PartialStore(None, None)
        self.records: Dict[_Key, DayRecord] = {}
        self.failures: List[DayFailure] = []
        self.crashes = 0
        self.day_telemetry: Dict[_Key, TelemetrySnapshot] = {}
        self.events: List[RunEvent] = []
        self._day_done: Dict[datetime.date, int] = {}

    def sorted_records(self) -> List[DayRecord]:
        """The manifest rows, in (day, shard) order."""
        return [self.records[key] for key in sorted(self.records)]

    def _note_done(self, day: datetime.date, shards: int) -> None:
        """Fire progress once every shard of ``day`` has settled."""
        done = self._day_done.get(day, 0) + 1
        self._day_done[day] = done
        if done == shards and self.progress is not None:
            self.progress(day)

    def _note(
        self, name: str, day: datetime.date, shard: int, shards: int, **attrs: str
    ) -> None:
        """Record one execution event of a (day, shard) task."""
        self.events.append(
            RunEvent(
                name,
                day=day.isoformat(),
                attrs=tuple(attrs.items()) + task_attrs(shard, shards),
            )
        )

    def _keep(self, key: _Key, partial: ColumnarPartial, shards: int) -> None:
        """Hold a settled partial until fan-in, spilling past the watermark."""
        refused = self.partials.put(key, partial)
        if refused is not None:
            # Same rule as the checkpoint write below: the result is in
            # hand, so a disk that refuses the spill costs memory, not
            # the run.
            (day, shard), exc = refused
            telemetry_runtime.count("spill_write_failures")
            self._note(
                "spill_write_failed", day, shard, shards,
                task=task_label(day, shard, shards), error=repr(exc),
            )

    def succeed(self, outcome: DaySuccess, source: str) -> None:
        key = (outcome.day, outcome.shard)
        self._keep(key, outcome.partial, outcome.shards)
        self.records[key] = DayRecord(
            day=outcome.day,
            status="completed",
            attempts=outcome.attempt + 1,
            wall_time=outcome.wall_time,
            worker=outcome.worker,
            source=source,
            shard=outcome.shard,
            shards=outcome.shards,
        )
        # Completion accounting moves regardless of whether a telemetry
        # snapshot rode back: these counters used to sit inside the
        # snapshot guard and silently undercounted.
        telemetry_runtime.count("pool_days_completed")
        telemetry_runtime.observe("pool_day_wall_seconds", outcome.wall_time)
        if outcome.telemetry is not None:
            self.day_telemetry[key] = outcome.telemetry
        if self.store is not None:
            try:
                self.store.save(
                    outcome.day,
                    outcome.partial,
                    shard=shard_key(outcome.shard, outcome.shards),
                )
            except (OSError, CheckpointError) as exc:
                # The day's result is already in hand — a full disk (or
                # injected ENOSPC/torn write) must not fail the run, it
                # only costs this day its resume shortcut.  Record it so
                # operators see the durability gap in the manifest.
                telemetry_runtime.count("checkpoint_write_failures")
                self._note(
                    "checkpoint_write_failed",
                    outcome.day,
                    outcome.shard,
                    outcome.shards,
                    error=repr(exc),
                )
        self._note_done(outcome.day, outcome.shards)

    def fail(self, failure: DayFailure) -> None:
        self.failures.append(failure)
        self.records[(failure.day, failure.shard)] = DayRecord(
            day=failure.day,
            status="failed",
            attempts=failure.attempt + 1,
            wall_time=failure.wall_time,
            worker=failure.worker,
            source="worker",
            error=failure.error,
            shard=failure.shard,
            shards=failure.shards,
        )
        self._note(
            "day_failed", failure.day, failure.shard, failure.shards,
            error=failure.error,
        )

    def note_retry(self, task: DayTask, failure: DayFailure) -> None:
        """Record a scheduled retry of a transient failure."""
        telemetry_runtime.count("pool_retries")
        self._note(
            "retry", task.day, task.shard.index, task.shard.count,
            attempt=str(task.attempt + 1), error=failure.error,
        )

    def note_crash(self, exitcode: Optional[int]) -> None:
        """Record one worker process death (and its respawn)."""
        self.crashes += 1
        telemetry_runtime.count("pool_worker_crashes")
        self.events.append(
            RunEvent("worker_crash", attrs=(("exit_code", str(exitcode)),))
        )

    def hit_checkpoint(
        self, day: datetime.date, partial: ColumnarPartial, spec: ShardSpec
    ) -> None:
        key = (day, spec.index)
        self._keep(key, partial, spec.count)
        self.records[key] = DayRecord(
            day=day,
            status="completed",
            attempts=0,
            wall_time=0.0,
            worker=None,
            source="checkpoint",
            shard=spec.index,
            shards=spec.count,
        )
        self._note("checkpoint_hit", day, spec.index, spec.count)
        self._note_done(day, spec.count)

    def restore(self, day: datetime.date, spec: ShardSpec) -> ColumnarPartial:
        """Hand a settled partial to the fan-in.

        A spilled partial that does not read back turns its task's row
        into a failure (and re-raises), so the manifest names what a
        resume has to produce again.
        """
        try:
            return self.partials.pop((day, spec.index))
        except CheckpointError as exc:
            record = self.records[(day, spec.index)]
            self.fail(
                DayFailure(
                    index=-1,  # settled long ago: no dispatch slot to match
                    day=day,
                    attempt=max(0, record.attempts - 1),
                    transient=False,
                    error=repr(exc),
                    traceback_text=traceback.format_exc(),
                    worker=record.worker,
                    wall_time=record.wall_time,
                    shard=spec.index,
                    shards=spec.count,
                )
            )
            raise


class _InlineExecutor:
    """The :class:`~repro.core.pool.SupervisedPool` surface the dispatch
    loop uses, over the calling process: ``next_event`` runs the oldest
    submitted task to completion, so no task is lost and no worker dies.
    """

    def __init__(self, runner: Callable[[DayTask], object]) -> None:
        self._runner = runner
        self._tasks: Deque[DayTask] = collections.deque()

    def submit(self, task: DayTask) -> None:
        self._tasks.append(task)

    def next_event(self, timeout: Optional[float] = None) -> Optional[Tuple]:
        if not self._tasks:
            return None
        task = self._tasks.popleft()
        return (EVENT_DONE, task.index, self._runner(task))

    def stop(self, graceful: bool = True) -> None:
        """Nothing outlives ``next_event``."""


def _run_tasks(
    dispatch: _Dispatch,
    remaining: List[DayTask],
    worker_count: int,
    start_method: Optional[str],
    pool_observer: Optional[Callable[[SupervisedPool], None]] = None,
    cancel: Optional[CancelToken] = None,
) -> None:
    """The one dispatch loop: submit, settle, defer retries, honour cancel.

    One worker runs the tasks in this process, more get a supervised
    pool; the loop does not know which.  At most ``window`` tasks are
    unsettled at once — handed to the executor or waiting out a retry
    backoff — rather than all submitted up front: results are identical
    (tasks are independent and settle by index), but a cooperative
    cancel only has to drain the window, not the whole plan.  In process
    the window is one task, so the task in flight settles and later
    tasks never start.  On cancel, pending tasks and deferred retries
    are dropped unstarted (the task stays unsettled and the resume
    recomputes it); everything already submitted settles (and
    checkpoints) before this function returns.
    """
    policy = dispatch.policy
    pool = (
        SupervisedPool(worker_count, runner=_run_chunk, start_method=start_method)
        if worker_count > 1
        else None
    )
    executor = pool if pool is not None else _InlineExecutor(_run_chunk)
    window = _SUBMIT_WINDOW_PER_WORKER * worker_count if pool is not None else 1
    source = "worker" if pool is not None else "serial"
    # Retry backoff runs on real time even under a virtual telemetry
    # clock: scheduling is operational, never exported, and a virtual
    # "now" would make eligibility depend on loop iteration counts.
    sched = MonotonicClock()
    # Workers that die before ever announcing a task signal a broken
    # environment (bad interpreter, unimportable package under spawn);
    # respawning those forever would hang the run.
    idle_crash_budget = max(8, window)
    outstanding: Dict[int, DayTask] = {}
    deferred: List[Tuple[float, DayTask]] = []
    pending: List[DayTask] = list(remaining)
    pending.reverse()  # pop() from the tail keeps plan order

    def cancelled() -> bool:
        return cancel is not None and cancel.is_set()

    def launch(task: DayTask) -> None:
        outstanding[task.index] = task
        executor.submit(task)

    def settle_failure(task: DayTask, failure: DayFailure) -> None:
        """Retry a transient failure (with backoff) or record it as final."""
        if failure.transient and task.attempt < policy.retries:
            dispatch.note_retry(task, failure)
            eligible_at = sched.now() + policy.delay(
                task.attempt, key=(task.day.isoformat(), task.shard.index)
            )
            deferred.append((eligible_at, replace(task, attempt=task.attempt + 1)))
        else:
            dispatch.fail(failure)

    try:
        if pool_observer is not None and pool is not None:
            pool_observer(pool)
        while outstanding or deferred or (pending and not cancelled()):
            if cancelled():
                # Drop everything not yet handed to the executor; what is
                # already submitted drains below and checkpoints.
                pending.clear()
                deferred.clear()
                if not outstanding:
                    break
            while pending and len(outstanding) + len(deferred) < window:
                launch(pending.pop())
            now = sched.now()
            for entry in [entry for entry in deferred if entry[0] <= now]:
                deferred.remove(entry)
                launch(entry[1])
            if not outstanding:
                if deferred:
                    # Only backoffs are left: sleep to the earliest,
                    # waking at once on cancel.
                    pause = min(entry[0] for entry in deferred) - now
                    if cancel is not None:
                        cancel.wait(pause)
                    else:
                        time.sleep(pause)
                continue
            event = executor.next_event(timeout=0.05)
            if event is None:
                continue
            kind = event[0]
            if kind == EVENT_DONE:
                _, index, outcome = event
                task = outstanding.pop(index, None)
                if task is None:
                    continue  # duplicate of an already-settled task
                if isinstance(outcome, DaySuccess):
                    dispatch.succeed(outcome, source=source)
                else:
                    settle_failure(task, outcome)
            elif kind == EVENT_ERROR:
                _, index, traceback_text = event
                task = outstanding.pop(index, None)
                if task is None:
                    continue
                dispatch.fail(
                    DayFailure(
                        index=task.index,
                        day=task.day,
                        attempt=task.attempt,
                        transient=False,
                        error="unhandled worker exception",
                        traceback_text=traceback_text,
                        worker=None,
                        shard=task.shard.index,
                        shards=task.shard.count,
                    )
                )
            elif kind == EVENT_CRASH and pool is not None:
                _, index, pid, exitcode = event
                dispatch.note_crash(exitcode)
                if index is not None and index in outstanding:
                    task = outstanding.pop(index)
                    crash = DayFailure(
                        index=task.index,
                        day=task.day,
                        attempt=task.attempt,
                        transient=True,
                        error=f"worker {pid} died (exit code {exitcode})",
                        traceback_text="",
                        worker=pid,
                        shard=task.shard.index,
                        shards=task.shard.count,
                    )
                    settle_failure(task, crash)
                else:
                    idle_crash_budget -= 1
                    if idle_crash_budget < 0:
                        raise WorkerEnvironmentError(
                            "workers keep dying before accepting work "
                            f"(last: pid {pid}, exit code {exitcode}); "
                            "the worker environment is broken"
                        )
                    # The worker died between dequeuing a task and
                    # announcing it: resubmit whatever never started.
                    # Duplicates are harmless — days are deterministic
                    # and the first settled result wins.
                    started = pool.started_indices
                    for task in list(outstanding.values()):
                        if task.index not in started:
                            pool.submit(task)
        executor.stop(graceful=True)
    finally:
        executor.stop(graceful=False)


def _assemble_run_telemetry(
    bundle: Telemetry,
    dispatch: _Dispatch,
    digest: str,
    seed: int,
) -> RunTelemetry:
    """Merge day snapshots and the parent trace into one RunTelemetry.

    Deterministic regardless of worker completion order: day metric
    snapshots merge in sorted-day order with the parent's registry last
    (so parent gauges win), and each day's spans are re-id'd past every
    earlier day before the parent's own trace is appended — the exported
    forest depends only on (config, seed, calendar, clock spec).
    """
    parent = bundle.snapshot()
    ordered = sorted(dispatch.day_telemetry)  # (day, shard) keys
    metrics = merge_snapshots(
        [dispatch.day_telemetry[key].metrics for key in ordered]
        + [parent.metrics]
    )
    spans: List[SpanRecord] = []
    offset = 0
    for key in ordered:
        day_spans = list(dispatch.day_telemetry[key].spans)
        spans.extend(reparent(day_spans, id_offset=offset, root_parent=None))
        offset += max((r.span_id for r in day_spans), default=-1) + 1
    spans.extend(reparent(list(parent.spans), id_offset=offset, root_parent=None))
    clock_name = (
        "virtual" if isinstance(bundle.clock, VirtualClock) else "monotonic"
    )
    return RunTelemetry(
        config_hash=digest,
        seed=seed,
        clock=clock_name,
        metrics=metrics,
        spans=spans,
        events=list(dispatch.events),
    )


def _check_layout(day: datetime.date, partial: object, spec: ShardSpec) -> None:
    """Reject a checkpoint pickled under another partial layout.

    Unpickling restores whatever attributes the *writer's* classes had,
    so a sidecar from a version with other fields would only fail deep
    inside the fan-in — or half-merge.  A finished day partial carries
    no sidecar; a shard's must be today's :class:`ShardExtra` for
    exactly this range.
    """
    extra = getattr(partial, "extra", None)
    fits = isinstance(partial, ColumnarPartial) and (extra is None) == (
        spec.key is None
    )
    if fits and extra is not None:
        fits = (
            isinstance(extra, ShardExtra)
            and extra.shard == spec
            and set(vars(extra)) == {f.name for f in dataclasses.fields(ShardExtra)}
        )
    if not fits:
        raise CheckpointError(
            f"checkpoint {task_label(day, spec.index, spec.count)} holds a "
            "partial of another layout"
        )


def _day_data(
    planner: LongitudinalStudy,
    dispatch: _Dispatch,
    day: datetime.date,
    specs: Tuple[ShardSpec, ...],
) -> StudyData:
    """One day's partial: finished by its worker, or fanned in here."""
    partials = [dispatch.restore(day, spec) for spec in specs]
    if specs[0].key is None:
        return partials[0].unpack()
    return merge_day_shards(
        day,
        [(partial.unpack(), partial.extra) for partial in partials],
        planner.world.rib,
    )


def _write_manifest(store: Optional[CheckpointStore], report: RunReport) -> None:
    """Persist the manifest beside the checkpoints (when there are any)."""
    if store is None:
        return
    try:
        fsio.write_and_replace(
            store.manifest_path,
            report.to_json().encode("utf-8"),
            surface=fsio.SURFACE_MANIFEST,
        )
    except OSError:
        # The manifest is an operator artifact, not an input to the
        # result: disk pressure here must not fail an otherwise
        # complete run.  Resume re-derives everything from the
        # checkpoints themselves.
        telemetry_runtime.count("manifest_write_failures")


def execute_study(
    config: StudyConfig,
    workers: Optional[int] = None,
    *,
    start_method: Optional[str] = None,
    checkpoint_root: Optional[object] = None,
    resume: bool = False,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    progress: Optional[Callable[[datetime.date], None]] = None,
    pool_observer: Optional[Callable[[SupervisedPool], None]] = None,
    telemetry: Optional[Telemetry] = None,
    shards: int = 1,
    shard_spill_dir: Optional[object] = None,
    spill_watermark_bytes: Optional[int] = None,
    cancel: Optional[CancelToken] = None,
) -> RunResult:
    """Run the study fault-tolerantly; returns the data and its manifest.

    ``checkpoint_root`` enables the per-day checkpoint tier (a directory;
    partials land under ``config=<hash>/``).  With ``resume=True``,
    checkpointed days are loaded instead of recomputed — results are
    bit-identical either way.  Permanent failures raise
    :class:`ChunkError` after all other days have been drained and
    checkpointed; the manifest is written even then.

    ``shards`` fans each day out into that many subscriber-range tasks
    (DESIGN.md §15).  Sharding is an execution parameter: the merged
    result, ``config_hash``, and checkpoint compatibility at ``shards=1``
    are all unchanged, and any shard count yields the identical
    :class:`StudyData`.  ``shard_spill_dir`` (with an optional
    ``spill_watermark_bytes``, default 256 MiB) lets completed partials
    above the watermark spill to disk until fan-in.

    ``telemetry`` opts the run into measurement: the parent bundle is
    activated around planning, dispatch, and merge; workers collect into
    fresh bundles on the same clock spec and ship snapshots back with
    their partials; :attr:`RunResult.telemetry` carries the merged
    :class:`~repro.telemetry.export.RunTelemetry`.  ``None`` (default)
    costs one no-op call per instrumentation site.

    ``cancel`` opts the run into cooperative cancellation: when the
    token is set, no further tasks start, every in-flight task drains
    and checkpoints, the manifest is written, and :class:`RunCancelled`
    is raised — the run is always resumable from exactly where it
    stopped.
    """
    policy = retry or RetryPolicy()
    if workers is None:
        workers = max(1, (multiprocessing.cpu_count() or 2) - 1)
    if workers < 1:
        raise ValueError("workers must be positive")
    if shards < 1:
        raise ValueError("shards must be positive")
    planner = _cached_study(config)
    plan = planner.planned_days()
    days = sorted(plan)
    digest = config_hash(config)
    specs = plan_shards(len(planner.world.population), shards)
    store = (
        CheckpointStore(checkpoint_root, digest)  # type: ignore[arg-type]
        if checkpoint_root is not None
        else None
    )
    run_clock: Clock = (
        telemetry.clock if telemetry is not None else MonotonicClock()
    )
    clock_spec = (
        "virtual"
        if telemetry is not None and isinstance(telemetry.clock, VirtualClock)
        else "monotonic"
    )

    def scope():
        return (
            telemetry_runtime.activate(telemetry)
            if telemetry is not None
            else nullcontext()
        )

    started = run_clock.now()
    partial_store = _PartialStore(shard_spill_dir, spill_watermark_bytes)
    dispatch = _Dispatch(policy, store, progress, partials=partial_store)
    execution = "none"
    method = resolve_start_method(start_method)

    with scope():
        with telemetry_runtime.span("run", config_hash=digest):
            if store is not None and resume:
                with telemetry_runtime.span("resume"):
                    for day in days:
                        for spec in specs:
                            if not store.has(day, shard=spec.key):
                                continue
                            try:
                                partial = store.load(day, shard=spec.key)
                                _check_layout(day, partial, spec)
                            except CheckpointError:
                                continue  # unreadable or foreign: recompute
                            dispatch.hit_checkpoint(day, partial, spec)

            remaining: List[DayTask] = []
            index = 0
            for day in days:
                roles = tuple(sorted(plan[day]))
                for spec in specs:
                    if (day, spec.index) not in dispatch.partials:
                        remaining.append(
                            DayTask(
                                index,
                                day,
                                roles,
                                0,
                                config,
                                spec,
                                fault_plan,
                                telemetry_enabled=telemetry is not None,
                                clock_spec=clock_spec,
                            )
                        )
                    index += 1
            if remaining and not (cancel is not None and cancel.is_set()):
                worker_count = min(workers, len(remaining))
                execution = "serial" if worker_count == 1 else "pool"
                with telemetry_runtime.span("dispatch", mode=execution):
                    _run_tasks(
                        dispatch,
                        remaining,
                        worker_count,
                        start_method,
                        pool_observer,
                        cancel,
                    )

    report = RunReport(
        config_hash=digest,
        seed=config.world.seed,
        start_method=method,
        workers=workers,
        records=dispatch.sorted_records(),
        crashes=dispatch.crashes,
        wall_time=run_clock.now() - started,
        execution=execution,
        shards=shards,
        spills=partial_store.spills,
    )
    _write_manifest(store, report)
    if cancel is not None and cancel.is_set():
        # Cancellation outranks any concurrent failure: neither state is
        # final — the resume retries failed *and* never-started tasks.
        raise RunCancelled(seed=config.world.seed, report=report)
    if dispatch.failures:
        raise ChunkError(dispatch.failures, seed=config.world.seed, report=report)
    merged = planner.empty_data()
    with scope():
        with telemetry_runtime.span("merge", days=len(days), shards=shards):
            try:
                for day in days:
                    merged.merge(_day_data(planner, dispatch, day, specs))
            except CheckpointError:
                # A spilled partial did not read back: its row now says
                # failed (see _Dispatch.restore), which the manifest on
                # disk has to say too before the error names it.
                report.records = dispatch.sorted_records()
                _write_manifest(store, report)
                raise ChunkError(
                    dispatch.failures, seed=config.world.seed, report=report
                ) from None
    run_telemetry = (
        _assemble_run_telemetry(telemetry, dispatch, digest, config.world.seed)
        if telemetry is not None
        else None
    )
    return RunResult(data=merged, report=report, telemetry=run_telemetry)


"""Job queue + scheduler: bounded study execution over the run registry.

The scheduler owns a bounded set of concurrent ``execute_study`` runs —
the service's equivalent of Iris's worker tier.  Design:

* runs wait in an in-memory FIFO of run ids (the *durable* queue is the
  registry: after a restart, :meth:`JobQueue.adopt` re-enqueues whatever
  the registry reports incomplete, so losing the process loses nothing);
* at most ``max_active`` runs execute at once, each on the queue's
  thread pool (``execute_study`` is blocking; its own worker processes
  parallelize the study itself), each under a per-run
  :class:`~repro.core.parallel.CancelToken`;
* every execution uses ``resume=True`` against the run's private
  checkpoint directory, which collapses "fresh run", "resumed after
  cancel/failure", and "adopted after server death" into one code path;
* lifecycle transitions happen only on the event-loop thread — worker
  threads compute and return, the coroutine around them persists state —
  so the registry needs no locking;
* when a run reaches ``done`` the worker thread writes ``results.json``
  and ``figures/*.txt`` (digest, summary, rendered reports) next to the
  checkpoints, which is what the results endpoints serve.

Queue-depth and active-run gauges plus run-outcome counters land in the
service's :class:`~repro.telemetry.metrics.MetricRegistry` (exported by
``GET /v1/metricsz``).
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Set

from repro.core import fsio
from repro.core.parallel import (
    CancelToken,
    ChunkError,
    RetryPolicy,
    RunCancelled,
    execute_study,
)
from repro.core.pool import PoolError
from repro.service import configs, registry as reg
from repro.service.errors import ConflictError, QueueError, ServiceError
from repro.service.registry import RunRecord, RunRegistry
from repro.service.results import render_figures, results_payload
from repro.telemetry.clock import MonotonicClock
from repro.telemetry.metrics import MetricRegistry


class JobQueue:
    """Bounded scheduler for study runs; all public methods are
    event-loop-thread only (the HTTP handlers run there too)."""

    def __init__(
        self,
        registry: RunRegistry,
        *,
        max_active: int = 2,
        run_workers: int = 1,
        run_retries: int = 2,
        run_shards: int = 1,
        metrics: Optional[MetricRegistry] = None,
        execute_fn: Callable = execute_study,
    ) -> None:
        if max_active < 1:
            raise ValueError("max_active must be positive")
        if run_workers < 1:
            raise ValueError("run_workers must be positive")
        if run_retries < 0:
            raise ValueError("run_retries must be >= 0")
        if run_shards < 1:
            raise ValueError("run_shards must be positive")
        self.registry = registry
        self.max_active = max_active
        self.run_workers = run_workers
        self.run_retries = run_retries
        self.run_shards = run_shards
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self._execute_fn = execute_fn
        # The asyncio primitives are built in start(), not here: on
        # Python 3.9 Queue/Semaphore bind the *current* event loop at
        # construction, and __init__ runs before any loop exists.
        # Until start(), submissions buffer in a plain list.
        self._ready: Optional["asyncio.Queue[str]"] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._pending: List[str] = []
        self._tokens: Dict[str, CancelToken] = {}
        self._tasks: Set[asyncio.Task] = set()
        self._scheduler: Optional[asyncio.Task] = None
        self._executor = ThreadPoolExecutor(
            max_workers=max_active, thread_name_prefix="repro-run"
        )
        self._clock = MonotonicClock()  # run-wall histogram only
        self._closed = False
        self._draining = False

    # -- introspection -------------------------------------------------

    @property
    def active_runs(self) -> int:
        return len(self._tokens)

    @property
    def queue_depth(self) -> int:
        depth = len(self._pending)
        if self._ready is not None:
            depth += self._ready.qsize()
        return depth

    def _enqueue(self, run_id: str) -> None:
        if self._ready is None:
            self._pending.append(run_id)
        else:
            self._ready.put_nowait(run_id)

    def _update_gauges(self) -> None:
        self.metrics.gauge("service_active_runs").set(self.active_runs)
        self.metrics.gauge("service_queue_depth").set(self.queue_depth)

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Adopt incomplete runs from the registry and begin scheduling."""
        ready: "asyncio.Queue[str]" = asyncio.Queue()
        self._ready = ready
        self._slots = asyncio.Semaphore(self.max_active)
        adopted = set()
        for record in self.registry.adopt_incomplete():
            self.metrics.counter("service_runs_adopted").inc()
            ready.put_nowait(record.run_id)
            adopted.add(record.run_id)
        # Pre-start submissions are persisted as queued, so adoption
        # usually already picked them up; enqueue only the remainder.
        for run_id in self._pending:
            if run_id not in adopted:
                ready.put_nowait(run_id)
        self._pending.clear()
        self._scheduler = asyncio.get_running_loop().create_task(
            self._schedule_forever()
        )
        self._update_gauges()

    def begin_drain(self) -> None:
        """Switch shutdown semantics from *cancel* to *requeue*.

        Called before :meth:`close` on a graceful SIGTERM: in-flight
        runs still stop at the next checkpoint boundary (their cancel
        tokens are set by ``close``), but instead of settling as
        ``cancelled`` they persist back to ``queued`` — the durable
        state restart adoption looks for — unless a client had already
        requested the cancel.
        """
        self._draining = True

    async def close(self) -> None:
        """Stop scheduling, cancel in-flight runs, and drain them.

        In-flight runs get their cancel tokens set and are awaited — the
        cooperative cancel checkpoints everything in flight, so a closed
        queue leaves only resumable state behind.
        """
        self._closed = True
        if self._scheduler is not None:
            self._scheduler.cancel()
            try:
                await self._scheduler
            except asyncio.CancelledError:
                pass  # expected: that is what .cancel() requests
            self._scheduler = None
        for token in self._tokens.values():
            token.set()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._executor.shutdown(wait=True)

    # -- submission and control ----------------------------------------

    def submit(self, payload: object) -> RunRecord:
        """Create (or idempotently return) a run for a config payload.

        A new config becomes a ``created`` run, moves straight to
        ``queued``, and is handed to the scheduler.  Resubmitting a
        known config returns its existing record untouched, whatever
        state it is in — clients re-POST safely.
        """
        if self._closed:
            raise QueueError("the job queue is closed")
        config, normalized = configs.build_config(payload)
        run_id = configs.run_id_for(config)
        if run_id in self.registry:
            record = self.registry.get(run_id)
            if record.state != reg.CREATED:
                self.metrics.counter("service_runs_resubmitted").inc()
                return record
            # A record stranded in ``created`` (older registry versions
            # persisted create and queue separately and could crash in
            # between): promote and enqueue instead of wedging forever.
            record = self.registry.transition(run_id, reg.QUEUED)
        else:
            # One atomic persist straight into ``queued`` — no window
            # where a crash leaves a record the scheduler never adopts.
            record = self.registry.create(run_id, normalized, state=reg.QUEUED)
        self.metrics.counter("service_runs_submitted").inc()
        self._enqueue(run_id)
        self._update_gauges()
        return record

    def cancel(self, run_id: str) -> RunRecord:
        """Cancel a queued run immediately or a running run cooperatively."""
        record = self.registry.get(run_id)
        if record.state == reg.QUEUED:
            record = self.registry.transition(run_id, reg.CANCELLED)
            self.metrics.counter("service_runs_cancelled").inc()
            self._update_gauges()
            return record
        if record.state == reg.RUNNING:
            token = self._tokens.get(run_id)
            if token is not None:
                token.set()
            return self.registry.request_cancel(run_id)
        raise ConflictError(
            f"run {run_id} is {record.state}; only queued or running "
            "runs can be cancelled"
        )

    def resume(self, run_id: str) -> RunRecord:
        """Re-queue a cancelled or failed run (checkpoints make it cheap)."""
        if self._closed:
            raise QueueError("the job queue is closed")
        record = self.registry.get(run_id)
        if record.state not in reg.RESUMABLE:
            raise ConflictError(
                f"run {run_id} is {record.state}; only "
                f"{' or '.join(reg.RESUMABLE)} runs can be resumed"
            )
        record = self.registry.transition(run_id, reg.QUEUED)
        self.metrics.counter("service_runs_resumed").inc()
        self._enqueue(run_id)
        self._update_gauges()
        return record

    # -- scheduling ----------------------------------------------------

    async def _schedule_forever(self) -> None:
        ready, slots = self._ready, self._slots
        if ready is None or slots is None:
            raise QueueError("scheduler launched before start()")
        while True:
            run_id = await ready.get()
            await slots.acquire()
            record = self.registry.get(run_id)
            if record.state != reg.QUEUED:
                # Cancelled (or otherwise settled) while waiting: skip.
                slots.release()
                self._update_gauges()
                continue
            task = asyncio.get_running_loop().create_task(
                self._run_one(run_id)
            )
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _run_one(self, run_id: str) -> None:
        token = CancelToken()
        self._tokens[run_id] = token
        record = self.registry.transition(run_id, reg.RUNNING)
        self._update_gauges()
        loop = asyncio.get_running_loop()
        wall = self.metrics.histogram(
            "service_run_wall_seconds",
            buckets=(0.1, 0.5, 1.0, 5.0, 30.0, 120.0, 600.0),
        )
        started = self._clock.now()
        try:
            await loop.run_in_executor(
                self._executor, self._execute_blocking, record, token
            )
        except RunCancelled:
            if self._draining and not self.registry.get(run_id).cancel_requested:
                # Drain (SIGTERM) stopped this run, not a client: the
                # completed prefix is checkpointed, so persist it as
                # ``queued`` and the next server start re-adopts it.
                self.registry.transition(run_id, reg.QUEUED)
                self.metrics.counter("service_runs_requeued").inc()
            else:
                self.registry.transition(run_id, reg.CANCELLED)
                self.metrics.counter("service_runs_cancelled").inc()
        except OSError as exc:
            # Disk pressure (ENOSPC, quota, injected chaos) during the
            # study or while persisting results: the run fails typed and
            # resumable, and — critically — the finally block below still
            # releases the slot, so one full disk cannot wedge the
            # scheduler's semaphore.
            self.registry.transition(run_id, reg.FAILED, error=f"io: {exc}")
            self.metrics.counter("service_runs_failed", kind="io").inc()
        except (ChunkError, PoolError, ServiceError, ValueError) as exc:
            self.registry.transition(run_id, reg.FAILED, error=str(exc))
            self.metrics.counter("service_runs_failed").inc()
        except Exception as exc:  # route, never swallow: typed state + metric
            self.registry.transition(
                run_id, reg.FAILED, error=f"internal: {exc!r}"
            )
            self.metrics.counter("service_runs_failed", kind="internal").inc()
        else:
            self.registry.transition(run_id, reg.DONE)
            self.metrics.counter("service_runs_completed").inc()
        finally:
            wall.observe(self._clock.now() - started)
            self._tokens.pop(run_id, None)
            if self._slots is not None:  # always set once scheduling began
                self._slots.release()
            self._update_gauges()

    # -- the blocking part (worker thread) -----------------------------

    def _execute_blocking(self, record: RunRecord, token: CancelToken) -> None:
        """Runs on the thread pool: execute, then persist results."""
        config, _ = configs.build_config(record.config)
        result = self._execute_fn(
            config,
            workers=self.run_workers,
            checkpoint_root=self.registry.checkpoint_root(record.run_id),
            resume=True,
            retry=RetryPolicy(retries=self.run_retries),
            shards=self.run_shards,
            cancel=token,
        )
        self._write_results(record.run_id, result.data)

    def _write_results(self, run_id: str, data) -> None:
        """Persist ``results.json`` and the figure reports atomically."""
        rendered, unrendered = render_figures(data)
        payload = results_payload(data, rendered, unrendered)
        figures_dir = self.registry.figures_dir(run_id)
        figures_dir.mkdir(parents=True, exist_ok=True)
        for name, lines in rendered.items():
            fsio.write_and_replace(
                figures_dir / f"{name}.txt",
                ("\n".join(lines) + "\n").encode("utf-8"),
                surface=fsio.SURFACE_RESULTS,
            )
        fsio.write_and_replace(
            self.registry.results_path(run_id),
            json.dumps(payload, indent=2, sort_keys=True).encode("utf-8"),
            surface=fsio.SURFACE_RESULTS,
        )

"""The typed-error and resource-safety fixes the interprocedural rules
demanded: the pool's error family (RPR009), exception-edge pipe cleanup
in ``_spawn_worker`` and ``stop`` (RPR010), and the decode-error
family of the record parsers."""

import pytest

from repro.core.pool import (
    PoolError,
    PoolStoppedError,
    SupervisedPool,
    WorkerEnvironmentError,
)
from repro.dataflow.integrity import RecordDecodeError


class TornFieldError(RecordDecodeError):
    """A parser's own decode error, as a format module declares one."""


class TestErrorFamilies:
    def test_pool_family(self):
        assert issubclass(PoolStoppedError, PoolError)
        assert issubclass(WorkerEnvironmentError, PoolError)
        assert issubclass(PoolError, RuntimeError)
        # Callers that caught RuntimeError before the family existed
        # still catch everything.
        with pytest.raises(RuntimeError):
            raise PoolStoppedError("pool is stopped")

    def test_decoder_families(self):
        assert issubclass(RecordDecodeError, ValueError)

    def test_with_context_preserves_subclass(self):
        enriched = TornFieldError("truncated field").with_context(
            source="day01.log", line_number=7
        )
        assert type(enriched) is TornFieldError
        assert enriched.source == "day01.log"
        assert "truncated field" in str(enriched)


# ----------------------------------------------------------------------
# fakes: exercise the exception edges without real processes


class FakeConn:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


class FakeProcess:
    def __init__(self, fail_start=False):
        self.fail_start = fail_start
        self.started = False
        self.terminated = False
        self.pid = 4242

    def start(self):
        if self.fail_start:
            raise OSError("fork refused")
        self.started = True

    def is_alive(self):
        return self.started and not self.terminated

    def join(self, timeout=None):
        pass

    def terminate(self):
        self.terminated = True


class FakeQueue:
    def __init__(self):
        self.items = []
        self.closed = False
        self.cancelled = False

    def put(self, item):
        self.items.append(item)

    def close(self):
        self.closed = True

    def cancel_join_thread(self):
        self.cancelled = True


class FakeCtx:
    """A multiprocessing context double with scriptable failures."""

    def __init__(self, fail_start=False):
        self.fail_start = fail_start
        self.pipes = []

    def Pipe(self, duplex=False):
        pair = (FakeConn(), FakeConn())
        self.pipes.append(pair)
        return pair

    def Process(self, target=None, args=(), daemon=False):
        return FakeProcess(fail_start=self.fail_start)


def bare_pool(ctx):
    """A SupervisedPool shell wired to fakes, bypassing __init__."""
    pool = SupervisedPool.__new__(SupervisedPool)
    pool._ctx = ctx
    pool._runner = lambda task: task
    pool._tasks = FakeQueue()
    pool._workers = {}
    pool._running = {}
    pool._started = set()
    pool._stopped = False
    return pool


class TestSpawnWorkerExceptionEdge:
    def test_start_failure_closes_both_pipe_ends(self):
        ctx = FakeCtx(fail_start=True)
        pool = bare_pool(ctx)
        with pytest.raises(OSError, match="fork refused"):
            pool._spawn_worker()
        (parent_conn, child_conn) = ctx.pipes[0]
        assert parent_conn.closed and child_conn.closed
        assert pool._workers == {}  # the dead pipe is not registered

    def test_success_closes_only_the_child_end(self):
        ctx = FakeCtx()
        pool = bare_pool(ctx)
        pool._spawn_worker()
        (parent_conn, child_conn) = ctx.pipes[0]
        assert child_conn.closed  # parent's copy of the child end
        assert not parent_conn.closed
        assert parent_conn in pool._workers


class TestStopErrorPath:
    def test_terminate_failure_still_releases_everything(self):
        ctx = FakeCtx()
        pool = bare_pool(ctx)
        pool._spawn_worker()
        (parent_conn, _) = ctx.pipes[0]
        process = pool._workers[parent_conn]
        process.terminate = lambda: (_ for _ in ()).throw(
            KeyboardInterrupt()
        )
        with pytest.raises(KeyboardInterrupt):
            pool.stop(graceful=False)
        # The finally block ran: pipe closed, maps cleared, queue
        # buffers released — nothing can block interpreter exit.
        assert parent_conn.closed
        assert pool._workers == {}
        assert pool._tasks.closed
        assert pool._tasks.cancelled

    def test_stop_is_idempotent_after_failure(self):
        ctx = FakeCtx()
        pool = bare_pool(ctx)
        pool._spawn_worker()
        process = next(iter(pool._workers.values()))
        process.terminate = lambda: (_ for _ in ()).throw(OSError())
        with pytest.raises(OSError):
            pool.stop(graceful=False)
        pool.stop(graceful=False)  # already stopped: a no-op, no raise

    def test_submit_after_stop_raises_typed_error(self):
        pool = bare_pool(FakeCtx())
        pool._stopped = True
        with pytest.raises(PoolStoppedError):
            pool.submit(object())


def _echo(task):
    return task


class TestRealPool:
    def test_submit_after_real_stop(self):
        pool = SupervisedPool(workers=1, runner=_echo)
        pool.stop()
        with pytest.raises(PoolStoppedError):
            pool.submit(0)

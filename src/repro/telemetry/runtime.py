"""The active telemetry context: how instrumented layers find the sinks.

Hot layers (flow expansion, stage-1 analytics, the lake's scan, the
checkpoint store) cannot thread a registry argument through every call —
that would churn a dozen public signatures for a subsystem that is off
by default.  Instead one process-local *active* :class:`Telemetry` is
installed with :func:`activate`; the module-level helpers (:func:`count`,
:func:`observe`, :func:`span`, :func:`event`) route to it and collapse to
no-ops when nothing is active.

Per-process by design: each pool worker activates a fresh bundle around
each day task and ships the resulting snapshot back on the result pipe,
so nothing telemetric ever crosses a process boundary live — only
immutable snapshots do (which is why the fork-safety lint accepts the
``_ACTIVE`` slot below).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.telemetry.clock import Clock, MonotonicClock, clock_for
from repro.telemetry.metrics import (
    MetricRegistry,
    MetricsSnapshot,
    NoopRegistry,
    Number,
)
from repro.telemetry.spans import NoopSpanRecorder, SpanRecorder


@dataclass(frozen=True)
class TelemetrySnapshot:
    """The picklable result of one collection scope (e.g. one day task)."""

    metrics: MetricsSnapshot
    spans: tuple  # Tuple[SpanRecord, ...]

    def is_empty(self) -> bool:
        return self.metrics.is_empty() and not self.spans


class Telemetry:
    """One clock + one registry + one span recorder, enabled or inert."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self.registry: MetricRegistry = MetricRegistry()
        self.spans: SpanRecorder = SpanRecorder(self.clock)

    @property
    def enabled(self) -> bool:
        return True

    @classmethod
    def for_spec(cls, clock_spec: str) -> "Telemetry":
        return cls(clock_for(clock_spec))

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot(
            metrics=self.registry.snapshot(),
            spans=tuple(self.spans.records()),
        )


class _NullTelemetry(Telemetry):
    """Disabled telemetry: shared no-op instruments, no clock reads."""

    def __init__(self) -> None:
        self.clock = None  # type: ignore[assignment]
        self.registry = NoopRegistry()
        self.spans = NoopSpanRecorder()

    @property
    def enabled(self) -> bool:
        return False

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot(metrics=MetricsSnapshot(), spans=())


#: The shared inert bundle — also the safe default.
NULL = _NullTelemetry()

_ACTIVE = NULL


def get() -> Telemetry:
    """The process's active telemetry (the inert NULL when none is)."""
    return _ACTIVE


@contextmanager
def activate(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Install ``telemetry`` as the process-local sink for the block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = telemetry
    try:
        yield telemetry
    finally:
        _ACTIVE = previous


# -- instrumentation helpers (one call per site on the hot path) ----------


def count(name: str, amount: Number = 1, **labels: object) -> None:
    _ACTIVE.registry.counter(name, **labels).inc(amount)


def observe(
    name: str,
    value: Number,
    buckets: Optional[Sequence[float]] = None,
    **labels: object,
) -> None:
    _ACTIVE.registry.histogram(name, buckets=buckets, **labels).observe(value)


def span(name: str, **attrs: object):
    """Context manager for a span on the active recorder."""
    return _ACTIVE.spans.span(name, **attrs)


def event(name: str, **attrs: object) -> None:
    _ACTIVE.spans.event(name, **attrs)

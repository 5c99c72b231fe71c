"""Harness-side spans: who called which layer, for how long.

The traced run wraps each call *into* a layer's public function in a
span ``{id, name, start, end, parent, workload, rep, on_path}``; the
program itself is not instrumented.  Spans stay in memory and are
written once, when the benchmark ends.

``name`` is ``<layer>.<call>`` (``synthesis.generate_day``); the layer
is the part before the first dot.  ``on_path`` separates the calls that
replay the real execution path (their self times must add up to the
untraced wall time — ``trace.coverage_frac``) from attribution calls
that repeat a piece of that work on its own to time it (``generate_day``
alone, so that stage-1 is ``day_partial`` minus it).

A span's *self time* is its duration minus the part covered by its
direct children.  Each thread nests independently (the service workload
traces two client threads).
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List

#: Layer prefix of the harness's own bracket spans; never counted as a
#: program layer.
HARNESS_LAYER = "bench"


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rep = 0
        self.spans: List[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, on_path: bool = True, **attrs: object) -> Iterator[dict]:
        stack = self._stack()
        record = {
            "name": name,
            "parent": stack[-1] if stack else None,
            "workload": self.workload,
            "rep": self.rep,
            "on_path": on_path,
        }
        record.update(attrs)
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    # -- queries -----------------------------------------------------------

    def named(self, name: str) -> List[dict]:
        return [span for span in self.spans if span["name"] == name]

    def durations(self, name: str) -> List[float]:
        return [span["end"] - span["start"] for span in self.named(name)]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def median_ms(self, name: str) -> float:
        """Median duration of one call in milliseconds (0 when never called).

        The median, not the mean: the host stalls single calls for tens
        of milliseconds, and one stalled call would own a mean.
        """
        durations = self.durations(name)
        return 1000.0 * statistics.median(durations) if durations else 0.0

    def median_rate(self, name: str, attr: str) -> float:
        """Median over the spans called ``name`` of ``attr`` ÷ duration."""
        rates = [
            span[attr] / (span["end"] - span["start"])
            for span in self.named(name)
            if span["end"] > span["start"]
        ]
        return statistics.median(rates) if rates else 0.0

    def self_times(self) -> Dict[int, float]:
        covered: Dict[int, float] = {}
        for span in self.spans:
            parent = span["parent"]
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (
                    span["end"] - span["start"]
                )
        return {
            span["id"]: (span["end"] - span["start"]) - covered.get(span["id"], 0.0)
            for span in self.spans
        }

    def on_path_self_time(self) -> float:
        """Σ self time of the on-path program-layer spans."""
        selfs = self.self_times()
        return sum(
            selfs[span["id"]]
            for span in self.spans
            if span["on_path"] and not span["name"].startswith(HARNESS_LAYER + ".")
        )

    def layer_self_times(self) -> Dict[str, float]:
        """Layer → Σ self time, on-path and attribution spans alike."""
        selfs = self.self_times()
        layers: Dict[str, float] = {}
        for span in self.spans:
            layer = span["name"].split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + selfs[span["id"]]
        return dict(sorted(layers.items()))

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True, default=str) + "\n")
        return path

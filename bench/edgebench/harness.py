"""One benchmark run of one workload: set up, measure, verify, report.

The shape of a run (``run_workload``):

1. **Set-up** — the workload builds its inputs from the seed
   ``SETUP_REPS`` times; ``setup_s`` is the import time of the program
   plus the median of those builds.
2. **Reference** — the expected outputs are computed once, untimed.
3. **Warm-up** — one discarded (but verified) repetition, unless
   computing the reference already ran the measured code.
4. **Measure** — with ``trace=False`` closed-loop repetitions run until
   ``seconds`` have passed; each is bracketed by wall and CPU clocks
   (``gc.collect()`` first) and verified *outside* the timed region.
   With ``trace=True`` one untraced repetition gives the workload's
   user-facing phase numbers, then the layer-by-layer replay runs under
   a :class:`~edgebench.spans.Tracer`.
5. **Report** — medians over the repetitions, the failed/attempted
   operation counts, and ``correct``.

The program under test receives only generated inputs; the seed never
reaches it except as the world seed of a study config.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from edgebench import catalog, host
from edgebench.spans import Tracer

#: Builds of the inputs per run; ``setup_s`` reports their median.
SETUP_REPS = 3

SCALES = ("full", "smoke")

#: Where runs keep their scratch files and traces (``bench/out``, which
#: ``bench/.gitignore`` names): the benchmark writes only inside its
#: checkout.
OUT_DIR = Path(__file__).resolve().parent.parent / "out"

Check = Tuple[str, bool, str]  # (operation, ok, detail)


@dataclass
class Rep:
    """What one repetition hands back to the harness."""

    #: Units of work done (rows, packets): ``work_per_s`` = work ÷ wall.
    work: float
    #: Whatever ``verify`` needs to judge the repetition.
    outputs: Any
    #: Workload-specific timings and counts measured inside the
    #: repetition (``resume_wall_s``, ``persisted_bytes`` ...).
    phases: Dict[str, float] = field(default_factory=dict)


class Workload:
    """One named set of inputs and the calls it drives."""

    name = ""
    #: True when computing the reference already runs the measured code
    #: once, so no separate warm-up repetition is spent.
    reference_warms = False

    def __init__(self, scale: str = "full") -> None:
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")
        self.scale = scale

    def setup(self, seed: int, scratch: Path) -> Any:
        """Build the inputs from the seed; returns the run context."""
        raise NotImplementedError

    def teardown(self, ctx: Any) -> None:
        """Release what ``setup`` started (servers, files)."""

    def prepare_reference(self, ctx: Any) -> None:
        """Compute the expected outputs (untimed, once per run)."""

    def rep(self, ctx: Any, index: int) -> Rep:
        """One closed-loop repetition through the real entry points."""
        raise NotImplementedError

    def verify(self, ctx: Any, rep: Rep) -> List[Check]:
        """Judge one repetition's outputs against the reference."""
        raise NotImplementedError

    def final_checks(self, ctx: Any) -> List[Check]:
        """Checks made once, after the last repetition."""
        return []

    def phase_metrics(self, rep: Rep) -> Dict[str, float]:
        """User-facing per-layer metrics of the untraced repetition."""
        return {}

    def trace(
        self, ctx: Any, tracer: Tracer, untraced: Rep
    ) -> Tuple[Dict[str, float], List[Check]]:
        """Layer-by-layer replay under ``tracer``: (metrics, checks)."""
        raise NotImplementedError

    def trace_extras(self, ctx: Any, untraced: Rep) -> Tuple[Dict[str, float], List[Check]]:
        """One-off layer measurements that need no spans (pool, fsio)."""
        return {}, []


# ----------------------------------------------------------------------
# Measurement


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    work: float


class Ledger:
    """Attempted / failed operations and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def add(self, checks: List[Check]) -> None:
        for operation, ok, detail in checks:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(f"{operation}: {detail}")

    def raised(self, operation: str) -> None:
        self.add([(operation, False, traceback.format_exc(limit=4).strip())])


def measure_rep(
    workload: Workload, ctx: Any, index: int, ledger: Ledger
) -> Tuple[Sample, Optional[Rep]]:
    """Time one repetition, then verify it.

    A repetition that raises is a failed operation: its sample holds the
    time until the exception and no work, and the ``Rep`` is ``None``.
    """
    gc.collect()
    cpu_before = cpu_seconds()
    started = time.perf_counter()
    try:
        rep: Optional[Rep] = workload.rep(ctx, index)
    except Exception:
        rep = None
        ledger.raised(f"{workload.name} rep {index}")
    wall = time.perf_counter() - started
    cpu = cpu_seconds() - cpu_before
    if rep is None:
        return Sample(wall, cpu, 0.0), None
    try:
        ledger.add(workload.verify(ctx, rep))
    except Exception:
        ledger.raised(f"{workload.name} verify {index}")
    return Sample(wall, cpu, rep.work), rep


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    import_s: float = 0.0,
    out_dir: Optional[Path] = None,
) -> dict:
    """Run one workload once; returns the driver-contract result dict.

    Extra keys (repetition count, each repetition's wall time, per-layer
    self times of a traced run, failure texts) ride along under
    ``"detail"`` for the command line and the tests; the last line the
    command prints holds only the four contract keys.
    """
    out_dir = Path(out_dir) if out_dir is not None else OUT_DIR
    scratch = out_dir / f"scratch-{workload.name}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    ledger = Ledger()
    # Before set-up: the burners must not compete with a workload's server.
    efficiency = host.parallel_efficiency() if trace else 0.0
    ctx = None
    try:
        setup_times: List[float] = []
        for attempt in range(SETUP_REPS):
            if ctx is not None:
                workload.teardown(ctx)
            gc.collect()
            started = time.perf_counter()
            ctx = workload.setup(seed, scratch / f"setup{attempt}")
            setup_times.append(time.perf_counter() - started)
        setup_s = import_s + statistics.median(setup_times)
        workload.prepare_reference(ctx)
        if not workload.reference_warms:
            measure_rep(workload, ctx, 0, ledger)  # warm-up, discarded
        layers: Dict[str, float] = {}
        if trace:
            values, samples, layers = _traced_run(workload, ctx, seconds, ledger, out_dir)
            values["host.parallel_efficiency"] = efficiency
            declared = catalog.PER_LAYER_UNITS
        else:
            values, samples = _timed_run(workload, ctx, seconds, ledger)
            values["setup_s"] = setup_s
            declared = catalog.END_TO_END_UNITS
    finally:
        if ctx is not None:
            workload.teardown(ctx)
        shutil.rmtree(scratch, ignore_errors=True)
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise KeyError(f"undeclared metrics: {unknown}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in declared.items()
        },
        "detail": {
            "reps": len(samples),
            "wall_samples": [s.wall_s for s in samples],
            # Traced runs: seconds of self time per layer and replay pass.
            "layer_self_s": layers,
            "failures": ledger.failures,
        },
    }


def _timed_run(
    workload: Workload, ctx: Any, seconds: float, ledger: Ledger
) -> Tuple[Dict[str, float], List[Sample]]:
    """The ``--trace 0`` body: repetitions until the budget is used."""
    samples: List[Sample] = []
    begun = time.perf_counter()
    while True:
        sample, _ = measure_rep(workload, ctx, len(samples) + 1, ledger)
        samples.append(sample)
        # Stop at the first failure, or when one more repetition would
        # overrun the budget.
        typical = statistics.median(s.wall_s for s in samples)
        if ledger.failed or time.perf_counter() - begun + typical > seconds:
            break
    ledger.add(workload.final_checks(ctx))
    values = {
        "wall_s": statistics.median(s.wall_s for s in samples),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": peak_rss_mb(),
        "work_per_s": statistics.median(s.work / s.wall_s for s in samples),
    }
    return values, samples


def _traced_run(
    workload: Workload, ctx: Any, seconds: float, ledger: Ledger, out_dir: Path
) -> Tuple[Dict[str, float], List[Sample], Dict[str, float]]:
    """The ``--trace 1`` body: untraced repetition, then the replay.

    Returns (per-layer values, the untraced sample, layer → self time
    per replay pass).
    """
    sample, untraced = measure_rep(workload, ctx, 1, ledger)
    if untraced is None:
        raise RuntimeError(
            "the untraced repetition raised:\n" + "\n".join(ledger.failures)
        )
    values: Dict[str, float] = dict.fromkeys(catalog.PER_LAYER_UNITS, 0.0)
    values.update(workload.phase_metrics(untraced))

    tracer = Tracer(workload.name)
    replay_walls: List[float] = []
    begun = time.perf_counter()
    while True:
        gc.collect()
        started = time.perf_counter()
        layer_values, checks = workload.trace(ctx, tracer, untraced)
        replay_walls.append(time.perf_counter() - started)
        ledger.add(checks)
        tracer.rep += 1
        # One pass of a heavy workload already fills the budget; the
        # light ones repeat so their layer medians rest on more spans.
        if time.perf_counter() - begun + statistics.median(replay_walls) > seconds / 2:
            break
    values.update(layer_values)
    extra_values, extra_checks = workload.trace_extras(ctx, untraced)
    values.update(extra_values)
    ledger.add(extra_checks)
    ledger.add(workload.final_checks(ctx))

    passes = tracer.rep
    values["trace.coverage_frac"] = tracer.on_path_self_time() / passes / sample.wall_s
    values["trace.overhead_frac"] = statistics.median(replay_walls) / sample.wall_s - 1.0
    values["failed_frac"] = ledger.failed / max(1, ledger.attempted)
    tracer.write(out_dir / f"trace-{workload.name}.jsonl")
    layers = {layer: total / passes for layer, total in tracer.layer_self_times().items()}
    return values, [sample], layers

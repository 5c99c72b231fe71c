"""The three study workloads: serial, pooled + checkpoints, sharded.

All three call :func:`repro.core.parallel.execute_study` exactly as
``repro run`` does and compare its :class:`StudyData` field by field
with ``LongitudinalStudy(cfg).run()`` — the repository's own acceptance
bar.  They differ in what surrounds the synthesis work:

* ``fiveyear-serial`` — the 54-month small study in one process, then
  all figures;
* ``fiveyear-pooled-ckpt`` — the same study on 2 pool workers writing a
  checkpoint per task, then the all-hits resume;
* ``heavyday-sharded`` — one week of a 6000-subscriber population,
  every day split into 4 subscriber-range shards on 2 workers with
  spill to disk.

The traced replay (``trace``) walks the same path from the harness's
side: per planned day it times the pieces of a day on their own
(``generate_day``, ``generate_hourly``, ``expand_flows_batch``, the flow
consumers — attribution spans), then the day's real unit of work
(``day_partial``, or the four ``day_shard_partial`` tasks) followed by
pack → pickle → checkpoint/spill → unpack → merge, and checks that what
it assembled equals the reference too.
"""

from __future__ import annotations

import dataclasses
import datetime
import gc
import pickle
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from edgebench.harness import Check, Rep, Workload, cpu_seconds
from edgebench.spans import Tracer
from repro.analytics import rtt as rtt_analytics
from repro.analytics.infrastructure import (
    asn_breakdown,
    daily_ip_roles,
    daily_server_census,
    domain_shares,
    service_ip_set,
)
from repro.core import fsio
from repro.core.config import StudyConfig, config_hash, small_study
from repro.core.parallel import ColumnarPartial, RunResult, execute_study
from repro.core.pool import EVENT_DONE, SupervisedPool
from repro.core.shards import load_spilled, plan_shards, spill_partial
from repro.core.study import (
    INFRA_SERVICES,
    RTT_SERVICES,
    LongitudinalStudy,
    StudyData,
    merge_day_shards,
)
from repro.dataflow.datalake import CheckpointStore
from repro.service.results import render_figures, study_digest, study_summary
from repro.synthesis.world import WorldConfig
from repro.telemetry import MonotonicClock, Telemetry

D = datetime.date


@dataclass
class StudyContext:
    config: StudyConfig
    study: LongitudinalStudy
    scratch: Path
    reference: Optional[StudyData] = None
    rows: int = 0  # subscriber-day rows of the reference
    flows: int = 0  # flow records expanded on the flow days
    figures: Tuple[str, ...] = ()  # figures the reference renders


class StudyWorkload(Workload):
    """Shared set-up, reference and verification of the study workloads."""

    reference_warms = True
    with_figures = False

    def config(self, seed: int) -> StudyConfig:
        raise NotImplementedError

    def setup(self, seed: int, scratch: Path) -> StudyContext:
        config = self.config(seed)
        study = LongitudinalStudy(config)
        len(study.world.population)
        scratch.mkdir(parents=True, exist_ok=True)
        return StudyContext(config=config, study=study, scratch=scratch)

    def prepare_reference(self, ctx: StudyContext) -> None:
        ctx.reference = ctx.study.run()
        ctx.rows = study_summary(ctx.reference)["subscriber_day_rows"]
        for day in ctx.reference.flow_days:
            ctx.flows += len(
                ctx.study.generator.expand_flows_batch(
                    day, max_flows_per_usage=ctx.config.max_flows_per_usage
                )
            )
        if self.with_figures:
            rendered, _ = render_figures(ctx.reference)
            ctx.figures = tuple(sorted(rendered))

    def check_data(self, ctx: StudyContext, operation: str, data: StudyData) -> Check:
        same = data == ctx.reference
        return (operation, same, "" if same else "StudyData differs from LongitudinalStudy.run()")

    def phase_metrics(self, rep: Rep) -> Dict[str, float]:
        report = rep.outputs["result"].report
        return {
            "subscriber_days_per_s": rep.work / rep.phases["wall_s"],
            "parallel.tasks": report.planned_tasks,
            "parallel.retries": report.retries,
            "parallel.crashes": report.crashes,
            "parallel.checkpoint_hits": report.checkpoint_hits,
            "parallel.spills": report.spills,
            "parallel.worker_busy_frac": report.worker_wall_time()
            / (report.workers * report.wall_time),
        }

    # -- the traced replay ---------------------------------------------------

    def replay(
        self,
        ctx: StudyContext,
        tracer: Tracer,
        *,
        shards: int = 1,
        piped: bool = True,
        checkpoints: bool = False,
        attribute: bool = True,
    ) -> StudyData:
        """Walk the study path day by day under spans; returns the merge.

        ``piped`` pickles each packed partial as the pool's pipe would (a
        serial run packs and unpacks but never pickles); ``attribute``
        adds the off-path spans that time the pieces of a day on their
        own (generation, expansion, flow consumers).
        """
        config = ctx.config
        with tracer.span("synthesis.world_build"):
            study = LongitudinalStudy(config)
            population = len(study.world.population)
        plan = study.planned_days()
        specs = plan_shards(population, shards) if shards > 1 else ()
        store = (
            CheckpointStore(ctx.scratch / f"trace-ckpt-{tracer.rep}", config_hash(config))
            if checkpoints
            else None
        )
        spill_dir = ctx.scratch / f"trace-spill-{tracer.rep}"
        merged: Optional[StudyData] = None
        for day in sorted(plan):
            roles = plan[day]
            kind = "flows" if "flows" in roles else "aggregate"
            with tracer.span("bench.day", on_path=False, day=day.isoformat(), kind=kind):
                if attribute:
                    self._attribute_day(tracer, study, day, roles)
                with tracer.span("study.day_partial", on_path=shards == 1):
                    whole = study.day_partial(day, roles)
            if shards == 1:
                day_data = self._ship(tracer, store, day, whole, piped)
            else:
                parts = []
                for spec in specs:
                    with tracer.span("study.shard_task", day=day.isoformat()):
                        data, extra = study.day_shard_partial(day, roles, spec)
                    with tracer.span("parallel.pack"):
                        partial = ColumnarPartial.pack(data, extra=extra)
                    with tracer.span("parallel.pickle_roundtrip") as span:
                        blob = pickle.dumps(partial, protocol=pickle.HIGHEST_PROTOCOL)
                        partial = pickle.loads(blob)
                        span["bytes"] = len(blob)
                    path = spill_dir / f"{day.isoformat()}.{spec.index}.spill"
                    with tracer.span("shards.spill_write") as span:
                        spill_partial(path, day, spec.index, partial)
                    span["bytes"] = path.stat().st_size
                    with tracer.span("shards.spill_load"):
                        partial = load_spilled(path)
                    with tracer.span("parallel.unpack"):
                        parts.append((partial.unpack(), partial.extra))
                with tracer.span("study.merge_day_shards"):
                    day_data = merge_day_shards(day, parts, study.world.rib)
            with tracer.span("study.merge_calendar"):
                if merged is None:
                    merged = day_data
                else:
                    merged.merge(day_data)
        shutil.rmtree(spill_dir, ignore_errors=True)
        if store is not None:
            shutil.rmtree(store.root, ignore_errors=True)
        return merged if merged is not None else study.empty_data()

    @staticmethod
    def _attribute_day(tracer: Tracer, study: LongitudinalStudy, day: datetime.date, roles) -> None:
        """Time the pieces of one day on their own (off the real path)."""
        generator = study.generator
        with tracer.span("synthesis.generate_day", on_path=False) as span:
            traffic = generator.generate_day(day)
            span["rows"] = len(traffic.usage)
        if not traffic.usage:
            return
        if "hourly" in roles:
            with tracer.span("synthesis.generate_hourly", on_path=False):
                generator.generate_hourly(day, traffic)
        if "flows" in roles:
            with tracer.span("synthesis.expand_flows", on_path=False) as span:
                flows = generator.expand_flows_batch(
                    day, traffic, max_flows_per_usage=study.config.max_flows_per_usage
                )
                span["flows"] = len(flows)
            with tracer.span("analytics.flow_consumers", on_path=False):
                _flow_consumers(study, flows, day, "rtt" in roles)

    @staticmethod
    def _ship(
        tracer: Tracer,
        store: Optional[CheckpointStore],
        day: datetime.date,
        data: StudyData,
        piped: bool,
    ) -> StudyData:
        """What a task's result goes through on its way to the merge."""
        with tracer.span("parallel.pack"):
            partial = ColumnarPartial.pack(data)
        if piped:
            with tracer.span("parallel.pickle_roundtrip") as span:
                blob = pickle.dumps(partial, protocol=pickle.HIGHEST_PROTOCOL)
                partial = pickle.loads(blob)
                span["bytes"] = len(blob)
        if store is not None:
            with tracer.span("checkpoint.save") as span:
                path = store.save(day, partial)
            span["bytes"] = path.stat().st_size
            with tracer.span("checkpoint.load"):
                partial = store.load(day)
        with tracer.span("parallel.unpack"):
            return partial.unpack()

    @staticmethod
    def replay_metrics(tracer: Tracer) -> Dict[str, float]:
        """Layer metrics every study replay yields."""
        passes = max(1, tracer.rep + 1)
        aggregate: List[float] = []
        flow_days: List[float] = []
        children: Dict[int, Dict[str, float]] = {}
        for span in tracer.spans:
            if span["parent"] is not None:
                bucket = children.setdefault(span["parent"], {})
                bucket[span["name"]] = span["end"] - span["start"]
        for span in tracer.named("bench.day"):
            parts = children.get(span["id"], {})
            if "synthesis.generate_day" not in parts:
                continue  # a replay without attribution spans
            stage1 = (
                parts.get("study.day_partial", 0.0)
                - parts.get("synthesis.generate_day", 0.0)
                - parts.get("synthesis.generate_hourly", 0.0)
                - parts.get("synthesis.expand_flows", 0.0)
            )
            (flow_days if span["kind"] == "flows" else aggregate).append(stage1)
        partial_bytes = [s["bytes"] for s in tracer.named("parallel.pickle_roundtrip")]
        return {
            "synthesis.world_build_ms": tracer.median_ms("synthesis.world_build"),
            "synthesis.generate_day_ms": tracer.median_ms("synthesis.generate_day"),
            "synthesis.usage_rows_per_s": tracer.median_rate("synthesis.generate_day", "rows"),
            "synthesis.generate_hourly_ms": tracer.median_ms("synthesis.generate_hourly"),
            "synthesis.expand_flows_ms": tracer.median_ms("synthesis.expand_flows"),
            "synthesis.flows_per_s": tracer.median_rate("synthesis.expand_flows", "flows"),
            "study.stage1_aggregate_ms": _median_ms(aggregate),
            "study.stage1_flows_ms": _median_ms(flow_days),
            "analytics.flow_consumers_ms": tracer.median_ms("analytics.flow_consumers"),
            "study.merge_calendar_ms": 1000.0 * tracer.total("study.merge_calendar") / passes,
            "parallel.pack_ms": tracer.median_ms("parallel.pack"),
            "parallel.unpack_ms": tracer.median_ms("parallel.unpack"),
            "parallel.pickle_roundtrip_ms": tracer.median_ms("parallel.pickle_roundtrip"),
            "parallel.partial_bytes": (
                sum(partial_bytes) / len(partial_bytes) if partial_bytes else 0.0
            ),
        }


def _median_ms(values: List[float]) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def _flow_consumers(study: LongitudinalStudy, flows: Any, day: datetime.date, with_rtt: bool) -> None:
    """The stage-1 flow fan-out over one batch with a shared service view."""
    rules = study.rules
    codes = flows.service_view(rules)
    daily_server_census(flows, rules, list(INFRA_SERVICES), day, codes=codes)
    daily_ip_roles(flows, rules, list(INFRA_SERVICES), day, codes=codes)
    for service in INFRA_SERVICES:
        asn_breakdown(flows, rules, study.world.rib, service, day, codes=codes)
        domain_shares(flows, rules, service, codes=codes)
        service_ip_set(flows, rules, service, codes=codes)
    if with_rtt:
        for service in RTT_SERVICES:
            rtt_analytics.min_rtt_samples(flows, rules, service, codes=codes)


def _digest_check(ctx: StudyContext, data: StudyData) -> Check:
    same = study_digest(data) == study_digest(ctx.reference)
    return ("study_digest", same, "" if same else "canonical digests differ")


def _timed(call: Any, collect: bool = True) -> Tuple[Any, float, float]:
    """(result, wall seconds, CPU seconds incl. reaped children).

    Collects garbage first unless told not to: in a process holding a
    reference StudyData a full collection costs tens of milliseconds and
    would land on whichever call happens to trigger it.
    """
    if collect:
        gc.collect()
    cpu_before = cpu_seconds()
    started = time.perf_counter()
    result = call()
    return result, time.perf_counter() - started, cpu_seconds() - cpu_before


# ----------------------------------------------------------------------
# fiveyear-serial


class FiveyearSerial(StudyWorkload):
    name = "fiveyear-serial"
    with_figures = True

    def config(self, seed: int) -> StudyConfig:
        config = small_study(seed)
        if self.scale == "smoke":
            world = dataclasses.replace(
                config.world,
                adsl_count=24,
                ftth_count=12,
                start=D(2017, 3, 1),
                end=D(2017, 4, 30),
            )
            config = dataclasses.replace(config, world=world)
        return config

    def execute(self, ctx: StudyContext) -> RunResult:
        return execute_study(ctx.config, workers=1)

    def rep(self, ctx: StudyContext, index: int) -> Rep:
        started = time.perf_counter()
        result = self.execute(ctx)
        executed = time.perf_counter()
        rendered, unrendered = render_figures(result.data)
        done = time.perf_counter()
        return Rep(
            work=ctx.rows,
            outputs={"result": result, "rendered": rendered, "unrendered": unrendered},
            phases={
                "wall_s": done - started,
                "execute_wall_s": executed - started,
                "figures_wall_s": done - executed,
            },
        )

    def verify(self, ctx: StudyContext, rep: Rep) -> List[Check]:
        rendered = tuple(sorted(rep.outputs["rendered"]))
        expected = ctx.figures
        figures_ok = rendered == expected and (
            self.scale != "full"
            or (len(rendered) == 11 and not rep.outputs["unrendered"])
        )
        return [
            self.check_data(ctx, "execute_study(workers=1)", rep.outputs["result"].data),
            (
                "render_figures",
                figures_ok,
                "" if figures_ok else f"rendered {rendered}, expected {expected}",
            ),
        ]

    def trace(self, ctx: StudyContext, tracer: Tracer, untraced: Rep):
        with tracer.span("bench.replay"):
            merged = self.replay(ctx, tracer, piped=False)
            with tracer.span("figures.render_all"):
                render_figures(merged)
        values = self.replay_metrics(tracer)
        values["figures.render_all_ms"] = tracer.median_ms("figures.render_all")
        return values, [self.check_data(ctx, "traced replay", merged)]

    def trace_extras(self, ctx: StudyContext, untraced: Rep):
        """``telemetry.overhead_frac``: telemetry on ÷ off − 1.

        Measured as three interleaved off/on pairs over the comparison
        month of the same world (30 full-resolution day tasks): the cost
        is per day, and the host's speed drifts more between two
        five-year runs than telemetry could add.
        """
        world = dataclasses.replace(ctx.config.world, start=D(2017, 4, 1), end=D(2017, 4, 30))
        config = dataclasses.replace(ctx.config, world=world)
        off: List[float] = []
        on: List[float] = []
        same = True
        for _ in range(3):
            plain, wall, _ = _timed(lambda: execute_study(config, workers=1))
            off.append(wall)
            traced, wall, _ = _timed(
                lambda: execute_study(
                    config, workers=1, telemetry=Telemetry(MonotonicClock())
                )
            )
            on.append(wall)
            same = same and traced.data == plain.data
        values = {
            "telemetry.overhead_frac": statistics.median(on) / statistics.median(off) - 1.0
        }
        return values, [
            ("execute_study(telemetry=on) equals off", same, "" if same else "StudyData differs")
        ]


# ----------------------------------------------------------------------
# fiveyear-pooled-ckpt


class FiveyearPooledCkpt(FiveyearSerial):
    name = "fiveyear-pooled-ckpt"
    with_figures = False
    workers = 2

    def rep(self, ctx: StudyContext, index: int) -> Rep:
        root = ctx.scratch / f"ckpt-{index}"
        started = time.perf_counter()
        # No collection between the two: this is inside the timed region.
        fresh, fresh_wall, fresh_cpu = _timed(
            lambda: execute_study(ctx.config, workers=self.workers, checkpoint_root=root),
            collect=False,
        )
        resumed, resume_wall, _ = _timed(
            lambda: execute_study(
                ctx.config, workers=self.workers, checkpoint_root=root, resume=True
            ),
            collect=False,
        )
        wall = time.perf_counter() - started
        persisted = sum(path.stat().st_size for path in root.rglob("*.ckpt"))
        shutil.rmtree(root, ignore_errors=True)
        return Rep(
            work=ctx.rows,
            outputs={"result": fresh, "resumed": resumed},
            phases={
                "wall_s": wall,
                "fresh_wall_s": fresh_wall,
                "fresh_cpu_s": fresh_cpu,
                "resume_wall_s": resume_wall,
                "persisted_bytes": persisted,
            },
        )

    def verify(self, ctx: StudyContext, rep: Rep) -> List[Check]:
        fresh = rep.outputs["result"].report
        resumed = rep.outputs["resumed"].report
        tasks = fresh.planned_tasks
        all_hits = resumed.checkpoint_hits == tasks and resumed.execution == "none"
        return [
            self.check_data(ctx, "execute_study(workers=2, checkpoints)", rep.outputs["result"].data),
            self.check_data(ctx, "execute_study(resume=True)", rep.outputs["resumed"].data),
            (
                "resume is all checkpoint hits",
                all_hits,
                ""
                if all_hits
                else f"{resumed.checkpoint_hits} hits of {tasks} tasks, "
                f"execution={resumed.execution}",
            ),
        ]

    def phase_metrics(self, rep: Rep) -> Dict[str, float]:
        values = super().phase_metrics(rep)
        values["parallel.checkpoint_hits"] = rep.outputs["resumed"].report.checkpoint_hits
        values["resume_wall_s"] = rep.phases["resume_wall_s"]
        values["persisted_bytes"] = rep.phases["persisted_bytes"]
        return values

    def trace(self, ctx: StudyContext, tracer: Tracer, untraced: Rep):
        with tracer.span("bench.replay"):
            # The pieces of a day are attributed on fiveyear-serial; here
            # only what pooling and checkpointing add is replayed.
            merged = self.replay(ctx, tracer, checkpoints=True, attribute=False)
        values = self.replay_metrics(tracer)
        saves = tracer.named("checkpoint.save")
        values["checkpoint.save_ms"] = tracer.median_ms("checkpoint.save")
        values["checkpoint.load_ms"] = tracer.median_ms("checkpoint.load")
        values["checkpoint.bytes_per_task"] = (
            sum(span["bytes"] for span in saves) / len(saves) if saves else 0.0
        )
        return values, [self.check_data(ctx, "traced replay", merged)]

    def trace_extras(self, ctx: StudyContext, untraced: Rep):
        pooled, _, pooled_cpu = _timed(
            lambda: execute_study(ctx.config, workers=self.workers)
        )
        serial, _, serial_cpu = _timed(lambda: execute_study(ctx.config, workers=1))
        values = {
            "parallel.pool_overhead_cpu_s": pooled_cpu - serial_cpu,
            "checkpoint.overhead_cpu_s": untraced.phases["fresh_cpu_s"] - pooled_cpu,
        }
        values.update(pool_and_fsio_metrics(ctx.scratch))
        checks = [
            self.check_data(ctx, "execute_study(workers=2)", pooled.data),
            self.check_data(ctx, "execute_study(workers=1)", serial.data),
        ]
        return values, checks


@dataclass(frozen=True)
class _NoopTask:
    index: int


def _noop_runner(task: _NoopTask) -> int:
    return task.index


def pool_and_fsio_metrics(scratch: Path, tasks: int = 200, writes: int = 200) -> Dict[str, float]:
    """The fixed costs under every pooled, checkpointed task."""
    started = time.perf_counter()
    pool = SupervisedPool(2, _noop_runner)
    try:
        pool.submit(_NoopTask(0))
        while (event := pool.next_event(timeout=5.0)) is not None and event[0] != EVENT_DONE:
            pass
        first = time.perf_counter()
        for index in range(1, tasks + 1):
            pool.submit(_NoopTask(index))
            while (event := pool.next_event(timeout=5.0)) is not None and event[0] != EVENT_DONE:
                pass
        roundtrips = time.perf_counter() - first
        stopping = time.perf_counter()
        pool.stop(graceful=True)
        spawn = (first - started) + (time.perf_counter() - stopping)
    finally:
        pool.stop(graceful=False)
    payload = bytes(16 * 1024)
    target = scratch / "fsio-probe.bin"
    target.parent.mkdir(parents=True, exist_ok=True)
    began = time.perf_counter()
    for _ in range(writes):
        fsio.write_and_replace(target, payload, surface=fsio.SURFACE_CHECKPOINT)
    write_ms = 1000.0 * (time.perf_counter() - began) / writes
    target.unlink()
    return {
        "pool.spawn_ms": 1000.0 * spawn,
        "pool.task_roundtrip_ms": 1000.0 * roundtrips / tasks,
        "fsio.write_and_replace_ms": write_ms,
    }


# ----------------------------------------------------------------------
# heavyday-sharded


class HeavydaySharded(StudyWorkload):
    name = "heavyday-sharded"
    workers = 2
    shards = 4

    def config(self, seed: int) -> StudyConfig:
        adsl, ftth = (4000, 2000) if self.scale == "full" else (90, 45)
        return StudyConfig(
            world=WorldConfig(
                seed=seed,
                adsl_count=adsl,
                ftth_count=ftth,
                start=D(2017, 4, 8),
                end=D(2017, 4, 14),
            ),
            day_stride=1,
            flow_days_per_month=1,
            rtt_days_per_comparison_month=4,
            max_flows_per_usage=8,
        )

    @property
    def watermark(self) -> int:
        return 1 << 20 if self.scale == "full" else 1 << 12

    def rep(self, ctx: StudyContext, index: int) -> Rep:
        spill = ctx.scratch / f"spill-{index}"
        started = time.perf_counter()
        result = execute_study(
            ctx.config,
            workers=self.workers,
            shards=self.shards,
            shard_spill_dir=spill,
            spill_watermark_bytes=self.watermark,
        )
        wall = time.perf_counter() - started
        shutil.rmtree(spill, ignore_errors=True)
        return Rep(
            work=ctx.rows,
            outputs={"result": result},
            phases={"wall_s": wall, "flows": ctx.flows},
        )

    def verify(self, ctx: StudyContext, rep: Rep) -> List[Check]:
        report = rep.outputs["result"].report
        spilled = report.spills > 0
        return [
            self.check_data(ctx, "execute_study(workers=2, shards=4)", rep.outputs["result"].data),
            ("partials spilled", spilled, "" if spilled else "report.spills == 0"),
        ]

    def phase_metrics(self, rep: Rep) -> Dict[str, float]:
        values = super().phase_metrics(rep)
        values["flows_per_s"] = rep.phases["flows"] / rep.phases["wall_s"]
        return values

    def trace(self, ctx: StudyContext, tracer: Tracer, untraced: Rep):
        with tracer.span("bench.replay"):
            merged = self.replay(ctx, tracer, shards=self.shards)
        values = self.replay_metrics(tracer)
        whole = tracer.total("study.day_partial")
        per_day: Dict[str, List[float]] = {}
        for span in tracer.named("study.shard_task"):
            per_day.setdefault(f"{span['rep']}:{span['day']}", []).append(
                span["end"] - span["start"]
            )
        skews = [
            max(times) / (sum(times) / len(times)) - 1.0 for times in per_day.values()
        ]
        writes = tracer.named("shards.spill_write")
        values.update(
            {
                "study.shard_task_ms": tracer.median_ms("study.shard_task"),
                "study.shard_replay_overhead_frac": (
                    tracer.total("study.shard_task") / whole - 1.0 if whole else 0.0
                ),
                "study.shard_skew_frac": sum(skews) / len(skews) if skews else 0.0,
                "study.merge_day_shards_ms": tracer.median_ms("study.merge_day_shards"),
                "shards.spill_write_ms": tracer.median_ms("shards.spill_write"),
                "shards.spill_load_ms": tracer.median_ms("shards.spill_load"),
                "shards.spill_bytes": (
                    sum(span["bytes"] for span in writes) / len(writes) if writes else 0.0
                ),
            }
        )
        return values, [self.check_data(ctx, "traced replay", merged)]

    def trace_extras(self, ctx: StudyContext, untraced: Rep):
        return {}, [_digest_check(ctx, untraced.outputs["result"].data)]

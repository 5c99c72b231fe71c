"""``lake-replay``: archive pre-generated days, then read them back.

Set-up moves synthesis out of the way: it generates two months of
:class:`DayTraffic` (and the hourly bins of the comparison month) for a
600-subscriber population.  A repetition then

* **archives** every day through :meth:`LakeSink.store_day` into a fresh
  v2 (column-chunk) :class:`DataLake`, and
* **reads** it back: ``fsck_lake``, a strict ``run_replay``, one full
  ``read_range`` scan and one scan pruned to a single day by a
  :class:`ScanPredicate`.

Only ``dataflow`` (columnar codec, manifests, zone maps, integrity) and
``core.persistence`` work here; the pool and the generator are bypassed.
Archive and read are separate phase metrics, so a codec change that
speeds one and slows the other shows.
"""

from __future__ import annotations

import datetime
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from edgebench.harness import Check, Rep, Workload
from edgebench.spans import Tracer
from repro.analytics.activity import subscriber_days
from repro.core.config import COMPARISON_MONTHS
from repro.core.persistence import (
    HOURLY_CODEC,
    HOURLY_TABLE,
    PROTOCOL_TABLE,
    USAGE_TABLE,
    LakeSink,
    run_replay,
)
from repro.dataflow.columnar import ScanPredicate
from repro.dataflow.datalake import DataLake
from repro.dataflow.integrity import fsck_lake
from repro.services.thresholds import ActiveSubscriberCriterion
from repro.synthesis.flowgen import (
    PROTOCOL_CODEC,
    USAGE_CODEC,
    DayTraffic,
    HourlyVolume,
    TrafficGenerator,
)
from repro.synthesis.studycalendar import study_months
from repro.synthesis.world import World, WorldConfig

D = datetime.date
DayInput = Tuple[datetime.date, DayTraffic, Optional[List[HourlyVolume]]]
_CODECS = {
    USAGE_TABLE: USAGE_CODEC,
    PROTOCOL_TABLE: PROTOCOL_CODEC,
    HOURLY_TABLE: HOURLY_CODEC,
}


@dataclass
class LakeContext:
    scratch: Path
    start: datetime.date
    end: datetime.date
    inputs: List[DayInput]
    rows: int  # usage + protocol + hourly rows archived per repetition
    usage_rows: int
    target: datetime.date  # the day the pruned scan selects
    expected: Dict[str, object] = field(default_factory=dict)


def _tables(traffic: DayTraffic, hourly: Optional[List[HourlyVolume]]):
    """(table, records) of one day, as :meth:`LakeSink.store_day` writes them."""
    candidates = (
        (USAGE_TABLE, traffic.usage),
        (PROTOCOL_TABLE, traffic.protocols),
        (HOURLY_TABLE, hourly),
    )
    return [(table, records) for table, records in candidates if records]


def lake_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in Path(root).rglob("*") if path.is_file())


class LakeReplay(Workload):
    name = "lake-replay"

    def setup(self, seed: int, scratch: Path) -> LakeContext:
        if self.scale == "full":
            adsl, ftth, start = 400, 200, D(2017, 3, 1)
        else:
            adsl, ftth, start = 40, 20, D(2017, 4, 20)
        end = D(2017, 4, 30)
        world = World(
            WorldConfig(seed=seed, adsl_count=adsl, ftth_count=ftth, start=start, end=end)
        )
        generator = TrafficGenerator(world)
        inputs: List[DayInput] = []
        day = start
        while day <= end:
            traffic = generator.generate_day(day)
            hourly = (
                generator.generate_hourly(day, traffic)
                if traffic.usage and (day.year, day.month) in COMPARISON_MONTHS
                else None
            )
            inputs.append((day, traffic, hourly))
            day += datetime.timedelta(days=1)
        stored = [entry for entry in inputs if entry[1].usage]
        usage_rows = sum(len(traffic.usage) for _, traffic, _ in stored)
        rows = usage_rows + sum(
            len(traffic.protocols) + len(hourly or ()) for _, traffic, hourly in stored
        )
        scratch.mkdir(parents=True, exist_ok=True)
        return LakeContext(
            scratch=scratch,
            start=start,
            end=end,
            inputs=inputs,
            rows=rows,
            usage_rows=usage_rows,
            target=stored[len(stored) // 2][0],
        )

    def prepare_reference(self, ctx: LakeContext) -> None:
        criterion = ActiveSubscriberCriterion()
        stored = [entry for entry in ctx.inputs if entry[1].usage]
        ctx.expected = {
            "subscriber_days": {
                day: subscriber_days(traffic.usage, criterion) for day, traffic, _ in stored
            },
            "protocol_rows": [row for _, traffic, _ in stored for row in traffic.protocols],
            "hourly": [row for _, _, hourly in stored for row in hourly or ()],
            "target_rows": next(
                len(traffic.usage) for day, traffic, _ in stored if day == ctx.target
            ),
        }

    # -- the two phases (also the fault-injection seam of bench/tests) -------

    def archive(self, ctx: LakeContext, index: int) -> DataLake:
        lake = DataLake(ctx.scratch / f"lake-{index}", write_format="v2")
        sink = LakeSink(lake)
        for day, traffic, hourly in ctx.inputs:
            sink.store_day(day, traffic, hourly)
        return lake

    def read_back(self, ctx: LakeContext, lake: DataLake) -> dict:
        report = fsck_lake(lake)
        replayed = run_replay(lake, study_months(ctx.start, ctx.end), policy="strict")
        full = lake.read_range(USAGE_TABLE, ctx.start, ctx.end, USAGE_CODEC).count()
        where = ScanPredicate.of(day_range=(ctx.target, ctx.target))
        pruned = lake.read_range(
            USAGE_TABLE, ctx.start, ctx.end, USAGE_CODEC, where=where
        ).count()
        return {"fsck": report, "replayed": replayed.data, "full": full, "pruned": pruned}

    def rep(self, ctx: LakeContext, index: int) -> Rep:
        started = time.perf_counter()
        lake = self.archive(ctx, index)
        archived = time.perf_counter()
        outputs = self.read_back(ctx, lake)
        done = time.perf_counter()
        outputs["day_rows"] = lake.read_day(USAGE_TABLE, ctx.target, USAGE_CODEC).count()
        persisted = lake_bytes(lake.root)
        shutil.rmtree(lake.root, ignore_errors=True)
        return Rep(
            work=ctx.rows,
            outputs=outputs,
            phases={
                "wall_s": done - started,
                "archive_wall_s": archived - started,
                "replay_wall_s": done - archived,
                "persisted_bytes": persisted,
            },
        )

    def verify(self, ctx: LakeContext, rep: Rep) -> List[Check]:
        out = rep.outputs
        data = out["replayed"]
        findings = len(out["fsck"].findings)
        checks: List[Check] = [
            ("fsck_lake", findings == 0, f"{findings} finding(s): {out['fsck'].kinds()}"),
        ]
        for name in ("subscriber_days", "protocol_rows", "hourly"):
            same = getattr(data, name) == ctx.expected[name]
            checks.append((f"run_replay {name}", same, "" if same else "differs from the in-memory rows"))
        checks.append(
            ("read_range full", out["full"] == ctx.usage_rows, f"{out['full']} != {ctx.usage_rows}")
        )
        pruned_ok = out["pruned"] == out["day_rows"] == ctx.expected["target_rows"]
        checks.append(
            (
                "read_range pruned",
                pruned_ok,
                f"pruned {out['pruned']}, read_day {out['day_rows']}, "
                f"generated {ctx.expected['target_rows']}",
            )
        )
        return checks

    def phase_metrics(self, rep: Rep) -> Dict[str, float]:
        return {
            "subscriber_days_per_s": sum(
                len(rows) for rows in rep.outputs["replayed"].subscriber_days.values()
            )
            / rep.phases["wall_s"],
            "archive_wall_s": rep.phases["archive_wall_s"],
            "replay_wall_s": rep.phases["replay_wall_s"],
            "persisted_bytes": rep.phases["persisted_bytes"],
        }

    # -- traced replay -----------------------------------------------------

    def trace(self, ctx: LakeContext, tracer: Tracer, untraced: Rep):
        lake = DataLake(ctx.scratch / f"trace-lake-{tracer.rep}", write_format="v2")
        with tracer.span("bench.replay"):
            for day, traffic, hourly in ctx.inputs:
                for table, records in _tables(traffic, hourly):
                    with tracer.span("lake.write_day", table=table, rows=len(records)):
                        lake.write_day(table, day, records, _CODECS[table])
            with tracer.span("integrity.fsck_lake"):
                report = fsck_lake(lake)
            with tracer.span("persistence.run_replay"):
                replayed = run_replay(
                    lake, study_months(ctx.start, ctx.end), policy="strict"
                )
            with tracer.span("lake.read_range_full"):
                full = lake.read_range(USAGE_TABLE, ctx.start, ctx.end, USAGE_CODEC).count()
            where = ScanPredicate.of(day_range=(ctx.target, ctx.target))
            with tracer.span("lake.read_range_pruned"):
                pruned = lake.read_range(
                    USAGE_TABLE, ctx.start, ctx.end, USAGE_CODEC, where=where
                ).count()
            for day, traffic, hourly in ctx.inputs:
                for table, _ in _tables(traffic, hourly):
                    with tracer.span("lake.read_day", on_path=False, table=table) as span:
                        span["rows"] = lake.read_day(table, day, _CODECS[table]).count()
        persisted = lake_bytes(lake.root)
        shutil.rmtree(lake.root, ignore_errors=True)
        full_ms = tracer.median_ms("lake.read_range_full")
        pruned_ms = tracer.median_ms("lake.read_range_pruned")
        values = {
            "lake.write_rows_per_s": tracer.median_rate("lake.write_day", "rows"),
            "lake.read_rows_per_s": tracer.median_rate("lake.read_day", "rows"),
            "lake.bytes_per_row": persisted / ctx.rows,
            "lake.read_range_full_ms": full_ms,
            "lake.read_range_pruned_ms": pruned_ms,
            "lake.prune_ratio_x": full_ms / pruned_ms if pruned_ms else 0.0,
            "integrity.fsck_ms": tracer.median_ms("integrity.fsck_lake"),
            "integrity.fsck_findings": len(report.findings),
            "persistence.replay_ms": tracer.median_ms("persistence.run_replay"),
        }
        outputs = {
            "fsck": report,
            "replayed": replayed.data,
            "full": full,
            "pruned": pruned,
            "day_rows": ctx.expected["target_rows"],
        }
        return values, self.verify(ctx, Rep(work=ctx.rows, outputs=outputs))

"""Persisting the study to the data lake, and replaying from it.

The paper's cluster serves two access patterns (Section 2.2): predefined
analytics updated continuously as daily logs arrive, and *specific
queries on historical collections*.  This module implements both ends
for the reproduction:

* :class:`LakeSink` — ``execute_study(..., lake=)`` hands one to every
  day (or shard) task, which writes its stage-1 outputs (usage rows,
  protocol rows, hourly bins) into a day-partitioned
  :class:`~repro.dataflow.datalake.DataLake` as its own partition;
* :func:`replay_study` — rebuild a :class:`StudyData` purely from the
  lake, without the world model: the historical-query path.  Covers the
  aggregate-tier figures (2-9); the flow tier is not persisted (flow
  records remain in the probes' own logs in a real deployment).
"""

from __future__ import annotations

import datetime
import hashlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, List, Mapping, Optional, Sequence

if TYPE_CHECKING:  # imported lazily at runtime to keep layering acyclic
    from repro.core.parallel import RunReport

from repro.core.shards import ShardSpec
from repro.core.study import StudyData, _summed, aggregate_usage_day
from repro.dataflow.columnar import ColumnarCodec, ColumnBatch
from repro.dataflow.datalake import DataLake
from repro.dataflow.integrity import (
    DayAdmission,
    LakeIntegrity,
    partition_files,
    register_codec_provider,
)
from repro.services.thresholds import ActiveSubscriberCriterion, VisitClassifier
from repro.synthesis.flowgen import (
    HOURLY_CODEC,
    PROTOCOL_CODEC,
    USAGE_CODEC,
    DayTraffic,
    HourlyVolume,
)

USAGE_TABLE = "usage"
PROTOCOL_TABLE = "protocols"
HOURLY_TABLE = "hourly"

#: The tables a task archives, in write order, with their codecs.
ARCHIVE_CODECS: Mapping[str, ColumnarCodec[Any]] = MappingProxyType(
    {USAGE_TABLE: USAGE_CODEC, PROTOCOL_TABLE: PROTOCOL_CODEC, HOURLY_TABLE: HOURLY_CODEC}
)

# Make the aggregate tables decodable by `repro fsck` record scans —
# registering the codec objects (not bare line decoders) lets fsck decode
# v2 chunk partitions of these tables too.
register_codec_provider(lambda: dict(ARCHIVE_CODECS))


def shard_source(shard: ShardSpec) -> str:
    """The partition a (day, shard) task writes: ``part-0`` for a whole day;
    a split day's parts are zero-padded to sort in shard (= row) order."""
    return f"part-{shard.index:0{len(str(shard.count - 1))}d}"


class ForeignPartitionError(ValueError):
    """A planned lake day holds a partition the run would not write (another
    container or shard count): replay would read it beside the new parts."""


class LakeSink:
    """Writes one task's stage-1 outputs into a lake as partition ``source``."""

    def __init__(self, lake: DataLake, source: str = "part-0") -> None:
        self.lake = lake
        self.source = source

    def store_day(
        self, day: datetime.date, traffic: DayTraffic,
        hourly: Optional[Sequence[HourlyVolume]] = None,
    ) -> None:
        tables: Sequence[Optional[Sequence[Any]]] = (traffic.usage, traffic.protocols, hourly)
        for (table, codec), records in zip(ARCHIVE_CODECS.items(), tables):
            if records:
                self.lake.write_day(table, day, records, codec, source=self.source)


def check_lake_days(
    lake: DataLake, days: Sequence[datetime.date], shards: Sequence[ShardSpec]
) -> None:
    """Refuse a lake whose planned ``days`` hold partitions the ``shards``
    do not write (days outside the plan may hold anything)."""
    for table in ARCHIVE_CODECS:
        for day in days:
            written = {lake.partition_path(table, day, shard_source(s)) for s in shards}
            for path in partition_files(lake.day_dir(table, day)):
                if path not in written:
                    raise ForeignPartitionError(
                        f"lake day {day} holds {path}, a partition this run would not write"
                    )


def holds_task(lake: DataLake, day: datetime.date, shard: ShardSpec, data: StudyData) -> bool:
    """Whether the lake holds each partition the task that reduced ``data`` wrote."""
    wrote = (day in data.subscriber_days, len(data.protocol_rows), len(data.hourly))
    return all(
        lake.partition_path(table, day, shard_source(shard)).exists()
        for table, written in zip(ARCHIVE_CODECS, wrote)
        if written
    )


def replay_study(
    lake: DataLake,
    months: List,
    visit_classifier: Optional[VisitClassifier] = None,
    criterion: Optional[ActiveSubscriberCriterion] = None,
    *,
    integrity: Optional[LakeIntegrity] = None,
    admission: Optional[DayAdmission] = None,
) -> StudyData:
    """Rebuild aggregate-tier StudyData from an archived lake.

    The world model is not consulted: this is the pure historical-query
    path.  Stage-2 figure modules run unchanged on the result.

    The replay is day-major: each calendar day's partitions (across all
    three tables) are read and merged together, so an ``integrity``
    context can score the whole day and an ``admission`` gate can drop a
    degraded day atomically — the same hole in the calendar that an
    :class:`~repro.tstat.outages.OutageCalendar` outage leaves.  Without
    the keyword arguments the result is identical to the historical
    unguarded replay.
    """
    classifier = visit_classifier or VisitClassifier()
    active_criterion = criterion or ActiveSubscriberCriterion()
    days: List[StudyData] = []
    for day in sorted({day for table in ARCHIVE_CODECS for day in lake.days(table)}):
        usage, protocols, hourly = (
            list(lake.read_day(table, day, codec, integrity).blocks())
            for table, codec in ARCHIVE_CODECS.items()
        )
        if integrity is not None and admission is not None:
            if not admission.admit(integrity.ledger.report_for(day)):
                continue
        # A split day's parts: usage concatenates, the other tables key-sum.
        part = StudyData(
            months=list(months),
            protocol_rows=_summed(protocols, "protocol_rows"),
            hourly=_summed(hourly, "hourly"),
        )
        rows = ColumnBatch.concat(usage, USAGE_CODEC)
        if rows:
            aggregate_usage_day(part, day, rows, active_criterion, classifier)
        days.append(part)
    data = StudyData(months=list(months))
    data.merge(*days)
    return data


@dataclass
class ReplayResult:
    """A replayed study plus its run manifest (quality reports included)."""

    data: StudyData
    report: "RunReport"


def run_replay(
    lake: DataLake,
    months: List,
    visit_classifier: Optional[VisitClassifier] = None,
    criterion: Optional[ActiveSubscriberCriterion] = None,
    *,
    policy: str = "strict",
    min_day_quality: float = 0.999,
    verify_checksums: bool = True,
) -> ReplayResult:
    """Replay a lake under an integrity policy and produce a manifest.

    The returned :class:`~repro.core.parallel.RunReport` carries one
    :class:`~repro.core.parallel.DayRecord` per lake day (``status`` is
    ``"excluded"`` for days the quality gate dropped) and the per-day
    :class:`~repro.dataflow.integrity.DayQualityReport` dicts in its
    ``data_quality`` section.  Deterministic end to end: same lake bytes
    and same policy ⇒ identical manifest.
    """
    from repro.core.parallel import DayRecord, RunReport

    integrity = LakeIntegrity.for_lake_root(
        lake.root, policy=policy, verify=verify_checksums
    )
    admission = DayAdmission(min_quality=min_day_quality)
    data = replay_study(
        lake,
        months,
        visit_classifier,
        criterion,
        integrity=integrity,
        admission=admission,
    )
    key = f"replay|{policy}|{min_day_quality}|{verify_checksums}"
    report = RunReport(
        config_hash=hashlib.sha256(key.encode("utf-8")).hexdigest()[:12],
        seed=0,
        start_method="none",
        workers=0,
        execution="replay",
    )
    excluded = set(admission.excluded)
    for quality in admission.reports:
        report.records.append(
            DayRecord(
                day=quality.day,
                status="excluded" if quality.day in excluded else "completed",
                attempts=1,
                wall_time=0.0,
                worker=None,
                source="lake",
                error=(
                    f"quality {quality.quality:.6f} below "
                    f"{min_day_quality}" if quality.day in excluded else ""
                ),
            )
        )
    report.data_quality = admission.quality_dicts()
    return ReplayResult(data=data, report=report)

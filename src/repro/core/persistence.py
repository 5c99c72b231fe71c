"""Persisting the study to the data lake, and replaying from it.

The paper's cluster serves two access patterns (Section 2.2): predefined
analytics updated continuously as daily logs arrive, and *specific
queries on historical collections*.  This module implements both ends
for the reproduction:

* :class:`LakeSink` — attach it to a study run and every day's stage-1
  outputs (usage rows, protocol rows, hourly bins) are written into a
  day-partitioned :class:`~repro.dataflow.datalake.DataLake` as they are
  produced;
* :func:`replay_study` — rebuild a :class:`StudyData` purely from the
  lake, without the world model: the historical-query path.  Covers the
  aggregate-tier figures (2-9); the flow tier is not persisted (flow
  records remain in the probes' own logs in a real deployment).
"""

from __future__ import annotations

import datetime
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # imported lazily at runtime to keep layering acyclic
    from repro.core.parallel import RunReport

from repro.core.study import LongitudinalStudy, StudyData, aggregate_usage_day
from repro.dataflow.columnar import ColumnBatch, ColumnSpec, ColumnarCodec
from repro.dataflow.datalake import DataLake, LineCodec, tsv_codec
from repro.dataflow.integrity import (
    DayAdmission,
    LakeIntegrity,
    register_codec_provider,
)
from repro.services.thresholds import ActiveSubscriberCriterion, VisitClassifier
from repro.synthesis.flowgen import (
    PROTOCOL_CODEC,
    USAGE_CODEC,
    DayTraffic,
    HourlyVolume,
)
from repro.synthesis.population import Technology

USAGE_TABLE = "usage"
PROTOCOL_TABLE = "protocols"
HOURLY_TABLE = "hourly"

_HOURLY_LINES: LineCodec[HourlyVolume] = tsv_codec(
    from_fields=lambda fields: HourlyVolume(
        day=datetime.date.fromisoformat(fields[0]),
        technology=Technology(fields[1]),
        bin_index=int(fields[2]),
        bytes_down=int(fields[3]),
    ),
    to_fields=lambda row: [
        row.day.isoformat(),
        row.technology.value,
        str(row.bin_index),
        str(row.bytes_down),
    ],
)

HOURLY_CODEC: ColumnarCodec[HourlyVolume] = ColumnarCodec(
    encode=_HOURLY_LINES.encode,
    decode=_HOURLY_LINES.decode,
    columns=[
        ColumnSpec("day", "date"),
        ColumnSpec("technology", "str", enum=Technology),
        ColumnSpec("bin_index", "int"),
        ColumnSpec("bytes_down", "int"),
    ],
    record=HourlyVolume,
    zone_columns=("technology",),
    day_column="day",
)

# Make the aggregate tables decodable by `repro fsck` record scans —
# registering the codec objects (not bare line decoders) lets fsck decode
# v2 chunk partitions of these tables too.
register_codec_provider(
    lambda: {
        USAGE_TABLE: USAGE_CODEC,
        PROTOCOL_TABLE: PROTOCOL_CODEC,
        HOURLY_TABLE: HOURLY_CODEC,
    }
)


class LakeSink:
    """Streams a study's stage-1 outputs into a data lake as it runs.

    Use with :meth:`PersistingStudy.run` or drive it manually via
    :meth:`store_day`.
    """

    def __init__(self, lake: DataLake) -> None:
        self.lake = lake
        self.days_written = 0

    def store_day(
        self,
        day: datetime.date,
        traffic: DayTraffic,
        hourly: Optional[List[HourlyVolume]] = None,
    ) -> None:
        if traffic.usage:
            self.lake.write_day(USAGE_TABLE, day, traffic.usage, USAGE_CODEC)
        if traffic.protocols:
            self.lake.write_day(
                PROTOCOL_TABLE, day, traffic.protocols, PROTOCOL_CODEC
            )
        if hourly:
            self.lake.write_day(HOURLY_TABLE, day, hourly, HOURLY_CODEC)
        self.days_written += 1


class PersistingStudy(LongitudinalStudy):
    """A study that also archives every processed day into a lake."""

    def __init__(self, *args, lake: DataLake, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sink = LakeSink(lake)

    def _day_generated(self, day, traffic, hourly) -> None:
        self.sink.store_day(day, traffic, hourly)


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
    data = StudyData(months=list(months))
    all_days = sorted(
        set(lake.days(USAGE_TABLE))
        | set(lake.days(PROTOCOL_TABLE))
        | set(lake.days(HOURLY_TABLE))
    )
    for day in all_days:
        usage = ColumnBatch.concat(
            lake.read_day(USAGE_TABLE, day, USAGE_CODEC, integrity).blocks(),
            USAGE_CODEC,
        )
        protocols = lake.read_day(
            PROTOCOL_TABLE, day, PROTOCOL_CODEC, integrity
        ).collect()
        hourly = lake.read_day(HOURLY_TABLE, day, HOURLY_CODEC, integrity).collect()
        if integrity is not None and admission is not None:
            if not admission.admit(integrity.ledger.report_for(day)):
                continue
        if usage:
            aggregate_usage_day(data, day, usage, active_criterion, classifier)
        data.protocol_rows.extend(protocols)
        data.hourly.extend(hourly)
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

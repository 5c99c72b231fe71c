"""Data-plane integrity: checksummed partitions, quarantine, day admission.

The paper's pipeline shipped probe logs to a central lake daily for five
years (Section 2.2) and survived probe outages "from few hours up to some
months" (Section 2.3).  Surviving that long means the *data* plane — not
just the compute plane — must treat corruption as the normal case: torn
writes when a copy is interrupted, bit rot in long-term storage, schema
drift as probe software evolves, and partial days around outages.  This
module is the reproduction's answer, in four tiers:

* **Partition manifests** — every partition written into the lake gets a
  deterministic JSON sidecar (:class:`PartitionManifest`: CRC32 of the
  payload lines, record count, byte total, schema version) finalized
  atomically, so a torn or silently altered partition is detectable
  without trusting the data bytes themselves.
* **Record quarantine** — decode failures surface as the typed
  :class:`RecordDecodeError` naming table, day, source, and line number;
  a :class:`LakeIntegrity` policy (``strict`` | ``quarantine`` | ``skip``)
  decides whether a bad line aborts the read, is routed to
  ``<root>/_quarantine/`` with full provenance, or is dropped counted.
  Either way the context first records an :class:`IntegrityFinding`, so
  one list says what a walk found and how it was absorbed.
* **Quality-gated admission** — per-day :class:`DayQualityReport`\\ s feed
  a :class:`DayAdmission` threshold that excludes degraded days from the
  study exactly like :class:`~repro.tstat.outages.OutageCalendar` holes,
  so analytics tolerate data loss the way the paper's figures tolerate
  probe gaps.
* **Deterministic corruption injection** — a :class:`CorruptionPlan` (in
  the style of :mod:`repro.core.faults`) applies seeded, byte-reproducible
  damage keyed on ``(table, day, source)``; :func:`fsck_lake` scans a lake
  and must find every injected class with zero false positives.

This module sits *beneath* the codec layers (``columnar``, ``datalake``,
``tstat``, ``core``) and imports none of them, lazily or otherwise: it
owns the lake's layout, the contexts and the reports; the layers above
push down what only they know (:func:`register_codec_provider`,
:func:`register_structure_check`), and :func:`fsck_lake` reaches the one
partition walk (:mod:`repro.dataflow.datalake`) through the ``lake`` it
is handed.

Everything here is deterministic: same seed + same plan ⇒ identical
quarantine directories, identical reports, identical fsck findings.
"""

from __future__ import annotations

import datetime
import gzip
import io
import json
import os
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import fsio
from repro.telemetry import runtime as telemetry

# ----------------------------------------------------------------------
# Policies

POLICY_STRICT = "strict"  # any corruption aborts the read (typed error)
POLICY_QUARANTINE = "quarantine"  # bad lines routed to _quarantine/, read continues
POLICY_SKIP = "skip"  # bad lines dropped (counted), nothing persisted

POLICIES = (POLICY_STRICT, POLICY_QUARANTINE, POLICY_SKIP)


def validate_policy(policy: str) -> str:
    if policy not in POLICIES:
        raise ValueError(
            f"unknown bad-records policy {policy!r}; choose from {POLICIES}"
        )
    return policy


# ----------------------------------------------------------------------
# Typed errors


class RecordDecodeError(ValueError):
    """A record failed to decode, with full provenance.

    Carries (when known) the table, day, source file, 1-based line
    number, and the offending line, so an operator can go from a stack
    trace straight to the byte in the lake.  Context is usually attached
    in layers: the parser knows the reason, the log reader adds the
    source and line number, the lake read path adds table and day.
    """

    def __init__(
        self,
        reason: str,
        *,
        table: Optional[str] = None,
        day: Optional[datetime.date] = None,
        source: Optional[str] = None,
        line_number: Optional[int] = None,
        line: Optional[str] = None,
    ) -> None:
        self.reason = reason
        self.table = table
        self.day = day
        self.source = source
        self.line_number = line_number
        self.line = line
        super().__init__(self._render())

    def _render(self) -> str:
        where: List[str] = []
        if self.table is not None:
            where.append(f"table {self.table!r}")
        if self.day is not None:
            where.append(f"day {self.day.isoformat()}")
        if self.source is not None:
            where.append(f"source {self.source!r}")
        if self.line_number is not None:
            where.append(f"line {self.line_number}")
        prefix = ", ".join(where)
        return f"{prefix}: {self.reason}" if prefix else self.reason

    def with_context(
        self,
        *,
        table: Optional[str] = None,
        day: Optional[datetime.date] = None,
        source: Optional[str] = None,
        line_number: Optional[int] = None,
        line: Optional[str] = None,
    ) -> "RecordDecodeError":
        """A copy (same type, so subclasses like ``LogFormatError``
        survive enrichment) with missing provenance fields filled in."""
        return type(self)(
            self.reason,
            table=self.table if self.table is not None else table,
            day=self.day if self.day is not None else day,
            source=self.source if self.source is not None else source,
            line_number=(
                self.line_number if self.line_number is not None else line_number
            ),
            line=self.line if self.line is not None else line,
        )


class PartitionIntegrityError(RuntimeError):
    """A whole partition failed verification; names the partition and why."""

    def __init__(
        self, path: Path, kind: str, detail: str, *,
        table: Optional[str] = None, day: Optional[datetime.date] = None,
    ) -> None:
        self.path = Path(path)
        self.kind = kind
        self.detail = detail
        self.table = table
        self.day = day
        where = f"partition {self.path}"
        if table is not None and day is not None:
            where = f"partition {table}/{day.isoformat()}/{self.path.name}"
        super().__init__(f"{where}: {kind}: {detail}")


# ----------------------------------------------------------------------
# Partition manifests

#: Bumped when the sidecar layout changes.
MANIFEST_FORMAT = 1

#: Schema version recorded for lake partitions written by this code.
LAKE_SCHEMA_VERSION = 1

_HEADER_RE = re.compile(r"^#tstat-log v(\d+)")


@dataclass(frozen=True)
class PartitionManifest:
    """What a partition *should* contain: enough to verify it later.

    The CRC covers the payload lines only (comment and blank lines are
    skipped, exactly as readers skip them), so a harmless annotation does
    not invalidate a partition while any payload change does.
    """

    records: int
    crc32: int
    payload_bytes: int
    schema_version: int = LAKE_SCHEMA_VERSION
    #: "tsv" for v1 line partitions; "colchunk" for v2 column chunks.
    #: v2 manifests also carry the partition's zone map (min/max day,
    #: distinct key-column values, row count) so readers can prune
    #: partitions without opening the data file.
    container: str = "tsv"
    zone: Optional[dict] = None

    def to_json(self) -> str:
        payload = {
            "format": MANIFEST_FORMAT,
            "records": self.records,
            "crc32": self.crc32,
            "payload_bytes": self.payload_bytes,
            "schema_version": self.schema_version,
        }
        # v1 sidecars stay byte-identical to what they always were.
        if self.container != "tsv":
            payload["container"] = self.container
        if self.zone is not None:
            payload["zone"] = self.zone
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PartitionManifest":
        raw = json.loads(text)
        if raw.get("format") != MANIFEST_FORMAT:
            raise ValueError(f"unknown manifest format {raw.get('format')!r}")
        zone = raw.get("zone")
        if zone is not None and not isinstance(zone, dict):
            raise ValueError(f"malformed zone map {zone!r}")
        return cls(
            records=int(raw["records"]),
            crc32=int(raw["crc32"]),
            payload_bytes=int(raw["payload_bytes"]),
            schema_version=int(raw["schema_version"]),
            container=str(raw.get("container", "tsv")),
            zone=zone,
        )


def manifest_path_for(data_path: Path) -> Path:
    return data_path.with_name(data_path.name + ".manifest.json")


def write_manifest(data_path: Path, manifest: PartitionManifest) -> Path:
    """Atomically finalize a partition's sidecar manifest."""
    path = manifest_path_for(data_path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.part")
    return fsio.write_and_replace(
        path,
        (manifest.to_json() + "\n").encode("utf-8"),
        surface=fsio.SURFACE_MANIFEST,
        tmp=tmp,
    )


def load_manifest(data_path: Path) -> Optional[PartitionManifest]:
    """The sidecar manifest of a partition, or None when absent/unreadable."""
    path = manifest_path_for(data_path)
    try:
        return PartitionManifest.from_json(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (ValueError, KeyError, OSError) as exc:
        raise PartitionIntegrityError(
            data_path, "manifest", f"unreadable sidecar manifest: {exc!r}"
        ) from exc


class PayloadDigest:
    """Incrementally tracks what a :class:`PartitionManifest` records."""

    def __init__(self, schema_version: int = LAKE_SCHEMA_VERSION) -> None:
        self.records = 0
        self.payload_bytes = 0
        self.schema_version = schema_version
        self._crc = 0

    def add_line(self, line: str) -> None:
        """Fold one payload line (as written, with its newline) in."""
        encoded = line.encode("utf-8")
        self._crc = zlib.crc32(encoded, self._crc)
        self.records += 1
        self.payload_bytes += len(encoded)

    def manifest(self) -> PartitionManifest:
        return PartitionManifest(
            records=self.records,
            crc32=self._crc,
            payload_bytes=self.payload_bytes,
            schema_version=self.schema_version,
        )


def is_payload_line(line: str) -> bool:
    return not line.startswith("#") and bool(line.strip())


# ----------------------------------------------------------------------
# Lake layout: the one place that spells where a day lives and what its
# data files are called; every walker asks here.

#: v1 gzip-TSV lines — not legacy: a probe's ``FlowLogWriter`` export *is*
#: a v1 partition — and v2 column chunks (:mod:`repro.dataflow.columnar`).
TEXT_SUFFIX = ".tsv.gz"
CHUNK_SUFFIX = ".colchunk"
PARTITION_SUFFIXES = (TEXT_SUFFIX, CHUNK_SUFFIX)


def day_directory(root: Path, table: str, day: datetime.date) -> Path:
    return (
        Path(root)
        / table
        / f"year={day.year:04d}"
        / f"month={day.month:02d}"
        / f"day={day.day:02d}"
    )


def day_directories(root: Path, table: str) -> List[Tuple[datetime.date, Path]]:
    """Every day directory of a table, in calendar order (inverse of
    :func:`day_directory`; names that do not parse are not days)."""
    found: List[Tuple[datetime.date, Path]] = []
    for path in sorted((Path(root) / table).glob("year=*/month=*/day=*")):
        try:
            year, month, day = (
                int(part.name.split("=")[1])
                for part in (path.parent.parent, path.parent, path)
            )
            found.append((datetime.date(year, month, day), path))
        except (IndexError, ValueError):
            continue
    return found


def partition_suffix(path: Path) -> Optional[str]:
    """Which container a data file is, by name (None: not a partition)."""
    for suffix in PARTITION_SUFFIXES:
        if path.name.endswith(suffix):
            return suffix
    return None


def partition_source_name(path: Path) -> str:
    """The source stem of a partition file, either container suffix."""
    suffix = partition_suffix(path)
    return path.name[: -len(suffix)] if suffix else path.name


def partition_files(directory: Path) -> List[Path]:
    """Data files of one day directory, both containers, sorted."""
    if not directory.is_dir():
        return []
    return sorted(
        path
        for suffix in PARTITION_SUFFIXES
        for path in directory.glob(f"*{suffix}")
    )


# ----------------------------------------------------------------------
# Partition verification


@dataclass(frozen=True)
class PartitionCheck:
    """Outcome of verifying one partition against its manifest."""

    path: Path
    ok: bool
    kind: str = ""  # "" | "torn" | "checksum" | "count" | "schema" | "manifest"
    detail: str = ""


StructureCheck = Callable[[Path, Optional[PartitionManifest]], PartitionCheck]

#: Structural checkers of containers whose byte layout a layer above this
#: one owns, by file suffix — pushed down at import time, as the codec
#: providers are, so :func:`verify_partition` never imports upward.
_STRUCTURE_CHECKS: Dict[Optional[str], StructureCheck] = {}  # repro: noqa[RPR004] -- written once per container at import time, before any worker forks


def register_structure_check(suffix: str, check: StructureCheck) -> None:
    _STRUCTURE_CHECKS[suffix] = check


def verify_partition(
    path: Path, manifest: Optional[PartitionManifest] = None
) -> PartitionCheck:
    """Stream a partition once and compare it to its manifest.

    Detects torn gzip tails and bit flips (the gzip container fails to
    decode, or the payload CRC diverges), record-count mismatches
    (dropped/duplicated lines), and foreign schema headers (an embedded
    ``#tstat-log vN`` claiming a version the manifest does not).  A
    missing manifest downgrades verification to a readability check.

    This is the structural half of the partition walk — what a read or
    ``fsck`` does to a partition before (or without) decoding a record.
    v2 column chunks answer through the checker their owning module
    registered: magic, header, per-column CRCs, then the manifest's
    whole-file CRC/size/row count, with the same ``kind`` vocabulary.
    """
    if manifest is None:
        manifest = load_manifest(path)
    registered = _STRUCTURE_CHECKS.get(partition_suffix(path))
    if registered is not None:
        return registered(path, manifest)
    digest = PayloadDigest()
    declared_schema: Optional[int] = None
    try:
        with open_partition_text(path) as handle:
            for line in handle:
                header = _HEADER_RE.match(line)
                if header is not None:
                    declared_schema = int(header.group(1))
                if is_payload_line(line):
                    digest.add_line(line)
    except (OSError, EOFError, zlib.error, gzip.BadGzipFile) as exc:
        return PartitionCheck(
            path, ok=False, kind="torn",
            detail=f"unreadable partition (torn or bit-rotted): {exc!r}",
        )
    except UnicodeDecodeError as exc:
        return PartitionCheck(
            path, ok=False, kind="torn",
            detail=f"undecodable bytes (bit-rotted): {exc!r}",
        )
    if manifest is None:
        return PartitionCheck(path, ok=True, kind="manifest",
                              detail="no sidecar manifest (unverified)")
    computed = digest.manifest()
    if declared_schema is not None and declared_schema != manifest.schema_version:
        return PartitionCheck(
            path, ok=False, kind="schema",
            detail=(f"partition declares schema v{declared_schema}, "
                    f"manifest recorded v{manifest.schema_version}"),
        )
    if computed.records != manifest.records:
        return PartitionCheck(
            path, ok=False, kind="count",
            detail=(f"{computed.records} records on disk, "
                    f"manifest recorded {manifest.records}"),
        )
    if computed.crc32 != manifest.crc32:
        return PartitionCheck(
            path, ok=False, kind="checksum",
            detail=(f"payload CRC32 {computed.crc32:#010x} != "
                    f"recorded {manifest.crc32:#010x}"),
        )
    return PartitionCheck(path, ok=True)


def open_partition_text(path: Path) -> io.TextIOWrapper:
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, "r", encoding="utf-8")


# ----------------------------------------------------------------------
# Quarantine

QUARANTINE_DIR = "_quarantine"


class Quarantine:
    """Routes bad records (and bad partitions) aside with full provenance.

    Layout::

        <root>/<table>/day=YYYY-MM-DD/<source>.bad         one line per record
        <root>/<table>/day=YYYY-MM-DD/<source>.partition   whole-file failures

    Record lines are ``<line_number>\\t<reason>\\t<raw line>`` in read
    order.  A partition's bad lines are held until its walk ends and then
    published as one atomic write (:meth:`flush`), so a second pass over
    the same damage rewrites the same bytes instead of appending: same
    lake bytes, same policy ⇒ byte-identical quarantine trees, however
    many passes (asserted in tests).
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.records_quarantined = 0
        self.partitions_quarantined = 0
        self._pending: Dict[Path, List[str]] = {}

    def _path(
        self, table: str, day: datetime.date, source: str, suffix: str
    ) -> Path:
        return self.root / table / f"day={day.isoformat()}" / f"{source}.{suffix}"

    def _publish(self, path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fsio.write_and_replace(
            path, text.encode("utf-8"), surface=fsio.SURFACE_QUARANTINE
        )

    def record(
        self,
        table: str,
        day: datetime.date,
        source: str,
        line_number: int,
        line: str,
        reason: str,
    ) -> None:
        entry = f"{line_number}\t{reason}\t{line.rstrip(chr(10))}\n"
        self._pending.setdefault(
            self._path(table, day, source, "bad"), []
        ).append(entry)
        self.records_quarantined += 1
        telemetry.count("lake_quarantined_records", table=table)

    def flush(self, table: str, day: datetime.date, source: str) -> None:
        """Publish the bad lines recorded for one partition (if any)."""
        path = self._path(table, day, source, "bad")
        entries = self._pending.pop(path, None)
        if entries:
            self._publish(path, "".join(entries))

    def partition(
        self, table: str, day: datetime.date, source: str, reason: str
    ) -> None:
        self._publish(self._path(table, day, source, "partition"), reason + "\n")
        self.partitions_quarantined += 1
        telemetry.count("lake_quarantined_partitions", table=table)


# ----------------------------------------------------------------------
# Day quality and admission


@dataclass
class DayQualityReport:
    """How much of one day's data actually decoded, across all tables."""

    day: datetime.date
    decoded: int = 0
    quarantined: int = 0
    expected: int = 0  # sum of manifest record counts (0 when unmanifested)
    payload_bytes: int = 0
    partitions: int = 0
    failed_partitions: int = 0
    tables: List[str] = field(default_factory=list)

    @property
    def quality(self) -> float:
        """Fraction of the day's expected records that decoded cleanly.

        Against the manifests' expected totals when available (so a torn
        partition counts everything it *should* have held as lost),
        falling back to decoded/(decoded+quarantined) otherwise.  An
        empty, undamaged day is perfect by definition.
        """
        denominator = max(self.expected, self.decoded + self.quarantined)
        if denominator == 0:
            return 0.0 if self.failed_partitions else 1.0
        return self.decoded / denominator

    def degraded(self, min_quality: float) -> bool:
        return self.quality < min_quality

    def to_dict(self) -> dict:
        return {
            "day": self.day.isoformat(),
            "decoded": self.decoded,
            "quarantined": self.quarantined,
            "expected": self.expected,
            "payload_bytes": self.payload_bytes,
            "partitions": self.partitions,
            "failed_partitions": self.failed_partitions,
            "quality": round(self.quality, 6),
            "tables": sorted(set(self.tables)),
        }


class DayAdmission:
    """The quality gate: which degraded days enter the study calendar.

    Days whose :class:`DayQualityReport` falls below ``min_quality`` are
    excluded from the merged study — the same hole the analytics already
    tolerate for probe outages — and recorded for the run manifest.
    """

    def __init__(self, min_quality: float = 0.999) -> None:
        if not 0.0 <= min_quality <= 1.0:
            raise ValueError("min_quality must be within [0, 1]")
        self.min_quality = min_quality
        self.reports: List[DayQualityReport] = []
        self.excluded: List[datetime.date] = []

    def admit(self, report: DayQualityReport) -> bool:
        self.reports.append(report)
        if report.degraded(self.min_quality):
            self.excluded.append(report.day)
            telemetry.count("lake_days_excluded")
            return False
        return True

    def quality_dicts(self) -> List[dict]:
        return [report.to_dict() for report in self.reports]


class QualityLedger:
    """Accumulates per-day read statistics as lake partitions stream."""

    def __init__(self) -> None:
        self._reports: Dict[datetime.date, DayQualityReport] = {}

    def report_for(self, day: datetime.date) -> DayQualityReport:
        report = self._reports.get(day)
        if report is None:
            report = DayQualityReport(day=day)
            self._reports[day] = report
        return report

    def note_partition(
        self,
        table: str,
        day: datetime.date,
        manifest: Optional[PartitionManifest],
    ) -> None:
        report = self.report_for(day)
        report.partitions += 1
        report.tables.append(table)
        if manifest is not None:
            report.expected += manifest.records

    def note_decoded(
        self, day: datetime.date, payload_bytes: int, count: int = 1
    ) -> None:
        report = self.report_for(day)
        report.decoded += count
        report.payload_bytes += payload_bytes

    def note_quarantined(self, day: datetime.date) -> None:
        self.report_for(day).quarantined += 1

    def note_failed_partition(self, day: datetime.date) -> None:
        self.report_for(day).failed_partitions += 1

    def reports(self) -> List[DayQualityReport]:
        return [self._reports[day] for day in sorted(self._reports)]


@dataclass(frozen=True)
class IntegrityFinding:
    """One discovery of a partition walk: which partition, what class of
    damage.  Reads record them on their :class:`LakeIntegrity` context;
    ``fsck`` reports the ones its own read recorded."""

    table: str
    day: datetime.date
    source: str
    kind: str  # "torn" | "checksum" | "count" | "schema" | "record" | "manifest" | "litter"
    detail: str

    def render(self) -> str:
        return (
            f"{self.table}/{self.day.isoformat()}/{self.source}  "
            f"[{self.kind}] {self.detail}"
        )

    def to_dict(self) -> dict:
        return {
            "table": self.table,
            "day": self.day.isoformat(),
            "source": self.source,
            "kind": self.kind,
            "detail": self.detail,
        }


@dataclass
class LakeIntegrity:
    """How a lake read treats corruption: policy + sinks + bookkeeping.

    ``policy`` routes bad *records*; ``verify_checksums`` arms lazy
    per-partition manifest verification; partition-level failures follow
    the same policy (strict ⇒ :class:`PartitionIntegrityError`, otherwise
    the partition is quarantined/skipped whole and its manifest-expected
    records count as lost in the day's quality report).  Whatever the
    policy, every piece of damage routed here is first appended to
    ``findings`` — the one list a report of the walk can cite.
    """

    policy: str = POLICY_STRICT
    verify_checksums: bool = True
    quarantine: Optional[Quarantine] = None
    ledger: QualityLedger = field(default_factory=QualityLedger)
    findings: List[IntegrityFinding] = field(default_factory=list)

    def __post_init__(self) -> None:
        validate_policy(self.policy)

    @classmethod
    def for_lake_root(
        cls, root: Path, policy: str = POLICY_STRICT, verify: bool = True
    ) -> "LakeIntegrity":
        quarantine = (
            Quarantine(Path(root) / QUARANTINE_DIR)
            if policy == POLICY_QUARANTINE
            else None
        )
        return cls(policy=policy, verify_checksums=verify, quarantine=quarantine)

    # -- record-level routing ----------------------------------------------

    def bad_record(
        self,
        error: RecordDecodeError,
        *,
        table: str,
        day: datetime.date,
        source: str,
        line_number: int,
        line: str,
    ) -> None:
        """Route one undecodable line per policy (raises under strict)."""
        enriched = error.with_context(
            table=table, day=day, source=source,
            line_number=line_number, line=line,
        )
        self.findings.append(
            IntegrityFinding(
                table, day, source, "record",
                f"line {line_number}: {enriched.reason}",
            )
        )
        if self.policy == POLICY_STRICT:
            raise enriched
        self.ledger.note_quarantined(day)
        if self.quarantine is not None:
            self.quarantine.record(
                table, day, source, line_number, line, enriched.reason
            )
        else:
            telemetry.count("lake_skipped_records", table=table)

    # -- partition-level routing -------------------------------------------

    def bad_partition(
        self,
        check: PartitionCheck,
        *,
        table: str,
        day: datetime.date,
        source: str,
    ) -> None:
        """Route one failed partition per policy (raises under strict)."""
        self.findings.append(
            IntegrityFinding(table, day, source, check.kind, check.detail)
        )
        telemetry.count("lake_checksum_failures", table=table)
        if self.policy == POLICY_STRICT:
            raise PartitionIntegrityError(
                check.path, check.kind, check.detail, table=table, day=day
            )
        self.ledger.note_failed_partition(day)
        if self.quarantine is not None:
            self.quarantine.partition(
                table, day, source, f"{check.kind}: {check.detail}"
            )

    def end_partition(self, table: str, day: datetime.date, source: str) -> None:
        """The walk over one partition is over: publish its quarantine."""
        if self.quarantine is not None:
            self.quarantine.flush(table, day, source)


# ----------------------------------------------------------------------
# Deterministic corruption injection

CORRUPT_TRUNCATE = "truncate"  # cut the gzip tail: a torn copy
CORRUPT_BIT_FLIP = "bit_flip"  # flip one byte mid-stream: bit rot
CORRUPT_DROP_COLUMN = "drop_column"  # remove a field from every line: drift
CORRUPT_DUPLICATE_LINE = "duplicate_line"  # repeat a line: count mismatch
CORRUPT_FOREIGN_HEADER = "foreign_header"  # claim an alien schema version

_CORRUPTION_KINDS = frozenset(
    {
        CORRUPT_TRUNCATE,
        CORRUPT_BIT_FLIP,
        CORRUPT_DROP_COLUMN,
        CORRUPT_DUPLICATE_LINE,
        CORRUPT_FOREIGN_HEADER,
    }
)


@dataclass(frozen=True)
class CorruptionSpec:
    """One injected corruption: what happens to which partition."""

    table: str
    day: datetime.date
    kind: str
    source: str = "part-0"

    def __post_init__(self) -> None:
        if self.kind not in _CORRUPTION_KINDS:
            raise ValueError(f"unknown corruption kind {self.kind!r}")

    def to_dict(self) -> dict:
        """JSON form for chaos trial reports (DESIGN.md §17)."""
        return {
            "table": self.table,
            "day": self.day.isoformat(),
            "kind": self.kind,
            "source": self.source,
        }


@dataclass(frozen=True)
class CorruptionPlan:
    """A deterministic set of :class:`CorruptionSpec`\\ s to apply to a lake.

    In the style of :class:`~repro.core.faults.FaultPlan`: fully keyed
    (table, day, source, kind, seed), so applying the same plan to two
    identical lakes damages them byte-identically — which is what lets
    the determinism-under-corruption tests compare whole study runs.
    """

    specs: Tuple[CorruptionSpec, ...] = ()
    seed: int = 0

    @classmethod
    def of(cls, *specs: CorruptionSpec, seed: int = 0) -> "CorruptionPlan":
        return cls(specs=tuple(specs), seed=seed)

    def apply(self, lake_root: Path) -> List[Path]:
        """Damage the lake in place; returns the partitions touched."""
        touched: List[Path] = []
        for spec in self.specs:
            path = _partition_path(lake_root, spec)
            if not path.is_file():
                raise FileNotFoundError(
                    f"cannot corrupt missing partition {path}"
                )
            _apply_one(path, spec, self.seed)
            touched.append(path)
        return touched


def _partition_path(lake_root: Path, spec: CorruptionSpec) -> Path:
    directory = day_directory(lake_root, spec.table, spec.day)
    candidates = [
        directory / f"{spec.source}{suffix}" for suffix in PARTITION_SUFFIXES
    ]
    # apply() reports the first (v1) name when neither container exists
    return next((p for p in candidates if p.is_file()), candidates[0])


def _spec_offset(spec: CorruptionSpec, seed: int, span: int) -> int:
    """A deterministic offset in [0, span) keyed by the spec, not by RNG
    state shared across specs (plans must not be order-sensitive)."""
    key = f"{spec.table}|{spec.day.isoformat()}|{spec.source}|{spec.kind}|{seed}"
    return zlib.crc32(key.encode("utf-8")) % max(1, span)


def _apply_one(path: Path, spec: CorruptionSpec, seed: int) -> None:
    if spec.kind == CORRUPT_TRUNCATE:
        blob = path.read_bytes()
        keep = max(12, len(blob) * 3 // 5)  # past the container header, pre-tail
        path.write_bytes(blob[:keep])
        return
    if spec.kind == CORRUPT_BIT_FLIP:
        blob = bytearray(path.read_bytes())
        # Flip a byte inside the payload: after the 10-byte gzip header
        # (for chunks: past the magic), before the 8-byte gzip trailer.
        span = max(1, len(blob) - 18)
        offset = 10 + _spec_offset(spec, seed, span)
        blob[offset] ^= 0xFF
        path.write_bytes(bytes(blob))
        return
    if partition_suffix(path) == CHUNK_SUFFIX:
        raise ValueError(
            f"corruption kind {spec.kind!r} is line-oriented and does not "
            f"apply to binary chunk partition {path.name}"
        )
    lines = _read_lines(path)
    payload_indices = [
        index for index, line in enumerate(lines) if is_payload_line(line)
    ]
    if spec.kind == CORRUPT_FOREIGN_HEADER:
        lines.insert(0, "#tstat-log v99\n")
    elif spec.kind == CORRUPT_DUPLICATE_LINE and payload_indices:
        victim = payload_indices[
            _spec_offset(spec, seed, len(payload_indices))
        ]
        lines.insert(victim, lines[victim])
    elif spec.kind == CORRUPT_DROP_COLUMN:
        lines = [
            _drop_last_field(line) if is_payload_line(line) else line
            for line in lines
        ]
    _write_lines(path, lines)


def _drop_last_field(line: str) -> str:
    fields = line.rstrip("\n").split("\t")
    return "\t".join(fields[:-1]) + "\n"


def _read_lines(path: Path) -> List[str]:
    with open_partition_text(path) as handle:
        return handle.readlines()


def _write_lines(path: Path, lines: List[str]) -> None:
    # mtime=0 keeps the rewritten gzip byte-deterministic, matching the
    # lake's own writes.
    buffer = io.BytesIO()
    with gzip.GzipFile(filename="", mode="wb", fileobj=buffer, mtime=0) as gz:
        gz.write("".join(lines).encode("utf-8"))
    path.write_bytes(buffer.getvalue())


# ----------------------------------------------------------------------
# fsck


@dataclass
class FsckReport:
    """Everything ``repro fsck`` learned about a lake."""

    root: Path
    partitions_scanned: int = 0
    records_decoded: int = 0
    findings: List[IntegrityFinding] = field(default_factory=list)
    quarantined_records: int = 0
    quarantined_partitions: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def kinds(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.kind] = counts.get(finding.kind, 0) + 1
        return dict(sorted(counts.items()))

    def summary_lines(self) -> List[str]:
        lines = [
            f"fsck {self.root}: {self.partitions_scanned} partition(s), "
            f"{self.records_decoded} record(s) decoded",
        ]
        if self.clean:
            lines.append("clean: no integrity findings")
            return lines
        kinds = ", ".join(f"{kind}={n}" for kind, n in self.kinds().items())
        lines.append(f"{len(self.findings)} finding(s): {kinds}")
        lines.extend(finding.render() for finding in self.findings)
        if self.quarantined_records or self.quarantined_partitions:
            lines.append(
                f"quarantined: {self.quarantined_records} record(s), "
                f"{self.quarantined_partitions} partition(s)"
            )
        return lines

    def to_dict(self) -> dict:
        return {
            "root": str(self.root),
            "partitions_scanned": self.partitions_scanned,
            "records_decoded": self.records_decoded,
            "clean": self.clean,
            "kinds": self.kinds(),
            "findings": [finding.to_dict() for finding in self.findings],
            "quarantined_records": self.quarantined_records,
            "quarantined_partitions": self.quarantined_partitions,
        }


#: Providers of per-table record decoders, registered by the layers that
#: own the codecs (``dataflow.datalake`` for flow logs, ``core.persistence``
#: for the aggregate tables).  Integrity sits *beneath* those layers, so it
#: must not import them — they push their decoders down at import time.
_CODEC_PROVIDERS: List[Callable[[], Dict[str, object]]] = []  # repro: noqa[RPR004] -- append-only at import time, before any worker forks


def register_codec_provider(
    provider: Callable[[], Dict[str, object]]
) -> None:
    """Register a table→decoder mapping for :func:`default_codecs`.

    A decoder is a codec object — a :class:`~repro.dataflow.columnar.
    ColumnarCodec` decodes both containers (``decode`` for v1 lines,
    ``from_row`` for v2 chunk rows), a line-only codec just v1 — or a bare
    line callable, which :func:`fsck_lake` treats as a line-only codec.
    Later registrations win.
    """
    _CODEC_PROVIDERS.append(provider)


def default_codecs() -> Dict[str, object]:
    """Decoders fsck uses per table to surface bad *records* (not just bad
    partitions).  Unknown tables still get structural verification.  Only
    tables whose owning module has been imported are decodable — the CLI
    imports them all before scanning."""
    codecs: Dict[str, object] = {}
    for provider in _CODEC_PROVIDERS:
        codecs.update(provider())
    return codecs


def fsck_lake(
    lake,
    *,
    decode: bool = True,
    quarantine: bool = False,
    codecs: Optional[Dict[str, object]] = None,
) -> FsckReport:
    """Scan every partition of a lake and report integrity findings.

    ``fsck`` is a read: every stored day is drained through
    ``lake.read_day`` — the verify → decode → route walk a replay takes —
    under a verifying context that never raises, and the findings are the
    ones that context recorded.  Tables with a known codec are decoded so
    malformed records are named individually; ``decode=False`` (and a
    table with no registered codec) gets the structural walk only.
    ``quarantine=True`` routes damage into ``<root>/_quarantine/`` as a
    quarantine-policy read would; otherwise it is only counted.

    ``lake`` is any object with the :class:`~repro.dataflow.datalake.
    DataLake` surface (``root``, ``tables()``, ``days()``, ``read_day()``).
    """
    if codecs is None:
        codecs = default_codecs() if decode else {}
    context = LakeIntegrity.for_lake_root(
        lake.root, policy=POLICY_QUARANTINE if quarantine else POLICY_SKIP
    )
    report = FsckReport(root=Path(lake.root), findings=context.findings)
    for table in lake.tables():
        decoder = codecs.get(table) if decode else None
        if decoder is not None and not hasattr(decoder, "decode"):
            # a bare line callable: decodes v1 lines, no column schema
            decoder = SimpleNamespace(decode=decoder)
        # Litter scan walks the directory tree structurally rather than
        # via ``lake.days()``: a writer that died before its first rename
        # leaves a day dir holding *only* staging litter, which the
        # partition-based day enumeration deliberately skips.
        for stale_day, day_path in day_directories(lake.root, table):
            for stale in fsio.stale_staging_files(day_path):
                # A dead writer's staging file: invisible to reads (the
                # partition globs skip dot-prefixed names) but worth
                # surfacing — it marks an interrupted write whose final
                # rename never happened.
                report.findings.append(
                    IntegrityFinding(
                        table, stale_day, stale.name, "litter",
                        "staging file from an interrupted write "
                        "(crash between write and rename)",
                    )
                )
        for day in lake.days(table):
            partitions = lake.read_day(table, day, decoder, context)
            report.partitions_scanned += partitions.num_partitions
            telemetry.count(
                "fsck_partitions_scanned", partitions.num_partitions, table=table
            )
            report.records_decoded += partitions.count()  # drains the walk
    if context.quarantine is not None:
        report.quarantined_records = context.quarantine.records_quarantined
        report.quarantined_partitions = (
            context.quarantine.partitions_quarantined
        )
    return report


def quarantine_tree(root: Path) -> Dict[str, str]:
    """Relative path → content of a quarantine directory (for equality
    assertions: two deterministic runs must produce identical trees)."""
    root = Path(root)
    if not root.is_dir():
        return {}
    return {
        path.relative_to(root).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }

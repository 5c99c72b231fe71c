"""The data lake: day-partitioned long-term storage of probe exports.

"Daily, logs are copied into a long-term storage in a centralized data
center" (Section 2.2).  The layout is the conventional one for date-keyed
analytics at rest::

    <root>/<table>/year=YYYY/month=MM/day=DD/<probe>.tsv.gz

(v2 partitions are ``.colchunk`` column chunks; layout and suffixes are
spelled once, in :mod:`repro.dataflow.integrity`.)
Tables are typed through a :class:`LineCodec`; flow logs reuse the probe's
on-disk format so a file written by a probe can be dropped into the lake
unchanged — which is why the v1 container stays readable for good.  Reads
come back as lazy :class:`~repro.dataflow.engine.Dataset` partitions — one
partition per stored file — so stage-1 jobs stream; a v2 chunk arrives as
one block of rows (:meth:`~repro.dataflow.engine.Dataset.blocks`), still
the typed arrays it stores unless somebody iterates the records.

Every partition is finalized atomically (:mod:`repro.core.fsio`) and
carries a sidecar :class:`~repro.dataflow.integrity.PartitionManifest`
(CRC32 + record count + schema version), so torn copies and bit rot are
detectable.  A stored partition has **one walk**, :func:`_partition_source`
(sidecar → structural check → decode → route damage), shared by both
containers and drained by plain reads, ``run_replay`` and ``fsck`` alike.
Reads accept a :class:`~repro.dataflow.integrity.LakeIntegrity` that
verifies partitions lazily and routes damage per policy (``strict`` |
``quarantine`` | ``skip``); without one the walk is strict and unverified,
so a record that fails to decode — v1 line or v2 chunk row — surfaces as
the typed :class:`~repro.dataflow.integrity.RecordDecodeError` naming the
table, day, source file, and line (row) number.
"""

from __future__ import annotations

import datetime
import gzip
import io
import os
import pickle
import zlib
from pathlib import Path
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.core import fsio
from repro.dataflow.columnar import (
    Chunk,
    ColumnarCodec,
    ScanPredicate,
    encode_chunk,
)
from repro.dataflow.engine import Block, Dataset, PartitionSource
from repro.dataflow.integrity import (
    CHUNK_SUFFIX,
    TEXT_SUFFIX,
    IntegrityFinding,
    LakeIntegrity,
    PartitionCheck,
    PartitionIntegrityError,
    PartitionManifest,
    PayloadDigest,
    RecordDecodeError,
    day_directories,
    day_directory,
    is_payload_line,
    load_manifest,
    open_partition_text,
    partition_files,
    partition_source_name,
    partition_suffix,
    register_codec_provider,
    verify_partition,
    write_manifest,
)
from repro.telemetry import runtime as telemetry
from repro.tstat.flowbatch import FLOW_CODEC

T = TypeVar("T")

#: Lake write formats: v1 gzip-TSV lines, v2 column chunks + zone maps.
LAKE_FORMAT_V1 = "v1"
LAKE_FORMAT_V2 = "v2"
LAKE_FORMATS = (LAKE_FORMAT_V1, LAKE_FORMAT_V2)
_FORMAT_SUFFIX = MappingProxyType(
    {LAKE_FORMAT_V1: TEXT_SUFFIX, LAKE_FORMAT_V2: CHUNK_SUFFIX}
)


class LineCodec(Generic[T]):
    """Encodes/decodes one record per text line."""

    def __init__(
        self, encode: Callable[[T], str], decode: Callable[[str], T]
    ) -> None:
        self.encode = encode
        self.decode = decode


# Probe flow records (declared beside their batch type, importable from
# here as ever): make flow partitions (v1 lines and v2 chunks) decodable
# by `repro fsck`.
register_codec_provider(lambda: {"flows": FLOW_CODEC})


class DataLake:
    """A directory-rooted, day-partitioned record store.

    ``write_format`` selects the on-disk container for new partitions:
    ``"v1"`` (gzip-TSV lines, the historical default) or ``"v2"``
    (column chunks with zone-mapped manifests).  Reads are always
    format-agnostic — a lake may hold both containers side by side and
    :meth:`read_day`/:meth:`read_range` decode whichever is present.
    """

    def __init__(self, root: Path, write_format: str = LAKE_FORMAT_V1) -> None:
        if write_format not in LAKE_FORMATS:
            raise ValueError(
                f"unknown lake write format {write_format!r}; "
                f"choose from {LAKE_FORMATS}"
            )
        self.root = Path(root)
        self.write_format = write_format
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths ---------------------------------------------------------------

    def day_dir(self, table: str, day: datetime.date) -> Path:
        return day_directory(self.root, table, day)

    def partition_path(self, table: str, day: datetime.date, source: str) -> Path:
        """Where :meth:`write_day` puts ``source`` in this lake's format."""
        return self.day_dir(table, day) / f"{source}{_FORMAT_SUFFIX[self.write_format]}"

    # -- writes ---------------------------------------------------------------

    def write_day(
        self,
        table: str,
        day: datetime.date,
        records: Iterable[T],
        codec: LineCodec[T],
        source: str = "part-0",
    ) -> Path:
        """Write one source file into a day partition; returns its path.

        The data file is staged to a temp name and renamed into place
        (:func:`repro.core.fsio.write_and_replace`), then its sidecar manifest is finalized the same way — so a
        crash mid-write leaves either nothing, or a complete data file
        whose missing/stale manifest flags it as unverified.  The gzip
        header is written with ``mtime=0``: identical records produce
        byte-identical partitions.

        Under ``write_format="v2"`` the partition is a column chunk
        (requires a :class:`~repro.dataflow.columnar.ColumnarCodec`) and
        the manifest additionally carries the zone map.
        """
        path = self.partition_path(table, day, source)
        path.parent.mkdir(parents=True, exist_ok=True)
        if self.write_format == LAKE_FORMAT_V2:
            if not isinstance(codec, ColumnarCodec):
                raise TypeError(
                    f"table {table!r}: v2 chunk partitions need a "
                    f"ColumnarCodec, got {type(codec).__name__}"
                )
            payload, manifest = encode_chunk(records, codec, day)
        else:
            payload, manifest = _encode_lines(records, codec)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.part")
        fsio.write_and_replace(path, payload, surface=fsio.SURFACE_LAKE, tmp=tmp)
        write_manifest(path, manifest)
        telemetry.count("datalake_files_written", table=table)
        return path

    # -- reads ----------------------------------------------------------------

    def has_day(self, table: str, day: datetime.date) -> bool:
        return bool(partition_files(self.day_dir(table, day)))

    def days(self, table: str) -> List[datetime.date]:
        """Every day for which the table holds at least one file."""
        return [
            day
            for day, directory in day_directories(self.root, table)
            if partition_files(directory)
        ]

    def read_day(
        self,
        table: str,
        day: datetime.date,
        codec: LineCodec[T],
        integrity: Optional[LakeIntegrity] = None,
        where: Optional[ScanPredicate] = None,
    ) -> Dataset[T]:
        """The records of one day as a lazy dataset (one partition/file).

        With an ``integrity`` context, each partition is verified against
        its sidecar manifest at first iteration and undecodable records
        are routed per the context's policy; without one, reads are
        unverified and any decode failure raises a typed
        :class:`RecordDecodeError` naming the partition and line.

        With a ``where`` predicate (needs a :class:`ColumnarCodec`), the
        day's partitions are zone-map pruned (never opened) and the
        predicate is pushed into surviving partitions: v2 chunks decode
        only the columns the predicate needs (plus projected survivors),
        v1 text partitions filter record-by-record to the same result.
        """
        return Dataset(self._day_sources(table, day, codec, integrity, where)[0])

    def _day_sources(
        self,
        table: str,
        day: datetime.date,
        codec: LineCodec[T],
        integrity: Optional[LakeIntegrity],
        where: Optional[ScanPredicate],
    ) -> "tuple[List[PartitionSource], int]":
        """One day's partition sources and how many partitions were pruned:
        a partition whose zone map proves ``where`` cannot match gets no
        source, so it is never opened."""
        files = partition_files(self.day_dir(table, day))
        if not files:
            return [], 0
        if where is not None and not isinstance(codec, ColumnarCodec):
            raise TypeError(
                f"table {table!r}: predicate reads need a ColumnarCodec, "
                f"got {type(codec).__name__}"
            )
        sources = [
            _partition_source(path, codec, table, day, integrity, where)
            for path in files
            if where is None or where.matches_zone(_zone(path, day))
        ]
        pruned = len(files) - len(sources)
        if pruned:
            telemetry.count("lake_partitions_pruned", pruned, table=table)
        return sources, pruned

    def read_range(
        self,
        table: str,
        start: datetime.date,
        end: datetime.date,
        codec: LineCodec[T],
        integrity: Optional[LakeIntegrity] = None,
        where: Optional[ScanPredicate] = None,
    ) -> Dataset[T]:
        """Records of every stored day in [start, end] (missing days skip).

        A ``where`` predicate narrows the scan: days outside the
        predicate's day range are skipped outright, remaining partitions
        are zone-map pruned, and surviving partitions decode with the
        predicate pushed down (see :meth:`read_day`).  The
        ``lake_read_range`` span times this planning — listing, manifest
        loads, pruning — and its ``planned`` event records how effective
        pruning was.
        """
        with telemetry.span("lake_read_range", table=table, pushdown=where is not None):
            sources: List[PartitionSource] = []
            total = pruned = 0
            for day in self.days(table):
                if not start <= day <= end:
                    continue
                if where is not None and not where.admits_day(day):
                    skipped = len(partition_files(self.day_dir(table, day)))
                    total += skipped
                    pruned += skipped
                    if skipped:
                        telemetry.count("lake_partitions_pruned", skipped, table=table)
                    continue
                day_sources, day_pruned = self._day_sources(
                    table, day, codec, integrity, where
                )
                sources.extend(day_sources)
                total += len(day_sources) + day_pruned
                pruned += day_pruned
            telemetry.event("planned", partitions=total, pruned=pruned)
        return Dataset(sources)

    def tables(self) -> List[str]:
        """Every data table in the lake (service dirs like ``_quarantine``
        are kept out of the namespace by their underscore prefix)."""
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and not entry.name.startswith("_")
        )


def _encode_lines(
    records: Iterable[T], codec: LineCodec[T]
) -> Tuple[bytes, PartitionManifest]:
    """Serialize records into v1 gzip-TSV bytes plus their manifest."""
    digest = PayloadDigest()
    buffer = io.BytesIO()
    gz = gzip.GzipFile(filename="", mode="wb", fileobj=buffer, mtime=0)
    with io.TextIOWrapper(gz, encoding="utf-8") as handle:
        for record in records:
            line = codec.encode(record) + "\n"
            handle.write(line)
            digest.add_line(line)
    return buffer.getvalue(), digest.manifest()


class _Walk:
    """One walk's line to its integrity context: the only place a decode
    failure is normalised and the only caller of the context's routing."""

    def __init__(
        self, route: LakeIntegrity, path: Path, table: str, day: datetime.date
    ) -> None:
        self.route = route
        self.path = path
        self.place = {
            "table": table, "day": day, "source": partition_source_name(path)
        }

    def decoded(self, payload_bytes: int, count: int) -> None:
        self.route.ledger.note_decoded(self.place["day"], payload_bytes, count)

    def undecodable(self, exc: Exception, number: int, raw: str) -> None:
        error = (
            exc
            if isinstance(exc, RecordDecodeError)
            else RecordDecodeError(f"undecodable record: {exc!r}")
        )
        self.route.bad_record(error, line_number=number, line=raw, **self.place)

    def failed(self, kind: str, detail: str) -> None:
        check = PartitionCheck(self.path, ok=False, kind=kind, detail=detail)
        self.route.bad_partition(check, **self.place)


def _text_records(
    path: Path, codec: LineCodec[T], where: Optional[ScanPredicate], walk: _Walk
) -> Iterator[T]:
    """The v1 part of the walk: gzip-TSV lines, one at a time."""
    decoded = payload_bytes = 0
    try:
        with open_partition_text(path) as handle:
            for line_number, line in enumerate(handle, start=1):
                if not is_payload_line(line):
                    continue
                try:
                    record = codec.decode(line)
                except Exception as exc:  # noqa: BLE001 — normalized by the walk
                    walk.undecodable(exc, line_number, line)
                    continue
                decoded += 1
                payload_bytes += len(line.encode("utf-8"))
                if where is not None and not where.matches_record(codec, record):
                    continue
                yield record
    finally:
        # one ledger call per partition, however the stream ended
        walk.decoded(payload_bytes, decoded)


def _chunk_records(
    chunk: Chunk, codec: LineCodec[T], where: Optional[ScanPredicate], walk: _Walk
) -> Iterator[Block[T]]:
    """The v2 part of the walk: one chunk's rows, ``where`` pushed down,
    handed to the dataset as one block — the chunk's own arrays whenever
    the codec can vouch for its rows without building them."""
    if not isinstance(codec, ColumnarCodec):
        return  # a line-only codec names no chunk rows: structural walk only
    scan = chunk.scan(codec, where)
    if scan.columns_skipped:
        telemetry.count(
            "lake_columns_skipped", scan.columns_skipped, table=walk.place["table"]
        )
    # Schema drift: a clean chunk has no failures; each row of a drifted
    # one is named by its stored row number.
    records, failures = scan.batch.decode()
    for position, exc, cells in failures:
        stored = position if scan.indices is None else int(scan.indices[position])
        walk.undecodable(exc, stored + 1, cells)
    # Every stored row that decodes counts, matched by ``where`` or not —
    # the ledger measures decode integrity — against the chunk's file size
    # (what its manifest records as payload bytes).
    walk.decoded(len(chunk.blob), scan.rows_total - len(failures))
    if records:
        yield Block(records)


#: What differs between the containers, by file suffix: how a partition is
#: opened, how its structure is checked against the manifest (a
#: ``PartitionCheck``, or ``PartitionIntegrityError`` raised), and how its
#: records are produced.  Everything else is :func:`_partition_source`.
_CONTAINERS = MappingProxyType(
    {
        TEXT_SUFFIX: (Path, verify_partition, _text_records),
        CHUNK_SUFFIX: (Chunk, Chunk.check, _chunk_records),
    }
)


def _zone(path: Path, day: datetime.date) -> Dict[str, Any]:
    """A partition's zone map from its sidecar.  Without one — or with a
    damaged one, which the read path judges — it is known only to hold
    ``day``."""
    try:
        manifest = load_manifest(path)
    except PartitionIntegrityError:
        manifest = None
    if manifest is not None and manifest.zone is not None:
        return manifest.zone
    return {"day_min": day.isoformat(), "day_max": day.isoformat()}


def _partition_source(
    path: Path,
    codec: Optional[LineCodec[T]],
    table: str,
    day: datetime.date,
    integrity: Optional[LakeIntegrity],
    where: Optional[ScanPredicate] = None,
) -> Callable[[], Iterator[T]]:
    """The one walk over a stored partition: sidecar → verify → decode →
    route.  Reads, replay and ``fsck`` all drain this.

    Under a verifying context no record and no block is produced before
    the partition's structural check has passed.  A partition that fails it,
    or whose stream tears mid-read, goes to the context whole; a record
    that does not decode goes to it alone.  Without a context the read is
    a strict one that neither consults the sidecar nor verifies.
    ``codec=None`` is the structural walk: nothing is decoded or yielded.
    """
    open_partition, check_structure, records_of = _CONTAINERS[
        partition_suffix(path)
    ]

    def read() -> Iterator[T]:
        telemetry.count("datalake_files_read")
        route = integrity or LakeIntegrity(verify_checksums=False)
        walk = _Walk(route, path, table, day)
        try:
            manifest = None
            if integrity is not None:
                try:
                    manifest = load_manifest(path)
                finally:
                    route.ledger.note_partition(table, day, manifest)
            opened = open_partition(path)
            if route.verify_checksums:
                check = check_structure(opened, manifest)
                if not check.ok:
                    raise PartitionIntegrityError(path, check.kind, check.detail)
                if check.kind:  # sound but unverifiable: no sidecar
                    route.findings.append(
                        IntegrityFinding(
                            kind=check.kind, detail=check.detail, **walk.place
                        )
                    )
            if codec is not None:
                yield from records_of(opened, codec, where, walk)
        except PartitionIntegrityError as exc:
            walk.failed(exc.kind, exc.detail)
        except (
            OSError, EOFError, zlib.error, gzip.BadGzipFile, UnicodeDecodeError
        ) as exc:
            # a stream-level failure (a torn tail reached without a prior
            # verification pass): the partition is bad, not its records
            if integrity is None and isinstance(exc, FileNotFoundError):
                raise  # a vanished file is not corruption
            walk.failed("torn", f"unreadable partition: {exc!r}")
        route.end_partition(**walk.place)

    return read


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable or keyed for a different run."""


#: Bumped whenever the checkpoint payload layout changes; older files
#: are rejected (and recomputed) instead of being misread.  v2 pickles
#: the payload separately and stores its CRC32 alongside, so truncation
#: and bit rot inside the payload are detected, not just torn envelopes;
#: v3 payloads hold stage-1's tables as column batches, not row objects;
#: v4 payloads hold each day's subscriber days as a table too; v5 holds
#: the flow tier's server addresses and RTT samples as tables; v6 holds
#: domain byte totals as a table, no weekly active sets, domain shares or
#: sidecar counts, and leaves empty tables out.
CHECKPOINT_VERSION = 6


#: What a record is written under and must be read back under:
#: ``(config hash, day, shard)``, the shard ``None`` for a whole day.
RecordKey = Tuple[str, datetime.date, Optional[Tuple[int, ...]]]


def write_record(path: Path, key: RecordKey, payload: Any, surface: str) -> int:
    """Publish ``payload`` at ``path`` as one keyed, checksummed record.

    The one on-disk envelope of a study partial (checkpoints and spill
    files alike): the payload is pickled separately and stored with its
    CRC32 beside ``key``, and the file is published atomically through
    :func:`repro.core.fsio.write_and_replace` on ``surface``.  Returns
    the pickled payload's byte count.
    """
    config_hash, day, shard = key
    payload_blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    record: Dict[str, Any] = {
        "version": CHECKPOINT_VERSION,
        "config_hash": config_hash,
        "day": day,
        "payload_blob": payload_blob,
        "crc": zlib.crc32(payload_blob),
    }
    if shard is not None:
        # Only sharded records carry the key: unsharded files stay
        # byte-compatible with pre-shard checkpoints.
        record["shard"] = tuple(shard)
    blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    fsio.write_and_replace(path, blob, surface=surface)
    return len(payload_blob)


def read_record(path: Path, key: RecordKey) -> Any:
    """The payload of the record at ``path`` (inverse of
    :func:`write_record`).

    Version, ``key`` and payload CRC32 are all verified *before* the
    payload is unpickled; a truncated, bit-rotted, renamed or foreign
    file raises :class:`CheckpointError`.
    """
    config_hash, day, shard = key
    try:
        record = pickle.loads(path.read_bytes())
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    except Exception as exc:
        raise CheckpointError(
            f"unreadable checkpoint {path}: {exc!r}"
        ) from exc
    if not isinstance(record, dict):
        raise CheckpointError(f"malformed checkpoint {path}")
    if record.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {record.get('version')!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    if record.get("config_hash") != config_hash:
        raise CheckpointError(
            f"checkpoint {path} belongs to config "
            f"{record.get('config_hash')!r}, not {config_hash!r}"
        )
    if record.get("day") != day:
        raise CheckpointError(
            f"checkpoint {path} holds {record.get('day')!r}, not {day}"
        )
    stored_shard = record.get("shard")
    wanted = tuple(shard) if shard is not None else None
    if (tuple(stored_shard) if stored_shard is not None else None) != wanted:
        raise CheckpointError(
            f"checkpoint {path} is keyed for shard {stored_shard!r}, "
            f"not {wanted!r}"
        )
    payload_blob = record.get("payload_blob")
    if not isinstance(payload_blob, bytes):
        raise CheckpointError(f"malformed checkpoint {path}: no payload")
    if zlib.crc32(payload_blob) != record.get("crc"):
        raise CheckpointError(
            f"checkpoint {path} failed CRC verification (truncated or "
            f"bit-rotted payload)"
        )
    try:
        return pickle.loads(payload_blob)
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint {path} payload does not unpickle: {exc!r}"
        ) from exc


class CheckpointStore:
    """Crash-safe per-day storage of partial results, keyed by config.

    The fault-tolerance tier of the lake (DESIGN.md §10): while the
    study runs, each completed day's packed partial is persisted under
    ``<root>/config=<config_hash>/day=<ISO>.ckpt``.  A killed run
    resumes by loading finished days and recomputing only the rest.

    Sharded runs (DESIGN.md §15) pass ``shard=(index, count)``, which
    keys both the filename — ``day=<ISO>.shard=<k>of<N>.ckpt`` — and the
    in-file header, so a killed N-shard run resumes *mid-day* and shard
    checkpoints can never be merged into a run with a different fan-out.
    Unsharded runs (``shard=None``) keep the exact legacy filenames and
    payload layout; pre-shard checkpoint files stay loadable.

    Resumes are trustworthy because every file is one
    :func:`write_record` record: keyed (the directory *and* the in-file
    header carry the config hash and the day, so a checkpoint written
    under another configuration, or renamed on disk, is rejected rather
    than silently merged), published atomically (a crash mid-write leaves
    the previous state or the complete new file), and CRC-verified before
    it is unpickled (a truncated or bit-rotted file raises
    :class:`CheckpointError`, which resume treats as "missing:
    recompute").
    """

    def __init__(self, root: Path, config_hash: str) -> None:
        self.root = Path(root)
        self.config_hash = config_hash
        self.directory = self.root / f"config={config_hash}"
        self.directory.mkdir(parents=True, exist_ok=True)
        # A writer that died between staging write and rename left a
        # `.day=...tmp` behind; sweeping here keeps torn-write litter
        # from accumulating across resumes (live writers are spared via
        # the embedded pid).
        swept = fsio.sweep_staging_files(self.directory)
        if swept:
            telemetry.count("checkpoint_litter_swept", len(swept))

    # -- paths ---------------------------------------------------------------

    def path_for(
        self,
        day: datetime.date,
        shard: Optional[Tuple[int, int]] = None,
    ) -> Path:
        if shard is None:
            return self.directory / f"day={day.isoformat()}.ckpt"
        index, count = shard
        return self.directory / (
            f"day={day.isoformat()}.shard={index}of{count}.ckpt"
        )

    @property
    def manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    # -- io ------------------------------------------------------------------

    def has(
        self,
        day: datetime.date,
        shard: Optional[Tuple[int, int]] = None,
    ) -> bool:
        return self.path_for(day, shard).is_file()

    def save(
        self,
        day: datetime.date,
        payload: Any,
        shard: Optional[Tuple[int, int]] = None,
    ) -> Path:
        """Persist one day's payload atomically; returns the final path."""
        path = self.path_for(day, shard)
        write_record(
            path, (self.config_hash, day, shard), payload, fsio.SURFACE_CHECKPOINT
        )
        telemetry.count("checkpoint_saves")
        return path

    def load(
        self,
        day: datetime.date,
        shard: Optional[Tuple[int, int]] = None,
    ) -> Any:
        """The payload checkpointed for ``day`` (and shard); raises
        CheckpointError when the file is corrupt or keyed for another
        config/day/shard."""
        try:
            payload = read_record(
                self.path_for(day, shard), (self.config_hash, day, shard)
            )
        except CheckpointError:
            telemetry.count("checkpoint_load_errors")
            raise
        telemetry.count("checkpoint_loads")
        return payload

    def days(self) -> List[datetime.date]:
        """Every day with an *unsharded* checkpoint on disk, sorted.

        Shard checkpoint names (``day=<ISO>.shard=...``) deliberately
        fail the ISO parse and are skipped: a day is only "done" for
        whole-day consumers when its unsharded partial exists.
        """
        found: List[datetime.date] = []
        for path in self.directory.glob("day=*.ckpt"):
            raw = path.name[len("day=") : -len(".ckpt")]
            try:
                found.append(datetime.date.fromisoformat(raw))
            except ValueError:
                continue
        return sorted(found)


def month_days(year: int, month: int) -> List[datetime.date]:
    """Every calendar day of a month (shared helper for analytics)."""
    day = datetime.date(year, month, 1)
    days = []
    while day.month == month:
        days.append(day)
        day += datetime.timedelta(days=1)
    return days

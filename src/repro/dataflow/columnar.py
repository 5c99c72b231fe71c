"""Lake v2: column-chunk partitions with zone maps and predicate pushdown.

The paper's platform re-queries five years of daily partitions for every
new analysis (Section 2.2); at that scale row-at-a-time gzip-TSV decoding
is the dominant cost of a historical query.  Lake v2 stores each
``(table, day)`` partition as one **column chunk**: NumPy-backed columns
(ints and floats packed little-endian, strings dictionary-encoded)
individually zlib-compressed behind a JSON header, plus a **zone map**
(min/max day, distinct values of designated key columns, row count) in
the partition's sidecar manifest.  Readers holding a
:class:`ScanPredicate` can then

* **prune partitions** whose zone map proves no row can match, without
  opening the data file at all, and
* **push the predicate down** into the chunk: decode only the predicate
  columns, compute the row mask, and decompress the remaining columns
  only when rows survive (skipping them entirely when none do).

v1 gzip-TSV partitions remain readable behind the same API — a
:class:`ColumnarCodec` is a drop-in :class:`~repro.dataflow.datalake.
LineCodec` (line ``encode``/``decode``) extended with a column schema
(``to_row``/``from_row``), so the same codec object serves both formats
and a predicate filters v1 rows to the identical result, just without
the decode savings.

Everything is byte-deterministic: fixed zlib level, no timestamps, dict
codes in first-appearance order — identical records produce identical
chunks (the lake invariant manifests rely on).
"""

from __future__ import annotations

import datetime
import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Generic,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.dataflow.integrity import (
    CHUNK_SUFFIX,
    PartitionCheck,
    PartitionIntegrityError,
    PartitionManifest,
    register_structure_check,
)

T = TypeVar("T")

#: Container tag recorded in v2 sidecar manifests.
CHUNK_CONTAINER = "colchunk"

#: First 8 bytes of every chunk file.
CHUNK_MAGIC = b"RPCOL2\x00\n"

#: Bumped when the chunk layout changes; readers reject newer chunks.
CHUNK_FORMAT = 2

#: Fixed compression level keeps chunk bytes deterministic.
_ZLIB_LEVEL = 6

COLUMN_KINDS = ("int", "float", "str", "date")

_KIND_DTYPE = MappingProxyType(
    {
        "int": np.dtype("<i8"),
        "float": np.dtype("<f8"),
        "str": np.dtype("<i4"),  # codes into the header dictionary
        "date": np.dtype("<i8"),  # proleptic ordinals
    }
)


@dataclass(frozen=True)
class ColumnSpec:
    """One typed column of a table's row schema."""

    name: str
    kind: str  # "int" | "float" | "str" | "date"

    def __post_init__(self) -> None:
        if self.kind not in COLUMN_KINDS:
            raise ValueError(f"unknown column kind {self.kind!r}")


class ColumnarCodec(Generic[T]):
    """A table codec usable by both lake formats.

    Carries the v1 line functions (``encode``/``decode``, making it a
    drop-in :class:`~repro.dataflow.datalake.LineCodec`) plus the column
    schema v2 needs: ``to_row`` flattens a record into a tuple of plain
    values matching ``columns`` (dates as :class:`datetime.date`, strings
    as ``str | None``), and ``from_row`` rebuilds the record.

    ``zone_columns`` names the string columns whose distinct values are
    recorded in the partition zone map; ``day_column`` names the date
    column used for the zone map's day range (``None`` when rows carry no
    date — the partition day stands in).
    """

    def __init__(
        self,
        *,
        encode: Callable[[T], str],
        decode: Callable[[str], T],
        columns: Sequence[ColumnSpec],
        to_row: Callable[[T], Tuple[Any, ...]],
        from_row: Callable[[Tuple[Any, ...]], T],
        zone_columns: Sequence[str] = (),
        day_column: Optional[str] = None,
    ) -> None:
        self.encode = encode
        self.decode = decode
        self.columns = tuple(columns)
        self.to_row = to_row
        self.from_row = from_row
        self.zone_columns = tuple(zone_columns)
        self.day_column = day_column
        self._index = {spec.name: i for i, spec in enumerate(self.columns)}
        for name in self.zone_columns:
            if self.column_kind(name) != "str":
                raise ValueError(f"zone column {name!r} must be a str column")
        if day_column is not None and self.column_kind(day_column) != "date":
            raise ValueError(f"day column {day_column!r} must be a date column")

    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no column {name!r} in {self.column_names()}") from None

    def column_kind(self, name: str) -> str:
        return self.columns[self.column_index(name)].kind

    def column_names(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self.columns)


# ----------------------------------------------------------------------
# Scan predicates and zone maps


@dataclass(frozen=True)
class ScanPredicate:
    """A conjunctive pushdown predicate: column∈values terms + a day range.

    ``equals`` maps column names to the admissible value sets; a record
    matches when every named column's value is in its set *and* (when a
    day range is set) its day column falls inside ``[day_start,
    day_end]``.  Zone maps answer the weaker question "could any row
    match?" — absent zone information never prunes.
    """

    equals: Tuple[Tuple[str, FrozenSet[Any]], ...] = ()
    day_start: Optional[datetime.date] = None
    day_end: Optional[datetime.date] = None

    @classmethod
    def of(
        cls,
        day_range: Optional[Tuple[datetime.date, datetime.date]] = None,
        **equals: Any,
    ) -> "ScanPredicate":
        """Build a predicate from keyword terms.

        A scalar value (including a string — strings are values here,
        never character collections) means ``column == value``; a
        list/tuple/set/frozenset means ``column ∈ values``.
        """
        terms = tuple(
            sorted(
                (
                    name,
                    frozenset(values)
                    if isinstance(values, (list, tuple, set, frozenset))
                    else frozenset((values,)),
                )
                for name, values in equals.items()
            )
        )
        start, end = day_range if day_range is not None else (None, None)
        return cls(equals=terms, day_start=start, day_end=end)

    def admits_day(self, day: datetime.date) -> bool:
        if self.day_start is not None and day < self.day_start:
            return False
        if self.day_end is not None and day > self.day_end:
            return False
        return True

    def matches_zone(self, zone: Optional[Mapping[str, Any]]) -> bool:
        """Whether a partition with this zone map could hold a match.

        Conservative by construction: missing zone maps and untracked
        columns return True (prune only on proof).
        """
        if zone is None:
            return True
        day_min = zone.get("day_min")
        day_max = zone.get("day_max")
        if self.day_end is not None and day_min is not None:
            if datetime.date.fromisoformat(day_min) > self.day_end:
                return False
        if self.day_start is not None and day_max is not None:
            if datetime.date.fromisoformat(day_max) < self.day_start:
                return False
        tracked = zone.get("columns", {})
        for name, values in self.equals:
            distinct = tracked.get(name)
            if distinct is not None and not values.intersection(distinct):
                return False
        return True

    def matches_record(self, codec: ColumnarCodec[T], record: T) -> bool:
        """Exact per-record evaluation (the v1 fallback path)."""
        row = codec.to_row(record)
        for name, values in self.equals:
            if row[codec.column_index(name)] not in values:
                return False
        if (
            (self.day_start is not None or self.day_end is not None)
            and codec.day_column is not None
        ):
            return self.admits_day(row[codec.column_index(codec.day_column)])
        return True


def zone_map(
    codec: ColumnarCodec[T],
    rows: Sequence[Tuple[Any, ...]],
    day: datetime.date,
) -> Dict[str, Any]:
    """The zone map recorded for one partition's sidecar manifest."""
    if codec.day_column is not None and rows:
        index = codec.column_index(codec.day_column)
        days = [row[index] for row in rows]
        day_min, day_max = min(days), max(days)
    else:
        day_min = day_max = day
    columns: Dict[str, List[str]] = {}
    for name in codec.zone_columns:
        index = codec.column_index(name)
        columns[name] = sorted(
            {row[index] for row in rows if row[index] is not None}
        )
    return {
        "day_min": day_min.isoformat(),
        "day_max": day_max.isoformat(),
        "rows": len(rows),
        "columns": columns,
    }


# ----------------------------------------------------------------------
# Chunk encoding


def _pack_column(
    spec: ColumnSpec, rows: Sequence[Tuple[Any, ...]], index: int
) -> Tuple[bytes, Optional[List[Optional[str]]]]:
    """Raw (uncompressed) little-endian bytes of one column + str dict."""
    if spec.kind == "str":
        values: List[Optional[str]] = []
        ids: Dict[Optional[str], int] = {}
        codes = np.empty(len(rows), dtype=_KIND_DTYPE["str"])
        for position, row in enumerate(rows):
            value = row[index]
            code = ids.get(value)
            if code is None:
                code = len(values)
                ids[value] = code
                values.append(value)
            codes[position] = code
        return codes.tobytes(), values
    if spec.kind == "date":
        ordinals = np.fromiter(
            (row[index].toordinal() for row in rows),
            dtype=_KIND_DTYPE["date"],
            count=len(rows),
        )
        return ordinals.tobytes(), None
    dtype = _KIND_DTYPE[spec.kind]
    column = np.fromiter(
        (row[index] for row in rows), dtype=dtype, count=len(rows)
    )
    return column.tobytes(), None


def encode_chunk(
    records: Iterable[T],
    codec: ColumnarCodec[T],
    day: datetime.date,
    schema_version: int = 1,
) -> Tuple[bytes, PartitionManifest]:
    """Serialize records into chunk bytes plus their sidecar manifest."""
    rows = [codec.to_row(record) for record in records]
    blobs: List[bytes] = []
    column_meta: List[Dict[str, Any]] = []
    offset = 0
    for index, spec in enumerate(codec.columns):
        raw, dictionary = _pack_column(spec, rows, index)
        blob = zlib.compress(raw, _ZLIB_LEVEL)
        meta: Dict[str, Any] = {
            "name": spec.name,
            "kind": spec.kind,
            "offset": offset,
            "nbytes": len(blob),
            "crc32": zlib.crc32(raw),
        }
        if dictionary is not None:
            meta["values"] = dictionary
        column_meta.append(meta)
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps(
        {
            "format": CHUNK_FORMAT,
            "rows": len(rows),
            "schema_version": schema_version,
            "columns": column_meta,
        },
        sort_keys=True,
    ).encode("utf-8")
    payload = b"".join(
        [CHUNK_MAGIC, struct.pack("<I", len(header)), header, *blobs]
    )
    manifest = PartitionManifest(
        records=len(rows),
        crc32=zlib.crc32(payload),
        payload_bytes=len(payload),
        schema_version=schema_version,
        container=CHUNK_CONTAINER,
        zone=zone_map(codec, rows, day),
    )
    return payload, manifest


# ----------------------------------------------------------------------
# Chunk decoding


def _chunk_error(path: Path, kind: str, detail: str) -> PartitionIntegrityError:
    return PartitionIntegrityError(Path(path), kind, detail)


def _parse_header(path: Path, blob: bytes) -> Tuple[Dict[str, Any], int]:
    """Validated chunk header + offset of the blob section."""
    if len(blob) < len(CHUNK_MAGIC) + 4:
        raise _chunk_error(path, "torn", f"chunk shorter than header: {len(blob)} bytes")
    if blob[: len(CHUNK_MAGIC)] != CHUNK_MAGIC:
        raise _chunk_error(path, "torn", "bad chunk magic (not a v2 partition)")
    (header_len,) = struct.unpack_from("<I", blob, len(CHUNK_MAGIC))
    body = len(CHUNK_MAGIC) + 4
    if len(blob) < body + header_len:
        raise _chunk_error(
            path, "torn", f"truncated chunk header ({len(blob)} bytes on disk)"
        )
    try:
        header = json.loads(blob[body : body + header_len].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise _chunk_error(path, "torn", f"undecodable chunk header: {exc!r}") from exc
    if not isinstance(header, dict) or header.get("format") != CHUNK_FORMAT:
        raise _chunk_error(
            path, "schema",
            f"unsupported chunk format {header.get('format')!r}"
            if isinstance(header, dict) else "malformed chunk header",
        )
    return header, body + header_len


def _decode_column(
    path: Path, blob: bytes, base: int, meta: Dict[str, Any], rows: int
) -> np.ndarray:
    """Decompress + CRC-check one column; returns its typed array."""
    kind = meta.get("kind")
    dtype = _KIND_DTYPE.get(kind)
    if dtype is None:
        raise _chunk_error(path, "schema", f"unknown column kind {kind!r}")
    start = base + int(meta["offset"])
    end = start + int(meta["nbytes"])
    if end > len(blob):
        raise _chunk_error(
            path, "torn",
            f"column {meta.get('name')!r} extends past end of file",
        )
    try:
        raw = zlib.decompress(blob[start:end])
    except zlib.error as exc:
        raise _chunk_error(
            path, "torn",
            f"column {meta.get('name')!r} fails to decompress: {exc!r}",
        ) from exc
    if zlib.crc32(raw) != int(meta["crc32"]):
        raise _chunk_error(
            path, "checksum",
            f"column {meta.get('name')!r} CRC32 mismatch (bit rot)",
        )
    if len(raw) != rows * dtype.itemsize:
        raise _chunk_error(
            path, "count",
            f"column {meta.get('name')!r} holds {len(raw) // dtype.itemsize} "
            f"values, header declares {rows} rows",
        )
    return np.frombuffer(raw, dtype=dtype)


@dataclass
class ChunkScan:
    """Result of scanning one chunk: the surviving rows' cells, column by
    column (``zip(*cells)`` are the row tuples ``from_row`` takes), plus
    pushdown bookkeeping.  :func:`read_chunk` fills in ``records``."""

    cells: List[List[Any]] = field(default_factory=list)
    records: List[Any] = field(default_factory=list)
    rows_total: int = 0
    rows_matched: int = 0
    columns_decoded: int = 0
    columns_skipped: int = 0
    #: 0-based stored positions of the surviving rows (None: every row).
    indices: Optional[np.ndarray] = None


class Chunk:
    """One chunk file, opened once: its bytes, its validated header, and
    every column inflated so far — which :meth:`check` and :meth:`scan`
    share, so the arrays the structural pass CRC-checked are the arrays
    the rows are built from.  Structural damage raises
    :class:`PartitionIntegrityError` with the ``kind`` vocabulary v1 uses
    (torn/checksum/count/schema).
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.blob = self.path.read_bytes()
        header, self._base = _parse_header(self.path, self.blob)
        self.rows = int(header.get("rows", -1))
        if self.rows < 0:
            raise _chunk_error(self.path, "schema", "chunk header lacks a row count")
        self._meta: Dict[str, Dict[str, Any]] = {
            str(meta.get("name")): meta for meta in header.get("columns", [])
        }
        self._decoded: Dict[str, np.ndarray] = {}

    def column(self, name: str) -> np.ndarray:
        array = self._decoded.get(name)
        if array is None:
            array = _decode_column(
                self.path, self.blob, self._base, self._meta[name], self.rows
            )
            self._decoded[name] = array
        return array

    def check(self, manifest: Optional[PartitionManifest]) -> PartitionCheck:
        """Structurally verify the chunk against its sidecar manifest.

        Inflates and CRC-checks every stored column, then compares the
        container tag, row count, byte count and whole-file CRC32 the
        manifest recorded; any mismatch raises.  As for v1, a missing
        manifest downgrades to a readability check.
        """
        for name in self._meta:
            self.column(name)
        if manifest is None:
            return PartitionCheck(
                self.path, ok=True, kind="manifest",
                detail="no sidecar manifest (unverified)",
            )
        if manifest.container != CHUNK_CONTAINER:
            raise _chunk_error(
                self.path, "schema",
                f"manifest records container {manifest.container!r} "
                f"for a {CHUNK_CONTAINER!r} partition",
            )
        if self.rows != manifest.records:
            raise _chunk_error(
                self.path, "count",
                f"{self.rows} rows on disk, manifest recorded {manifest.records}",
            )
        if len(self.blob) != manifest.payload_bytes:
            raise _chunk_error(
                self.path, "count",
                f"{len(self.blob)} bytes on disk, manifest recorded "
                f"{manifest.payload_bytes}",
            )
        crc = zlib.crc32(self.blob)
        if crc != manifest.crc32:
            raise _chunk_error(
                self.path, "checksum",
                f"chunk CRC32 {crc:#010x} != recorded {manifest.crc32:#010x}",
            )
        return PartitionCheck(self.path, ok=True)

    def scan(
        self, codec: ColumnarCodec[T], predicate: Optional[ScanPredicate] = None
    ) -> ChunkScan:
        """The cells of the rows ``predicate`` admits (all rows without one).

        Predicate columns are decoded first and reduced to a row mask; the
        remaining columns are decompressed only when at least one row
        survives (and their values gathered only at surviving indices).
        """
        path, rows = self.path, self.rows
        missing = [n for n in codec.column_names() if n not in self._meta]
        if missing:
            raise _chunk_error(
                path, "schema", f"chunk lacks expected column(s) {missing}"
            )
        scan = ChunkScan(rows_total=rows)

        mask: Optional[np.ndarray] = None
        if predicate is not None:
            mask = np.ones(rows, dtype=bool)
            for name, values in predicate.equals:
                kind = codec.column_kind(name)
                array = self.column(name)
                if kind == "str":
                    dictionary = self._meta[name].get("values", [])
                    allowed = [
                        code for code, value in enumerate(dictionary)
                        if value in values
                    ]
                    mask &= np.isin(array, np.array(allowed, dtype=array.dtype))
                elif kind == "date":
                    ordinals = np.array(
                        [value.toordinal() for value in values], dtype=array.dtype
                    )
                    mask &= np.isin(array, ordinals)
                else:
                    mask &= np.isin(array, np.array(sorted(values)))
            if (
                (predicate.day_start is not None or predicate.day_end is not None)
                and codec.day_column is not None
            ):
                array = self.column(codec.day_column)
                if predicate.day_start is not None:
                    mask &= array >= predicate.day_start.toordinal()
                if predicate.day_end is not None:
                    mask &= array <= predicate.day_end.toordinal()
        if mask is None or mask.any():
            indices = np.nonzero(mask)[0] if mask is not None else None
            scan.indices = indices
            scan.rows_matched = int(indices.size) if indices is not None else rows
            for spec in codec.columns:
                array = self.column(spec.name)
                if indices is not None:
                    array = array[indices]
                if spec.kind == "str":
                    dictionary = self._meta[spec.name].get("values", [])
                    try:
                        scan.cells.append(
                            [dictionary[code] for code in array.tolist()]
                        )
                    except IndexError:
                        raise _chunk_error(
                            path, "checksum",
                            f"column {spec.name!r} holds codes outside its "
                            f"dictionary",
                        ) from None
                elif spec.kind == "date":
                    scan.cells.append(
                        [datetime.date.fromordinal(o) for o in array.tolist()]
                    )
                else:
                    scan.cells.append(array.tolist())
        scan.columns_decoded = sum(
            name in self._decoded for name in codec.column_names()
        )
        scan.columns_skipped = len(codec.columns) - scan.columns_decoded
        return scan


def read_chunk(
    path: Path,
    codec: ColumnarCodec[T],
    predicate: Optional[ScanPredicate] = None,
) -> ChunkScan:
    """Decode one chunk, pushing ``predicate`` down into the columns."""
    scan = Chunk(path).scan(codec, predicate)
    scan.records = [codec.from_row(row) for row in zip(*scan.cells)]
    return scan


def verify_chunk(
    path: Path, manifest: Optional[PartitionManifest] = None
) -> PartitionCheck:
    """:func:`~repro.dataflow.integrity.verify_partition` for a chunk."""
    try:
        return Chunk(path).check(manifest)
    except PartitionIntegrityError as exc:
        return PartitionCheck(path, ok=False, kind=exc.kind, detail=exc.detail)
    except OSError as exc:
        return PartitionCheck(
            path, ok=False, kind="torn", detail=f"unreadable chunk: {exc!r}"
        )


register_structure_check(CHUNK_SUFFIX, verify_chunk)

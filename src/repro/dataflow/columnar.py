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

In memory a table's rows travel as those same typed arrays: a
:class:`ColumnBatch` is a codec plus one array per column in the chunk's
own encoding, and *is* a ``Sequence`` of the codec's records — a record
object is built only when somebody iterates or indexes it.  The generator
emits one, :func:`encode_chunk` compresses its arrays, :meth:`Chunk.scan`
hands one back, and stage-1 reduces its columns, so on the aggregate
tier's hot paths no row object exists (DESIGN.md §14).

Everything is byte-deterministic: fixed zlib level, no timestamps, dict
codes in first-appearance order — identical records produce identical
chunks (the lake invariant manifests rely on).
"""

from __future__ import annotations

import datetime
import json
import operator
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
    Iterator,
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
    """One typed column of a table's row schema.

    ``enum`` declares that the record holds a member of that
    :class:`enum.Enum` where the row (and the chunk) holds its ``value``.
    ``attr`` says where the record keeps the cell when that is not the
    attribute called ``name`` (a dotted path reaches into a nested object:
    ``"rtt.min_ms"``).  ``digits`` is the wire precision of a ``float``
    column whose v1 line prints that many decimals: a chunk stores the
    value rounded the same way (:func:`encode_chunk`), so either container
    reads back the same float; a batch in memory keeps full precision.
    """

    name: str
    kind: str  # "int" | "float" | "str" | "date"
    enum: Optional[type] = None
    attr: Optional[str] = None
    digits: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in COLUMN_KINDS:
            raise ValueError(f"unknown column kind {self.kind!r}")
        if self.enum is not None and self.kind != "str":
            raise ValueError(f"enum column {self.name!r} must be a str column")
        if self.digits is not None and self.kind != "float":
            raise ValueError(f"digits column {self.name!r} must be a float column")


class ColumnarCodec(Generic[T]):
    """A table codec usable by both lake formats.

    Carries the v1 line functions (``encode``/``decode``, making it a
    drop-in :class:`~repro.dataflow.datalake.LineCodec`) plus the column
    schema v2 needs: ``to_row`` flattens a record into a tuple of plain
    values matching ``columns`` (dates as :class:`datetime.date`, strings
    as ``str | None``), and ``from_row`` rebuilds the record.

    A codec **declares** its record — ``record=`` is called with the
    columns in order (the class itself when its constructor takes them so),
    an ``enum=`` column holding a member of that enum — and the row
    functions are derived.  That is what lets a :class:`ColumnBatch` prove
    "every row decodes" from its columns alone (:meth:`ColumnBatch.decode`).

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
        record: Callable[..., T],
        zone_columns: Sequence[str] = (),
        day_column: Optional[str] = None,
    ) -> None:
        self.encode = encode
        self.decode = decode
        self.columns = tuple(columns)
        self.record = record
        self.to_row, self.from_row = _derived_row_functions(record, self.columns)
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


def _derived_row_functions(
    record: Callable[..., T], columns: Tuple[ColumnSpec, ...]
) -> Tuple[Callable[[T], Tuple[Any, ...]], Callable[[Tuple[Any, ...]], T]]:
    """``to_row``/``from_row`` of a codec that declares its record."""
    if len(columns) < 2:
        raise ValueError("a declared record needs at least two columns")
    enums = [(i, spec.enum) for i, spec in enumerate(columns) if spec.enum]
    # one C-level call per record: attribute paths in, the row tuple out
    to_row = operator.attrgetter(
        *(
            (spec.attr or spec.name) + (".value" if spec.enum else "")
            for spec in columns
        )
    )

    def from_row(row: Tuple[Any, ...]) -> T:
        cells = list(row)
        for index, enum in enums:
            cells[index] = enum(cells[index])
        return record(*cells)

    return to_row, from_row


# ----------------------------------------------------------------------
# Column batches


def dictionary_codes(
    values: Iterable[Any], ids: Dict[Any, int]
) -> np.ndarray:
    """``values`` as ``str``-column codes into the dictionary ``ids`` is
    building — the one dictionary encoder.  A value gets the next code the
    first time it appears, so ``list(ids)`` is the dictionary in
    first-appearance order; handing the same ``ids`` to a second call
    carries the dictionary on."""
    return np.fromiter(
        (ids.setdefault(value, len(ids)) for value in values),
        dtype=_KIND_DTYPE["str"],
    )


def first_appearance_codes(
    codes: np.ndarray, dictionary: Sequence[Any]
) -> Tuple[np.ndarray, List[Any]]:
    """Codes into ``dictionary`` re-coded in first-appearance order, with
    the dictionary of just the values used: what :func:`dictionary_codes`
    would have built from the decoded values, without decoding any."""
    used, first = np.unique(codes, return_index=True)
    used = used[np.argsort(first, kind="stable")]
    rank = np.zeros(len(dictionary), dtype=codes.dtype)
    rank[used] = np.arange(used.size, dtype=codes.dtype)
    return rank[codes], [dictionary[code] for code in used.tolist()]


class ColumnBatch(Sequence[T]):
    """A table's rows as typed arrays — and, on demand, as records.

    ``columns`` holds one array per codec column in the chunk's own
    encoding: ``int``/``float`` values as they are, ``date`` values as
    proleptic ordinals, ``str`` values as ``<i4`` codes into
    ``dictionaries[name]`` (distinct values in any order, not all of them
    necessarily used).  Arrays are adopted, not copied, when they already
    have the column's dtype.  For a ``date`` column ``dictionaries`` may
    hold an ``{ordinal: date}`` mapping — the date objects to hand out for
    those ordinals: the generator names its day there, so what stage-1
    builds from its batch shares that one object as it did when the
    generator built the rows (pickled partials are byte-compared, and
    pickle tells a shared object from an equal one).

    The batch is a ``Sequence`` of the codec's records: ``len``,
    truthiness, iteration, indexing and ``==`` against any record sequence
    work, each record built through ``codec.from_row`` when asked for and
    never kept.  Consumers that can, read ``columns`` instead.
    """

    __slots__ = ("codec", "columns", "dictionaries", "_size")

    def __init__(
        self,
        codec: ColumnarCodec[T],
        columns: Mapping[str, np.ndarray],
        dictionaries: Mapping[str, Any],
    ) -> None:
        self.codec = codec
        self.columns: Dict[str, np.ndarray] = {
            spec.name: np.asarray(columns[spec.name], dtype=_KIND_DTYPE[spec.kind])
            for spec in codec.columns
        }
        self.dictionaries = dictionaries
        shapes = [array.shape for array in self.columns.values()]
        if any(len(shape) != 1 or shape != shapes[0] for shape in shapes):
            raise ValueError(f"columns of unequal or non-flat shape: {shapes}")
        (self._size,) = shapes[0]

    # -- rows -> columns ----------------------------------------------------

    @classmethod
    def from_rows(
        cls, rows: Iterable[Tuple[Any, ...]], codec: ColumnarCodec[T]
    ) -> "ColumnBatch[T]":
        """Row tuples (as ``to_row`` spells them) turned into columns: the
        one place rows become arrays.  Strings go through
        :func:`dictionary_codes`, so codes follow first appearance and
        every value is used."""
        cells: Sequence[Sequence[Any]] = list(zip(*rows)) or [()] * len(codec.columns)
        columns: Dict[str, np.ndarray] = {}
        dictionaries: Dict[str, List[Optional[str]]] = {}
        for spec, values in zip(codec.columns, cells):
            if spec.kind == "str":
                ids: Dict[Optional[str], int] = {}
                columns[spec.name] = dictionary_codes(values, ids)
                dictionaries[spec.name] = list(ids)
            else:
                if spec.kind == "date":
                    values = [value.toordinal() for value in values]
                columns[spec.name] = np.array(values, dtype=_KIND_DTYPE[spec.kind])
        return cls(codec, columns, dictionaries)

    @classmethod
    def of(cls, records: Iterable[T], codec: ColumnarCodec[T]) -> "ColumnBatch[T]":
        """``records`` as a batch of ``codec``: a batch passes through (its
        arrays adopted when a subclass of its type is asked for), anything
        else is flattened by ``to_row`` and turned into columns."""
        if isinstance(records, cls) and records.codec is codec:
            return records
        if isinstance(records, ColumnBatch) and records.codec is codec:
            return cls(codec, records.columns, records.dictionaries)
        return cls.from_rows(map(codec.to_row, records), codec)

    @classmethod
    def concat(
        cls, blocks: Iterable[Iterable[T]], codec: ColumnarCodec[T]
    ) -> "ColumnBatch[T]":
        """Blocks of records (batches or not) as one batch, in order; the
        blocks' string dictionaries are merged and their codes remapped."""
        batches = [cls.of(block, codec) for block in blocks]
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return cls.from_rows((), codec)
        columns: Dict[str, np.ndarray] = {}
        dictionaries: Dict[str, List[Optional[str]]] = {}
        for spec in codec.columns:
            arrays = [batch.columns[spec.name] for batch in batches]
            if spec.kind == "str":
                ids: Dict[Optional[str], int] = {}
                for index, batch in enumerate(batches):
                    remap = dictionary_codes(batch.dictionaries[spec.name], ids)
                    arrays[index] = remap[arrays[index]]
                dictionaries[spec.name] = list(ids)
            columns[spec.name] = np.concatenate(arrays)
        return cls(codec, columns, dictionaries)

    def take(self, indices: Any) -> "ColumnBatch[T]":
        """The rows at ``indices`` (any NumPy index), dictionaries shared."""
        return type(self)(
            self.codec,
            {name: array[indices] for name, array in self.columns.items()},
            self.dictionaries,
        )

    def equals(self, name: str, value: Optional[str]) -> np.ndarray:
        """Boolean column: the rows whose ``str`` column ``name`` holds
        ``value`` (for an ``enum`` column, a member's ``value``)."""
        codes = [
            code
            for code, held in enumerate(self.dictionaries[name])
            if held == value
        ]
        if len(codes) == 1:  # the usual case, and far cheaper than isin
            return self.columns[name] == codes[0]
        return np.isin(self.columns[name], codes)

    # -- columns -> rows, on demand -------------------------------------------

    def cell_decoder(self, name: str) -> Optional[Callable[[Any], Any]]:
        """Stored value -> row cell of one column (``None``: they are the
        same).  Raises ``ValueError``/``OverflowError`` on a stored value
        that has no cell: a code outside the dictionary, an ordinal outside
        :class:`datetime.date`'s range."""
        kind = self.codec.column_kind(name)
        if kind == "date":
            known = self.dictionaries.get(name, {})
            return lambda ordinal: (
                known.get(ordinal) or datetime.date.fromordinal(ordinal)
            )
        if kind != "str":
            return None
        dictionary = self.dictionaries[name]

        def lookup(code: int) -> Optional[str]:
            if not 0 <= code < len(dictionary):
                raise ValueError(
                    f"column {name!r} holds code {code} outside its "
                    f"{len(dictionary)}-value dictionary"
                )
            return dictionary[code]

        return lookup

    def _distinct_cells(self, name: str) -> Optional[Dict[Any, Any]]:
        """Stored value -> row cell for each distinct stored value of one
        column, every value converted once (``None``: they are the same)."""
        decoder = self.cell_decoder(name)
        if decoder is None:
            return None
        return {
            stored: decoder(stored)
            for stored in np.unique(self.columns[name]).tolist()
        }

    def cells(self) -> List[List[Any]]:
        """Column-major Python cells: ``zip(*cells)`` are the row tuples
        ``from_row`` takes."""
        cells: List[List[Any]] = []
        for name, array in self.columns.items():
            cell_of = self._distinct_cells(name)
            cells.append(
                array.tolist()
                if cell_of is None
                else [cell_of[stored] for stored in array.tolist()]
            )
        return cells

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[T]:
        return map(self.codec.from_row, zip(*self.cells()))

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return self.take(index)
        (record,) = self.take([range(self._size)[index]])
        return record

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    def __repr__(self) -> str:
        return f"ColumnBatch({self.codec.column_names()}, rows={self._size})"

    # -- integrity ---------------------------------------------------------------

    def decode(self) -> Tuple[Sequence[T], List[Tuple[int, Exception, str]]]:
        """The rows that are records, and the rows that are not.

        Returns ``(records, failures)``: ``failures`` lists ``(position,
        error, cells)`` for every row that cannot become a record — a
        stored value with no cell, an ``enum`` column holding a value its
        enum rejects — ``cells`` being the row tab-joined, standing in for
        the line a v1 partition has.

        Those are the only ways a row of a declared record can fail, so
        each distinct stored value is checked once and, when all pass,
        ``records`` is the batch itself: nothing was built.  Only when one
        fails is the batch walked row by row (:meth:`_decode_rows`) to name
        each bad row.
        """
        try:
            for spec in self.codec.columns:
                cell_of = self._distinct_cells(spec.name)
                if spec.enum is not None:
                    for cell in cell_of.values():
                        spec.enum(cell)
            return self, []
        except Exception:  # noqa: BLE001 — the row walk names each bad row
            return self._decode_rows()

    def _decode_rows(self) -> Tuple[List[T], List[Tuple[int, Exception, str]]]:
        decoders = [
            (index, decoder)
            for index, decoder in enumerate(map(self.cell_decoder, self.columns))
            if decoder is not None
        ]
        records: List[T] = []
        failures: List[Tuple[int, Exception, str]] = []
        stored_rows = zip(*(array.tolist() for array in self.columns.values()))
        for position, stored in enumerate(stored_rows):
            row, unconverted = list(stored), None
            for index, decoder in decoders:
                try:  # a cell that converts is shown converted
                    row[index] = decoder(row[index])
                except (ValueError, OverflowError) as exc:
                    unconverted = unconverted or exc
            try:
                if unconverted is not None:
                    raise unconverted
                records.append(self.codec.from_row(tuple(row)))
            except Exception as exc:  # noqa: BLE001 — the caller routes it
                failures.append((position, exc, "\t".join(map(str, row))))
        return records, failures

    # -- what a chunk stores -------------------------------------------------------

    def zone(self, day: datetime.date) -> Dict[str, Any]:
        """The zone map of these rows as one partition of ``day``."""
        codec = self.codec
        if codec.day_column is not None and self._size:
            ordinals = self.columns[codec.day_column]
            day_min = datetime.date.fromordinal(int(ordinals.min()))
            day_max = datetime.date.fromordinal(int(ordinals.max()))
        else:
            day_min = day_max = day
        columns: Dict[str, List[str]] = {}
        for name in codec.zone_columns:
            dictionary = self.dictionaries[name]
            used = [dictionary[code] for code in np.unique(self.columns[name]).tolist()]
            columns[name] = sorted(value for value in used if value is not None)
        return {
            "day_min": day_min.isoformat(),
            "day_max": day_max.isoformat(),
            "rows": self._size,
            "columns": columns,
        }

    def canonical_codes(self, name: str) -> Tuple[np.ndarray, List[Optional[str]]]:
        """A ``str`` column re-coded the one way a chunk stores it: codes in
        first-appearance order over the rows present, no unused value —
        the byte-determinism rule, whatever dictionary the batch carries."""
        return first_appearance_codes(self.columns[name], self.dictionaries[name])


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
    """The zone map recorded for one partition's sidecar manifest, from
    its row tuples (a batch answers :meth:`ColumnBatch.zone` itself)."""
    return ColumnBatch.from_rows(rows, codec).zone(day)


# ----------------------------------------------------------------------
# Chunk encoding


def encode_chunk(
    records: Iterable[T],
    codec: ColumnarCodec[T],
    day: datetime.date,
    schema_version: int = 1,
) -> Tuple[bytes, PartitionManifest]:
    """Serialize records into chunk bytes plus their sidecar manifest.

    ``records`` is normalised by :meth:`ColumnBatch.of`; a batch is
    compressed array by array, no row in between.
    """
    batch = ColumnBatch.of(records, codec)
    blobs: List[bytes] = []
    column_meta: List[Dict[str, Any]] = []
    offset = 0
    for spec in codec.columns:
        array, dictionary = batch.columns[spec.name], None
        if spec.kind == "str":
            array, dictionary = batch.canonical_codes(spec.name)
        elif spec.digits is not None:
            # round() and "%.<digits>f" round a float the same way, so the
            # chunk holds what the v1 line of the same record parses to
            array = np.array(
                [round(value, spec.digits) for value in array.tolist()],
                dtype=array.dtype,
            )
        raw = array.tobytes()
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
            "rows": len(batch),
            "schema_version": schema_version,
            "columns": column_meta,
        },
        sort_keys=True,
    ).encode("utf-8")
    payload = b"".join(
        [CHUNK_MAGIC, struct.pack("<I", len(header)), header, *blobs]
    )
    manifest = PartitionManifest(
        records=len(batch),
        crc32=zlib.crc32(payload),
        payload_bytes=len(payload),
        schema_version=schema_version,
        container=CHUNK_CONTAINER,
        zone=batch.zone(day),
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
    """Result of scanning one chunk: the surviving rows as a
    :class:`ColumnBatch` (not yet proven to decode — see
    :meth:`ColumnBatch.decode`), plus pushdown bookkeeping.
    :func:`read_chunk` fills in ``records``."""

    batch: ColumnBatch
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
        """The rows ``predicate`` admits (all rows without one), as a batch.

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
        indices: Optional[np.ndarray] = None
        if mask is not None and not mask.any():
            batch: ColumnBatch[T] = ColumnBatch.from_rows((), codec)
        else:
            batch = ColumnBatch(
                codec,
                {name: self.column(name) for name in codec.column_names()},
                {
                    spec.name: self._meta[spec.name].get("values", [])
                    for spec in codec.columns
                    if spec.kind == "str"
                },
            )
            if mask is not None:
                indices = np.nonzero(mask)[0]
                batch = batch.take(indices)
        decoded = sum(name in self._decoded for name in codec.column_names())
        return ChunkScan(
            batch=batch,
            rows_total=rows,
            rows_matched=len(batch),
            columns_decoded=decoded,
            columns_skipped=len(codec.columns) - decoded,
            indices=indices,
        )


def read_chunk(
    path: Path,
    codec: ColumnarCodec[T],
    predicate: Optional[ScanPredicate] = None,
) -> ChunkScan:
    """Decode one chunk, pushing ``predicate`` down into the columns."""
    scan = Chunk(path).scan(codec, predicate)
    scan.records = list(scan.batch)
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

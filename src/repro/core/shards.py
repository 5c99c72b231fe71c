"""Subscriber-range sharding of a study day (DESIGN.md §15).

A study day is always a list of N >= 1 range tasks, each covering a
disjoint, contiguous subscriber range; N = 1 is the whole day.  Sharding
is an *execution* parameter: every task replays the day's RNG streams at
full population width (see :meth:`TrafficGenerator.generate_day`) and
restricts only row emission and stage-1 analytics to its range, so the
fan-in of the tasks is bit-identical for any N and ``config_hash`` is
unaffected.

This module holds the shard plan, the :class:`ShardExtra` sidecar that
rides back with each shard's :class:`~repro.core.study.StudyData`
partial, and the disk-spill codec used when resident partials exceed the
memory watermark (a v2 column chunk of base64 pickle segments, so spill
files get the same torn/checksum/count detection as lake partitions).

Deliberately free of ``repro.core.study`` imports: study builds on the
types here, and ``merge_day_shards`` (the fan-in) lives in study.
"""

from __future__ import annotations

import base64
import datetime
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.dataflow.columnar import ColumnSpec, ColumnarCodec, read_chunk, write_chunk
from repro.dataflow.datalake import tsv_codec
from repro.synthesis.population import Technology

_SEGMENT_CHARS = 1 << 20  # base64 characters per spill chunk row

DEFAULT_SPILL_WATERMARK_BYTES = 256 * 1024 * 1024


def shard_key(index: int, count: int) -> Optional[Tuple[int, int]]:
    """``(index, count)`` of one shard of a split day; ``None`` for a whole day.

    The one place a one-shard plan is told apart from a split one.  A
    whole-day task is a range task like any other, but it keeps the
    pre-shard names and formats: its checkpoint file, manifest label and
    trace carry no shard suffix, and its worker runs the fan-in itself
    and ships the finished day partial.
    """
    return (index, count) if count > 1 else None


def task_label(day: datetime.date, index: int, count: int) -> str:
    """The one name of a (day, shard) task: ``YYYY-MM-DD`` or ``YYYY-MM-DD/k``.

    Manifest rows, error messages and dispatch all print this, so an
    operator can grep the manifest with the label an error names.
    """
    key = shard_key(index, count)
    return day.isoformat() + (f"/{key[0]}" if key else "")


def task_attrs(index: int, count: int) -> Tuple[Tuple[str, str], ...]:
    """Telemetry attributes naming the shard (none for a whole day)."""
    key = shard_key(index, count)
    return (("shard", str(key[0])),) if key else ()


@dataclass(frozen=True)
class ShardSpec:
    """One task's slice of the subscriber axis: ``[lo, hi)``."""

    index: int
    count: int
    lo: int
    hi: int

    @property
    def is_lead(self) -> bool:
        """Lead shard contributes the full-day fields every shard can
        derive identically (protocol rows, hourly volumes)."""
        return self.index == 0

    @property
    def key(self) -> Optional[Tuple[int, int]]:
        return shard_key(self.index, self.count)

    @property
    def label(self) -> str:
        return f"{self.index}of{self.count}"

    @property
    def bounds(self) -> Tuple[int, int]:
        return (self.lo, self.hi)


def plan_shards(population: int, count: int) -> Tuple[ShardSpec, ...]:
    """Split ``[0, population)`` into ``count`` contiguous ranges.

    The first ``population % count`` shards take one extra subscriber
    (``np.array_split`` semantics); shards beyond the population are
    empty but still planned, so checkpoints stay addressable.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if population < 0:
        raise ValueError(f"population must be >= 0, got {population}")
    base, extra = divmod(population, count)
    specs = []
    lo = 0
    for index in range(count):
        hi = lo + base + (1 if index < extra else 0)
        specs.append(ShardSpec(index=index, count=count, lo=lo, hi=hi))
        lo = hi
    return tuple(specs)


@dataclass
class ShardExtra:
    """Fan-in sidecar of one shard's day partial.

    Carries what the shard-local :class:`StudyData` cannot express:
    full-day positions for order-sensitive lists, per-technology active
    counts for the popularity denominator, raw (ip, service) pairs so
    the census can recompute cross-shard sharing, domain byte *totals*
    (shares only divide correctly over the merged day), and RTT samples
    tagged with their full-day flow positions.
    """

    day: datetime.date
    shard: ShardSpec
    processed: bool = False
    first_positions: Optional[np.ndarray] = None  # skeleton pos per SubscriberDay
    active_counts: Dict[Technology, int] = field(default_factory=dict)
    flow_stage: bool = False
    rtt_stage: bool = False
    pair_ips: Optional[np.ndarray] = None
    pair_codes: Optional[np.ndarray] = None
    pair_services: Tuple[str, ...] = ()
    domain_totals: Dict[str, Dict[str, int]] = field(default_factory=dict)
    rtt: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Spill-to-disk: v2 column chunks of pickled partials.


@dataclass(frozen=True)
class SpillSegment:
    """One base64 slice of a pickled shard partial."""

    day: datetime.date
    shard: int
    seq: int
    payload: str


_SPILL_LINES = tsv_codec(
    from_fields=lambda fields: SpillSegment(
        day=datetime.date.fromisoformat(fields[0]),
        shard=int(fields[1]),
        seq=int(fields[2]),
        payload=fields[3],
    ),
    to_fields=lambda seg: [
        seg.day.isoformat(),
        str(seg.shard),
        str(seg.seq),
        seg.payload,
    ],
)

SPILL_CODEC: ColumnarCodec[SpillSegment] = ColumnarCodec(
    encode=_SPILL_LINES.encode,
    decode=_SPILL_LINES.decode,
    columns=[
        ColumnSpec("day", "date"),
        ColumnSpec("shard", "int"),
        ColumnSpec("seq", "int"),
        ColumnSpec("payload", "str"),
    ],
    to_row=lambda seg: (seg.day, seg.shard, seg.seq, seg.payload),
    from_row=lambda row: SpillSegment(
        day=row[0], shard=row[1], seq=row[2], payload=row[3]
    ),
    day_column="day",
)


def spill_file_name(day: datetime.date, shard_index: int) -> str:
    return f"day={day.isoformat()}.shard={shard_index}.spill"


def spill_partial(
    path: Path, day: datetime.date, shard_index: int, payload: object
) -> int:
    """Pickle ``payload`` into a v2 column chunk at ``path``.

    Returns the pickled byte count (what the spill freed from memory).
    """
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    encoded = base64.b64encode(blob).decode("ascii")
    segments = [
        SpillSegment(
            day=day,
            shard=shard_index,
            seq=seq,
            payload=encoded[start : start + _SEGMENT_CHARS],
        )
        for seq, start in enumerate(range(0, len(encoded), _SEGMENT_CHARS))
    ] or [SpillSegment(day=day, shard=shard_index, seq=0, payload="")]
    path.parent.mkdir(parents=True, exist_ok=True)
    write_chunk(path, segments, SPILL_CODEC, day)
    return len(blob)


def load_spilled(path: Path) -> object:
    """Stream a spilled partial back from disk (inverse of spill)."""
    scan = read_chunk(path, SPILL_CODEC)
    segments = sorted(scan.records, key=lambda seg: seg.seq)
    encoded = "".join(seg.payload for seg in segments)
    return pickle.loads(base64.b64decode(encoded.encode("ascii")))

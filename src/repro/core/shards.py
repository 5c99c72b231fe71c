"""Subscriber-range sharding of a study day (DESIGN.md §15).

A study day is always a list of N >= 1 range tasks, each covering a
disjoint, contiguous run of whole subscriber blocks
(:data:`~repro.synthesis.world.SUBSCRIBER_BLOCK` subscribers each, the
last one possibly short); N = 1 is the whole day.  Every RNG stream is
keyed by block, so a task draws exactly its own blocks and the day is
the concatenation of all of them: the fan-in of the tasks is
bit-identical for any N and ``config_hash`` is unaffected.  Shards past
the last block are empty tasks.

This module holds the shard plan, the :class:`ShardExtra` sidecar that
rides back with each shard's :class:`~repro.core.study.StudyData`
partial, and the disk spill used when resident partials exceed the
memory watermark: a spill file is the checkpoint tier's keyed, CRC'd
record (:func:`~repro.dataflow.datalake.write_record`) under a namespace
of its own, so it is published atomically and verified before it is
unpickled exactly as a checkpoint is.

Deliberately free of ``repro.core.study`` imports: study builds on the
types here, and ``merge_day_shards`` (the fan-in) lives in study.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core import fsio
from repro.dataflow.datalake import CheckpointError, read_record, write_record
from repro.synthesis.population import Technology
from repro.synthesis.world import SUBSCRIBER_BLOCK

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
    def key(self) -> Optional[Tuple[int, int]]:
        return shard_key(self.index, self.count)

    @property
    def label(self) -> str:
        return f"{self.index}of{self.count}"

    @property
    def bounds(self) -> Tuple[int, int]:
        return (self.lo, self.hi)


def plan_shards(population: int, count: int) -> Tuple[ShardSpec, ...]:
    """Split ``[0, population)`` into ``count`` contiguous runs of blocks.

    The ``ceil(population / SUBSCRIBER_BLOCK)`` subscriber blocks are
    dealt out in near-equal contiguous runs (``np.array_split``
    semantics: the first ``blocks % count`` shards take one extra block);
    shards past the last block are empty but still planned, so
    checkpoints stay addressable.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if population < 0:
        raise ValueError(f"population must be >= 0, got {population}")
    base, extra = divmod(-(-population // SUBSCRIBER_BLOCK), count)
    specs = []
    first = 0
    for index in range(count):
        last = first + base + (1 if index < extra else 0)
        specs.append(
            ShardSpec(
                index=index,
                count=count,
                lo=min(first * SUBSCRIBER_BLOCK, population),
                hi=min(last * SUBSCRIBER_BLOCK, population),
            )
        )
        first = last
    return tuple(specs)


@dataclass
class ShardExtra:
    """Fan-in sidecar of one shard's day partial.

    Carries what the shard-local :class:`StudyData` cannot express:
    per-technology active counts for the popularity denominator, raw
    (ip, service) pairs so the census can recompute cross-shard sharing,
    and domain byte *totals* (shares only divide correctly over the
    merged day).
    """

    day: datetime.date
    shard: ShardSpec
    processed: bool = False
    active_counts: Dict[Technology, int] = field(default_factory=dict)
    flow_stage: bool = False
    pair_ips: Optional[np.ndarray] = None
    pair_codes: Optional[np.ndarray] = None
    pair_services: Tuple[str, ...] = ()
    domain_totals: Dict[str, Dict[str, int]] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Spill-to-disk: the checkpoint record under the spill namespace.

#: Stands where a checkpoint record carries its config hash, so a spill
#: file can never load as a checkpoint (or the reverse).
_SPILL_NAMESPACE = "spill"

#: A spill file is named for its task: ``...<ISO day>...<shard>.spill``.
_SPILL_NAME = re.compile(r"(\d{4}-\d{2}-\d{2})\D+(\d+)\.spill$")


def spill_file_name(day: datetime.date, shard_index: int) -> str:
    return f"day={day.isoformat()}.shard={shard_index}.spill"


def spill_partial(
    path: Path, day: datetime.date, shard_index: int, payload: object
) -> int:
    """Publish ``payload`` atomically at ``path`` as one spill record.

    Returns the pickled byte count (what the spill freed from memory).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    key = (_SPILL_NAMESPACE, day, (shard_index,))
    return write_record(path, key, payload, fsio.SURFACE_SPILL)


def load_spilled(path: Path) -> object:
    """Read a spilled partial back (inverse of :func:`spill_partial`).

    The record must be keyed for the (day, shard) the file is named for;
    a renamed, truncated or bit-rotted file raises
    :class:`~repro.dataflow.datalake.CheckpointError`.
    """
    named = _SPILL_NAME.search(path.name)
    if named is None:
        raise CheckpointError(f"{path} is not named for a (day, shard) task")
    day = datetime.date.fromisoformat(named.group(1))
    return read_record(path, (_SPILL_NAMESPACE, day, (int(named.group(2)),)))

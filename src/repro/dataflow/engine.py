"""A small Spark-like dataflow engine.

The paper processes 247 billion flow records on a Hadoop cluster running
Apache Spark (Section 2.2).  The analytics in this reproduction are written
against the same logical operations — lazy ``map``/``filter``/``flat_map``
pipelines over partitioned datasets, plus ``reduce_by_key`` /
``aggregate_by_key`` shuffles — provided by this module.  Execution is
single-process (our datasets fit one machine); the partitioned, lazy
structure is preserved so jobs stream instead of materializing
intermediates, which is what makes the two-stage methodology honest.

A partition source yields records — or, when it already holds many at
once, a whole :class:`Block` of them (the lake's column chunks do: one
block per chunk).  Every transformation and record action sees the
records of a block one by one, exactly as if the source had yielded them
singly; :meth:`Dataset.count` adds a block's length without looking inside
and :meth:`Dataset.blocks` hands the blocks over as they are.
"""

from __future__ import annotations

import heapq
import itertools
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.telemetry import runtime as telemetry

T = TypeVar("T")
U = TypeVar("U")
K = TypeVar("K", bound=Hashable)
V = TypeVar("V")
W = TypeVar("W")

PartitionSource = Callable[[], Iterator[T]]


class Block(Generic[T]):
    """Marks a whole sequence of records a partition source yields at once
    (records may themselves be sequences, so a block has to say it is one)."""

    __slots__ = ("records",)

    def __init__(self, records: Sequence[T]) -> None:
        self.records = records


def _records(source: PartitionSource) -> Iterator[T]:
    """One partition's records, its blocks opened: the block boundary."""
    for item in source():
        if isinstance(item, Block):
            yield from item.records
        else:
            yield item


class Dataset(Generic[T]):
    """A lazy, partitioned collection of records.

    Each partition may carry optional **stats** (an opaque per-partition
    summary such as a lake zone map); :meth:`prune` drops partitions
    whose stats prove they cannot contribute, without iterating them —
    the engine half of the lake's predicate pushdown.
    """

    def __init__(
        self,
        sources: List[PartitionSource],
        stats: Optional[List[Optional[Any]]] = None,
    ) -> None:
        self._sources = sources
        if stats is None:
            stats = [None] * len(sources)
        if len(stats) != len(sources):
            raise ValueError(
                f"{len(stats)} stats for {len(sources)} partitions"
            )
        self._stats = stats

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_iterable(cls, items: Iterable[T], partitions: int = 4) -> "Dataset[T]":
        """Materialize ``items`` into a fixed number of partitions."""
        if partitions <= 0:
            raise ValueError("partitions must be positive")
        buckets: List[List[T]] = [[] for _ in range(partitions)]
        for index, item in enumerate(items):
            buckets[index % partitions].append(item)
        return cls([_replay(bucket) for bucket in buckets])

    @classmethod
    def from_partitions(
        cls,
        sources: Iterable[PartitionSource],
        stats: Optional[Iterable[Optional[Any]]] = None,
    ) -> "Dataset[T]":
        """Build from partition generator callables (re-iterable)."""
        return cls(
            list(sources), list(stats) if stats is not None else None
        )

    @classmethod
    def empty(cls) -> "Dataset[T]":
        return cls([])

    # -- structure ---------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        return len(self._sources)

    def union(self, other: "Dataset[T]") -> "Dataset[T]":
        """Concatenate partitions of two datasets (no shuffle)."""
        return Dataset(
            self._sources + other._sources, self._stats + other._stats
        )

    def prune(self, keep: Callable[[Any], bool]) -> "Dataset[T]":
        """Drop partitions whose stats prove they cannot match.

        ``keep(stats)`` runs only for partitions that *have* stats;
        statless partitions always survive (prune on proof, never on
        absence).  Pruned partitions are never opened or iterated.
        """
        kept_sources: List[PartitionSource] = []
        kept_stats: List[Optional[Any]] = []
        pruned = 0
        for source, stat in zip(self._sources, self._stats):
            if stat is not None and not keep(stat):
                pruned += 1
                continue
            kept_sources.append(source)
            kept_stats.append(stat)
        if pruned:
            telemetry.count("dataflow_partitions_pruned", pruned)
        return Dataset(kept_sources, kept_stats)

    # -- narrow transformations (no shuffle) --------------------------------

    def map(self, fn: Callable[[T], U]) -> "Dataset[U]":
        return Dataset(
            [_mapped(source, fn) for source in self._sources]
        )

    def filter(self, predicate: Callable[[T], bool]) -> "Dataset[T]":
        return Dataset(
            [_filtered(source, predicate) for source in self._sources]
        )

    def flat_map(self, fn: Callable[[T], Iterable[U]]) -> "Dataset[U]":
        return Dataset(
            [_flat_mapped(source, fn) for source in self._sources]
        )

    def map_partitions(
        self, fn: Callable[[Iterator[T]], Iterator[U]]
    ) -> "Dataset[U]":
        return Dataset(
            [_partition_mapped(source, fn) for source in self._sources]
        )

    def key_by(self, fn: Callable[[T], K]) -> "Dataset[Tuple[K, T]]":
        return self.map(lambda item: (fn(item), item))

    def guard_partitions(
        self, handler: Callable[[int, Exception], bool]
    ) -> "Dataset[T]":
        """Contain partition-level failures instead of killing the job.

        When iterating a partition raises, ``handler(partition_index,
        exc)`` decides the outcome: ``True`` suppresses the rest of that
        partition (records and blocks already yielded stand — the lake's
        quarantine path uses this to drop a torn tail without losing the
        day), and ``False`` re-raises.  Transformations stacked *after* the guard
        run inside it; failures in earlier stages pass through untouched.
        """
        return Dataset(
            [
                _guarded(source, index, handler)
                for index, source in enumerate(self._sources)
            ]
        )

    # -- wide transformations (shuffle) --------------------------------------

    def reduce_by_key(
        self: "Dataset[Tuple[K, V]]", fn: Callable[[V, V], V]
    ) -> "Dataset[Tuple[K, V]]":
        """Combine values per key; combiners run per-partition first."""

        def build() -> Iterator[Tuple[K, V]]:
            table: Dict[K, V] = {}
            for source in self._sources:
                for key, value in _records(source):
                    if key in table:
                        table[key] = fn(table[key], value)
                    else:
                        table[key] = value
            return iter(list(table.items()))

        return Dataset([build])

    def aggregate_by_key(
        self: "Dataset[Tuple[K, V]]",
        zero: Callable[[], U],
        seq_fn: Callable[[U, V], U],
        comb_fn: Optional[Callable[[U, U], U]] = None,
    ) -> "Dataset[Tuple[K, U]]":
        """Fold values per key into an accumulator created by ``zero``."""

        def build() -> Iterator[Tuple[K, U]]:
            table: Dict[K, U] = {}
            for source in self._sources:
                for key, value in _records(source):
                    if key not in table:
                        table[key] = zero()
                    table[key] = seq_fn(table[key], value)
            return iter(list(table.items()))

        return Dataset([build])

    def group_by_key(
        self: "Dataset[Tuple[K, V]]",
    ) -> "Dataset[Tuple[K, List[V]]]":
        def append(acc: List[V], value: V) -> List[V]:
            acc.append(value)
            return acc

        return self.aggregate_by_key(list, append)

    def distinct(self) -> "Dataset[T]":
        def build() -> Iterator[T]:
            # First-seen order, not set order: output must not depend on
            # hash randomization (RPR006).
            seen = set()
            ordered: List[T] = []
            for source in self._sources:
                for item in _records(source):
                    if item not in seen:
                        seen.add(item)
                        ordered.append(item)
            return iter(ordered)

        return Dataset([build])

    def join(
        self: "Dataset[Tuple[K, V]]", other: "Dataset[Tuple[K, W]]"
    ) -> "Dataset[Tuple[K, Tuple[V, W]]]":
        """Inner hash join on key."""

        def build() -> Iterator[Tuple[K, Tuple[V, W]]]:
            left: Dict[K, List[V]] = {}
            for source in self._sources:
                for key, value in _records(source):
                    left.setdefault(key, []).append(value)
            results: List[Tuple[K, Tuple[V, W]]] = []
            for source in other._sources:
                for key, wvalue in _records(source):
                    for lvalue in left.get(key, ()):
                        results.append((key, (lvalue, wvalue)))
            return iter(results)

        return Dataset([build])

    # -- actions -------------------------------------------------------------

    def iterate(self) -> Iterator[T]:
        """Stream every record of every partition."""
        for source in self._sources:
            telemetry.count("dataflow_partitions_scanned")
            yield from _records(source)

    def blocks(self) -> Iterator[Sequence[T]]:
        """Stream the same records block-wise: every :class:`Block` a source
        yields as it is, the single records between two blocks as a list."""
        for source in self._sources:
            telemetry.count("dataflow_partitions_scanned")
            singles: List[T] = []
            for item in source():
                if not isinstance(item, Block):
                    singles.append(item)
                    continue
                if singles:
                    yield singles
                    singles = []
                yield item.records
            if singles:
                yield singles

    def collect(self) -> List[T]:
        return list(self.iterate())

    def count(self) -> int:
        total = 0
        for source in self._sources:
            telemetry.count("dataflow_partitions_scanned")
            for item in source():
                total += len(item.records) if isinstance(item, Block) else 1
        return total

    def take(self, count: int) -> List[T]:
        return list(itertools.islice(self.iterate(), count))

    def reduce(self, fn: Callable[[T, T], T]) -> T:
        iterator = self.iterate()
        try:
            accumulator = next(iterator)
        except StopIteration:
            raise ValueError("reduce of empty dataset") from None
        for item in iterator:
            accumulator = fn(accumulator, item)
        return accumulator

    def sum(self: "Dataset[Any]") -> Any:
        return sum(self.iterate())

    def top(self, count: int, key: Optional[Callable[[T], Any]] = None) -> List[T]:
        """Largest ``count`` records without materializing everything."""
        if key is None:
            return heapq.nlargest(count, self.iterate())
        return heapq.nlargest(count, self.iterate(), key=key)

    def count_by_key(self: "Dataset[Tuple[K, V]]") -> Dict[K, int]:
        counts: Dict[K, int] = {}
        for key, _ in self.iterate():
            counts[key] = counts.get(key, 0) + 1
        return counts

    def collect_as_map(self: "Dataset[Tuple[K, V]]") -> Dict[K, V]:
        """Collect key-value pairs; later pairs overwrite earlier ones."""
        return dict(self.iterate())


# Partition-closure helpers: defined at module level so each transformation
# captures exactly the variables it needs (late-binding-in-loop safe).


def _replay(bucket: List[T]) -> PartitionSource:
    return lambda: iter(bucket)


def _mapped(source: PartitionSource, fn: Callable[[T], U]) -> PartitionSource:
    return lambda: (fn(item) for item in _records(source))


def _filtered(
    source: PartitionSource, predicate: Callable[[T], bool]
) -> PartitionSource:
    return lambda: (item for item in _records(source) if predicate(item))


def _flat_mapped(
    source: PartitionSource, fn: Callable[[T], Iterable[U]]
) -> PartitionSource:
    def generate() -> Iterator[U]:
        for item in _records(source):
            yield from fn(item)

    return generate


def _partition_mapped(
    source: PartitionSource, fn: Callable[[Iterator[T]], Iterator[U]]
) -> PartitionSource:
    return lambda: fn(_records(source))


def _guarded(
    source: PartitionSource,
    index: int,
    handler: Callable[[int, Exception], bool],
) -> PartitionSource:
    def generate() -> Iterator[T]:
        iterator = source()
        while True:
            try:
                item = next(iterator)
            except StopIteration:
                return
            except Exception as exc:  # noqa: BLE001 — routed to the handler
                telemetry.count("dataflow_partitions_guarded")
                if handler(index, exc):
                    return
                raise
            yield item

    return generate

"""The lake's partitioned scan.

The paper processes 247 billion flow records on a Hadoop cluster running
Apache Spark (Section 2.2).  Here a read of the data lake is a
:class:`Dataset`: one lazy source per stored partition, run only when the
dataset is scanned and again on every scan, so readers stream instead of
materializing the lake.  The reduce-by-key that follows the scan is
columnar (:func:`~repro.analytics.activity.group_rows` and
``np.add.reduceat`` over the blocks' arrays), not a closure over records.

A partition source yields records — or, when it already holds many at
once, a whole :class:`Block` of them (the lake's column chunks do: one
block per chunk).  :meth:`Dataset.iterate` and :meth:`Dataset.collect`
open every block and hand its records out one by one, exactly as if the
source had yielded them singly; :meth:`Dataset.count` adds a block's
length without looking inside and :meth:`Dataset.blocks` hands the blocks
over as they are.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterator, List, Sequence, TypeVar

from repro.telemetry import runtime as telemetry

T = TypeVar("T")

PartitionSource = Callable[[], Iterator[T]]


class Block(Generic[T]):
    """Marks a whole sequence of records a partition source yields at once
    (records may themselves be sequences, so a block has to say it is one)."""

    __slots__ = ("records",)

    def __init__(self, records: Sequence[T]) -> None:
        self.records = records


class Dataset(Generic[T]):
    """A lazy, partitioned collection of records: one source per partition."""

    def __init__(self, sources: Sequence[PartitionSource]) -> None:
        self._sources = list(sources)

    @property
    def num_partitions(self) -> int:
        return len(self._sources)

    def iterate(self) -> Iterator[T]:
        """Stream every record of every partition, blocks opened."""
        for source in self._sources:
            telemetry.count("dataflow_partitions_scanned")
            for item in source():
                if isinstance(item, Block):
                    yield from item.records
                else:
                    yield item

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

"""Tests for the lake's partitioned scan: lazy, re-iterable partition sources."""

from repro.dataflow.engine import Block, Dataset


class TestConstruction:
    def test_empty(self):
        assert Dataset([]).collect() == []
        assert Dataset([]).count() == 0
        assert Dataset([]).num_partitions == 0

    def test_re_iterable(self):
        """Datasets must be re-playable (lazy sources, not generators)."""
        dataset = Dataset([lambda: iter([1, 2]), lambda: iter([3])])
        assert dataset.num_partitions == 2
        assert dataset.collect() == dataset.collect() == [1, 2, 3]


class TestActions:
    def test_count(self):
        assert Dataset([lambda: iter([1, 2]), lambda: iter([3, 4])]).count() == 4

    def test_scans_are_lazy(self):
        pulled = []

        def source():
            for record in (1, 2, 3):
                pulled.append(record)
                yield record

        dataset = Dataset([source])
        assert pulled == []  # nothing ran yet
        assert next(dataset.iterate()) == 1
        assert pulled == [1]  # streaming, not materializing


class TestBlocks:
    """A partition source may yield a whole block of records at once;
    records may be tuples themselves, hence the explicit marker."""

    FLAT = [(0, "a"), (1, "b"), (2, "c"), (3, "d"), (4, "e"), (5, "f"), (6, "g")]

    @staticmethod
    def blocky():
        def first():
            yield (0, "a")
            yield Block([(1, "b"), (2, "c"), (3, "d")])
            yield (4, "e")

        def second():
            yield Block(((5, "f"),))
            yield Block(())
            yield (6, "g")

        return Dataset([first, second])

    def test_records_are_seen_one_by_one(self):
        flat = Dataset([lambda: iter(self.FLAT)])
        for dataset in (self.blocky(), flat):
            assert dataset.collect() == self.FLAT
            assert list(dataset.iterate()) == self.FLAT
            assert dataset.count() == len(self.FLAT)

    def test_blocks_stream_blocks_and_gather_single_records(self):
        blocks = list(self.blocky().blocks())
        assert [list(block) for block in blocks] == [
            [(0, "a")],
            [(1, "b"), (2, "c"), (3, "d")],
            [(4, "e")],
            [(5, "f")],
            [],
            [(6, "g")],
        ]
        assert [record for block in blocks for record in block] == self.FLAT
        flat = Dataset([lambda: iter(self.FLAT)])
        assert list(flat.blocks()) == [self.FLAT]  # one list per record-only partition
        assert list(Dataset([]).blocks()) == []

"""Tests for the mini-Spark dataflow engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.engine import Block, Dataset

ints = st.lists(st.integers(min_value=-1000, max_value=1000), max_size=100)


class TestConstruction:
    def test_from_iterable_partitions(self):
        dataset = Dataset.from_iterable(range(10), partitions=3)
        assert dataset.num_partitions == 3
        assert sorted(dataset.collect()) == list(range(10))

    def test_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            Dataset.from_iterable([1], partitions=0)

    def test_empty(self):
        assert Dataset.empty().collect() == []
        assert Dataset.empty().count() == 0

    def test_re_iterable(self):
        """Datasets must be re-playable (lazy sources, not generators)."""
        dataset = Dataset.from_iterable([1, 2, 3])
        assert dataset.collect() == dataset.collect()


class TestNarrowTransforms:
    def test_map(self):
        assert sorted(Dataset.from_iterable([1, 2, 3]).map(lambda x: x * 2).collect()) == [2, 4, 6]

    def test_filter(self):
        result = Dataset.from_iterable(range(10)).filter(lambda x: x % 2 == 0)
        assert sorted(result.collect()) == [0, 2, 4, 6, 8]

    def test_flat_map(self):
        result = Dataset.from_iterable([1, 2]).flat_map(lambda x: [x] * x)
        assert sorted(result.collect()) == [1, 2, 2]

    def test_chaining_is_lazy(self):
        calls = []

        def spy(x):
            calls.append(x)
            return x

        dataset = Dataset.from_iterable([1, 2, 3]).map(spy)
        assert calls == []  # nothing ran yet
        dataset.take(1)
        assert len(calls) == 1  # streaming, not materializing

    def test_map_partitions(self):
        dataset = Dataset.from_iterable(range(8), partitions=2)
        sums = dataset.map_partitions(lambda items: iter([sum(items)])).collect()
        assert sum(sums) == sum(range(8))
        assert len(sums) == 2

    def test_key_by(self):
        pairs = Dataset.from_iterable(["aa", "b"]).key_by(len).collect()
        assert sorted(pairs) == [(1, "b"), (2, "aa")]

    def test_union(self):
        combined = Dataset.from_iterable([1]).union(Dataset.from_iterable([2]))
        assert sorted(combined.collect()) == [1, 2]


class TestWideTransforms:
    def test_reduce_by_key(self):
        pairs = [("a", 1), ("b", 2), ("a", 3)]
        result = Dataset.from_iterable(pairs).reduce_by_key(lambda x, y: x + y)
        assert dict(result.collect()) == {"a": 4, "b": 2}

    def test_aggregate_by_key(self):
        pairs = [("a", 1), ("a", 2), ("b", 5)]
        result = Dataset.from_iterable(pairs).aggregate_by_key(
            lambda: [], lambda acc, value: acc + [value]
        )
        collected = dict(result.collect())
        assert sorted(collected["a"]) == [1, 2]
        assert collected["b"] == [5]

    def test_group_by_key(self):
        pairs = [(1, "x"), (1, "y"), (2, "z")]
        grouped = dict(Dataset.from_iterable(pairs).group_by_key().collect())
        assert sorted(grouped[1]) == ["x", "y"]
        assert grouped[2] == ["z"]

    def test_distinct(self):
        result = Dataset.from_iterable([1, 2, 2, 3, 3, 3]).distinct()
        assert sorted(result.collect()) == [1, 2, 3]

    def test_join(self):
        left = Dataset.from_iterable([("a", 1), ("b", 2)])
        right = Dataset.from_iterable([("a", "x"), ("a", "y"), ("c", "z")])
        joined = left.join(right).collect()
        assert sorted(joined) == [("a", (1, "x")), ("a", (1, "y"))]

    @given(ints)
    @settings(max_examples=40, deadline=None)
    def test_reduce_by_key_matches_dict_fold(self, values):
        pairs = [(value % 5, value) for value in values]
        expected = {}
        for key, value in pairs:
            expected[key] = expected.get(key, 0) + value
        result = dict(
            Dataset.from_iterable(pairs, partitions=3)
            .reduce_by_key(lambda x, y: x + y)
            .collect()
        )
        assert result == expected


class TestActions:
    def test_count_and_sum(self):
        dataset = Dataset.from_iterable([1, 2, 3, 4])
        assert dataset.count() == 4
        assert dataset.sum() == 10

    def test_take(self):
        assert len(Dataset.from_iterable(range(100)).take(5)) == 5

    def test_reduce(self):
        assert Dataset.from_iterable([1, 2, 3]).reduce(lambda x, y: x + y) == 6

    def test_reduce_empty_raises(self):
        with pytest.raises(ValueError):
            Dataset.empty().reduce(lambda x, y: x)

    def test_top(self):
        assert Dataset.from_iterable([5, 1, 9, 3]).top(2) == [9, 5]
        assert Dataset.from_iterable(["aa", "bbbb", "c"]).top(1, key=len) == ["bbbb"]

    def test_count_by_key(self):
        pairs = [("a", 1), ("a", 2), ("b", 1)]
        assert Dataset.from_iterable(pairs).count_by_key() == {"a": 2, "b": 1}

    def test_collect_as_map(self):
        pairs = [("a", 1), ("a", 2)]
        assert Dataset.from_iterable(pairs, partitions=1).collect_as_map() == {"a": 2}

    @given(ints)
    @settings(max_examples=40, deadline=None)
    def test_pipeline_matches_list_comprehension(self, values):
        result = (
            Dataset.from_iterable(values, partitions=4)
            .map(lambda x: x * 3)
            .filter(lambda x: x > 0)
            .collect()
        )
        assert sorted(result) == sorted(x * 3 for x in values if x * 3 > 0)


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

        return Dataset.from_partitions([first, second])

    def test_records_are_seen_one_by_one(self):
        flat = Dataset.from_partitions([lambda: iter(self.FLAT)])
        for dataset in (self.blocky(), flat):
            assert dataset.collect() == self.FLAT
            assert dataset.count() == len(self.FLAT)
            assert dataset.take(3) == self.FLAT[:3]
            assert dataset.map(lambda pair: pair[0]).collect() == list(range(7))
            assert dataset.filter(lambda pair: pair[0] % 2).collect() == self.FLAT[1::2]
            assert dataset.flat_map(lambda pair: pair).count() == 14
            assert dataset.map_partitions(lambda items: iter([len(list(items))])).sum() == 7
            assert dataset.distinct().collect() == self.FLAT
            assert dataset.count_by_key() == {key: 1 for key in range(7)}
            assert dataset.reduce_by_key(max).collect_as_map() == dict(self.FLAT)
            assert dataset.join(dataset).count() == 7
            assert dataset.union(dataset).count() == 14

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
        flat = Dataset.from_partitions([lambda: iter(self.FLAT)])
        assert list(flat.blocks()) == [self.FLAT]  # one list per record-only partition
        assert list(Dataset.empty().blocks()) == []

    def test_guard_keeps_what_came_before_the_failure(self):
        def torn():
            yield (0, "a")
            yield Block([(1, "b"), (2, "c")])
            raise OSError("torn tail")

        seen = []

        def handler(index, exc):
            seen.append((index, type(exc)))
            return True

        guarded = Dataset.from_partitions([torn, lambda: iter([(9, "z")])])
        guarded = guarded.guard_partitions(handler)
        assert guarded.collect() == [(0, "a"), (1, "b"), (2, "c"), (9, "z")]
        assert guarded.count() == 4
        assert [list(block) for block in guarded.blocks()] == [
            [(0, "a")], [(1, "b"), (2, "c")], [(9, "z")],
        ]
        assert seen == [(0, OSError)] * 3
        with pytest.raises(OSError):
            Dataset.from_partitions([torn]).guard_partitions(lambda *_: False).count()

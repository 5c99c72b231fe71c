"""A day's stage-1 in one grouping, against the passes it replaced.

:func:`~repro.core.study.aggregate_usage_day` groups a day's usage rows by
subscriber day once, and every reduction reads each row's place in that
table; the fan-in hands a lone part's keyed tables through; a task shares
the empty tables it does not produce.  None of it may move a byte.  The
oracle below keeps the former stage-1 body (``subscriber_days``,
``daily_service_stats`` per technology, ``concat`` and the searchsorted
weekly visitor join; the weekly active sets it also stored are now read
off the subscriber days), the former grouping ``_summed`` and a fresh
empty table per field, and every pickled whole-day partial must be the
oracle's.
"""

import datetime
import pickle
from typing import Dict, Set, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analytics.activity import group_rows, subscriber_days
from repro.analytics.popularity import (
    SERVICE_STATS_CODEC,
    daily_service_stats,
    visit_rows,
)
from repro.core import study as study_module
from repro.core.config import COMPARISON_MONTHS, StudyConfig, small_study
from repro.core.parallel import DayTask, DaySuccess, _run_chunk, execute_study
from repro.core.persistence import ARCHIVE_CODECS, HOURLY_TABLE, PROTOCOL_TABLE
from repro.core.shards import plan_shards
from repro.core.study import (
    STUDY_TABLES,
    LongitudinalStudy,
    StudyData,
    aggregate_usage_day,
)
from repro.dataflow.columnar import ColumnBatch
from repro.dataflow.datalake import DataLake
from repro.services import catalog
from repro.services.thresholds import ActiveSubscriberCriterion, VisitClassifier
from repro.synthesis.flowgen import USAGE_CODEC, DailyUsage, DayPlan
from repro.synthesis.population import Technology
from repro.synthesis.world import WorldConfig
from tests.conftest import TEST_SEED
from tests.test_core_shards import fixture_config, multiblock_config, tiny_config
from tests.test_flow_tables import weekly_active

D = datetime.date

#: The conftest world's population, with the flow tier of ``small_study``.
CONFIG = StudyConfig(
    world=WorldConfig(seed=TEST_SEED, adsl_count=120, ftth_count=60),
    max_flows_per_usage=6,
)


# ----------------------------------------------------------------------
# The oracle: stage-1 and the fan-in as they were


def oracle_aggregate_usage_day(data, day, usage, criterion, classifier):
    usage = ColumnBatch.of(usage, USAGE_CODEC)
    day_rows = subscriber_days(usage, criterion)
    data.subscriber_days[day] = day_rows
    cells = [daily_service_stats(usage, day_rows, classifier, tech) for tech in Technology]
    data.service_stats = ColumnBatch.concat([data.service_stats, *cells], SERVICE_STATS_CODEC)
    if (day.year, day.month) in COMPARISON_MONTHS:
        iso_year, iso_week, _ = day.isocalendar()
        active = day_rows.columns["active"]
        technologies = [Technology(value) for value in day_rows.dictionaries["technology"]]
        active_by_id = dict(
            zip(
                day_rows.columns["subscriber_id"][active].tolist(),
                map(technologies.__getitem__, day_rows.columns["technology"][active].tolist()),
            )
        )
        if active_by_id:
            oracle_add_weekly_visitors(
                data.weekly_visitors, (iso_year, iso_week), usage, active_by_id, classifier
            )
    return day_rows


def oracle_add_weekly_visitors(
    weekly_visitors: Dict[Tuple[int, int, str, Technology], Set[int]],
    week: Tuple[int, int],
    usage: ColumnBatch,
    active_by_id: Dict[int, Technology],
    classifier: VisitClassifier,
) -> None:
    subscribers, service = usage.columns["subscriber_id"], usage.columns["service"]
    services = usage.dictionaries["service"]
    technologies = list(Technology)
    ids = np.fromiter(active_by_id, np.int64, len(active_by_id))
    id_technology = np.fromiter(
        map(technologies.index, active_by_id.values()), np.int64, ids.size
    )
    sorter = np.argsort(ids)
    slot = sorter[
        np.minimum(np.searchsorted(ids, subscribers, sorter=sorter), ids.size - 1)
    ]
    rows = np.nonzero((ids[slot] == subscribers) & visit_rows(usage, classifier))[0]
    key = service[rows] * len(technologies) + id_technology[slot[rows]]
    order, starts = group_rows(key)
    bounds = starts.tolist() + [order.size]
    for group in np.argsort(order[starts]).tolist():  # first-row order
        members = order[bounds[group] : bounds[group + 1]]
        code, technology = divmod(int(key[members[0]]), len(technologies))
        weekly_visitors.setdefault(
            (*week, services[code], technologies[technology]), set()
        ).update(subscribers[rows[members]].tolist())


def grouped_summed(tables, name, keys=None):
    """``_summed`` as it was: every call groups, a lone part too."""
    codec, keys = STUDY_TABLES[name][0], keys or STUDY_TABLES[name][1].keys
    table = ColumnBatch.concat(tables, codec)
    columns = table.columns
    order, starts = group_rows(
        *(
            table.value_ranks(key)[columns[key]] if codec.column_kind(key) == "str"
            else columns[key]
            for key in keys
        )
    )
    summed = {column: array[order[starts]] for column, array in columns.items()}
    for spec in codec.columns:
        if spec.kind == "int" and spec.name not in keys:
            summed[spec.name] = np.add.reduceat(columns[spec.name][order], starts)
    return ColumnBatch(codec, summed, table.dictionaries)


class FreshEmpties:
    """``EMPTY_TABLES`` as it was: a new empty table whenever one is asked for."""

    def __getitem__(self, name: str) -> ColumnBatch:
        return ColumnBatch.from_rows((), STUDY_TABLES[name][0])


def use_oracle(monkeypatch) -> None:
    monkeypatch.setattr(study_module, "aggregate_usage_day", oracle_aggregate_usage_day)
    monkeypatch.setattr(study_module, "_summed", grouped_summed)
    monkeypatch.setattr(study_module, "EMPTY_TABLES", FreshEmpties())


def whole_day_bytes(day: datetime.date, roles: Tuple[str, ...]) -> bytes:
    """The pickled partial a worker ships for one whole day."""
    (whole,) = plan_shards(CONFIG.world.adsl_count + CONFIG.world.ftth_count, 1)
    outcome = _run_chunk(
        DayTask(index=0, day=day, roles=roles, attempt=0, config=CONFIG, shard=whole)
    )
    assert isinstance(outcome, DaySuccess), outcome
    return pickle.dumps(outcome.partial, protocol=pickle.HIGHEST_PROTOCOL)


# ----------------------------------------------------------------------
# Whole-day partials, byte for byte


class TestWholeDayPartialsAreTheOracles:
    @pytest.mark.parametrize(
        "day, roles",
        [
            (D(2014, 4, 9), ("aggregate", "hourly")),  # comparison month
            (D(2017, 4, 15), ("aggregate", "flows", "hourly", "rtt")),
            (D(2016, 12, 25), ("aggregate",)),  # holiday
            (D(2014, 6, 5), ("aggregate",)),  # one PoP down
            (D(2015, 3, 10), ("aggregate", "flows")),
        ],
    )
    def test_pickled_partial(self, monkeypatch, day, roles):
        mine = whole_day_bytes(day, roles)
        with monkeypatch.context() as patched:
            use_oracle(patched)
            theirs = whole_day_bytes(day, roles)
        assert mine == theirs
        data = pickle.loads(mine).data
        assert len(data.service_stats) and data.subscriber_days[day]
        assert bool(weekly_active(data)) == ((day.year, day.month) in COMPARISON_MONTHS)
        assert bool(data.flow_days) == ("flows" in roles)

    def test_the_days_are_what_they_say(self):
        generator = LongitudinalStudy(CONFIG).generator
        assert DayPlan(generator, D(2014, 6, 5)).pop_up.tolist().count(False) == 1
        assert DayPlan(generator, D(2016, 12, 25)).services.boost.any()

    def test_empty_tables_are_left_as_they_were(self):
        """A run changes no shared empty table, and each pickles as a fresh one."""
        execute_study(tiny_config(), workers=1)
        for name, (codec, _) in STUDY_TABLES.items():
            shared = study_module.EMPTY_TABLES[name]
            assert pickle.dumps(shared) == pickle.dumps(ColumnBatch.from_rows((), codec))


# ----------------------------------------------------------------------
# Usage batches, byte for byte

DAYS = (D(2017, 4, 12), D(2015, 10, 7))  # inside a weekly-reach month, and not


def usage(day, subscriber_id, technology, service, down, up, flows, pop="pop1"):
    return DailyUsage(day, subscriber_id, technology, pop, service, down, up, flows)


def rows_of_one_day(day: datetime.date):
    return st.lists(
        st.builds(
            usage,
            day=st.just(day),
            subscriber_id=st.integers(0, 6),  # few ids: repeated (subscriber, service)
            technology=st.sampled_from(list(Technology)),
            service=st.sampled_from(
                [catalog.OTHER, catalog.FACEBOOK, catalog.WHATSAPP, "unlisted"]
            ),
            # straddle the activity criterion and the visit thresholds
            down=st.sampled_from([0, 9_999, 15_001, 199_000, 250_000]),
            up=st.sampled_from([0, 1_000, 5_001, 9_000]),
            flows=st.integers(8, 12),
            pop=st.sampled_from(["pop1", "pop2"]),
        ),
        max_size=40,
    )


BUSY = (250_000, 9_000, 12)  # active, and a visit to any service
TWO_TECHNOLOGIES = [
    usage(DAYS[0], 1, Technology.ADSL, catalog.FACEBOOK, *BUSY),
    usage(DAYS[0], 2, Technology.FTTH, catalog.OTHER, *BUSY),
    usage(DAYS[0], 1, Technology.FTTH, catalog.WHATSAPP, *BUSY),
    usage(DAYS[0], 2, Technology.ADSL, catalog.FACEBOOK, *BUSY),
]
ALL_INACTIVE = [
    usage(DAYS[0], 1, Technology.ADSL, catalog.FACEBOOK, 250_000, 1_000, 12),
    usage(DAYS[0], 2, Technology.FTTH, catalog.OTHER, 250_000, 9_000, 3),
]
ONE_TECHNOLOGY = [
    usage(DAYS[0], 3, Technology.FTTH, catalog.OTHER, *BUSY),
    usage(DAYS[0], 1, Technology.FTTH, catalog.FACEBOOK, 15_001, 5_001, 10),
    usage(DAYS[0], 3, Technology.FTTH, catalog.FACEBOOK, 9_999, 0, 1),
]


def as_generated(batch: ColumnBatch) -> ColumnBatch:
    """The batch with the generator's tuple dictionaries."""
    return ColumnBatch(
        USAGE_CODEC,
        batch.columns,
        {name: tuple(values) for name, values in batch.dictionaries.items()},
    )


class TestUsageBatchesAreTheOracles:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(*(rows_of_one_day(day) for day in DAYS)))
    @example(TWO_TECHNOLOGIES)
    @example(ALL_INACTIVE)
    @example(ONE_TECHNOLOGY)
    @example([])
    def test_pickled_study_data(self, rows):
        criterion, classifier = ActiveSubscriberCriterion(), VisitClassifier()
        day = rows[0].day if rows else DAYS[0]
        batch = ColumnBatch.of(rows, USAGE_CODEC)
        for given_usage in (batch, as_generated(batch)):
            mine, theirs = StudyData(), StudyData()
            aggregate_usage_day(mine, day, given_usage, criterion, classifier)
            oracle_aggregate_usage_day(theirs, day, given_usage, criterion, classifier)
            assert pickle.dumps(mine) == pickle.dumps(theirs)

    def test_examples_are_what_they_say(self):
        criterion = ActiveSubscriberCriterion()
        two = subscriber_days(TWO_TECHNOLOGIES, criterion)
        assert two.columns["active"].all() and len(two) == 2
        assert not subscriber_days(ALL_INACTIVE, criterion).columns["active"].any()
        data = StudyData()
        aggregate_usage_day(data, DAYS[0], ONE_TECHNOLOGY, criterion, VisitClassifier())
        assert data.service_stats.dictionaries["technology"] == [Technology.FTTH.value]


# ----------------------------------------------------------------------
# What the lone-part pass-through relies on

KEYED = [name for name, (_, fan_in) in STUDY_TABLES.items() if fan_in.keys]


def assert_one_row_per_key_in_key_order(table: ColumnBatch, name: str) -> None:
    grouped = grouped_summed([table], name)
    assert len(grouped) == len(table), name
    for column, values in grouped.columns.items():
        assert np.array_equal(table.columns[column], values), (name, column)
    assert list(grouped) == list(table), name


GOLDEN_CONFIGS = {
    **{f"tiny_config:{seed}": lambda seed=seed: tiny_config(seed) for seed in (7, 17, 23)},
    **{f"small_study:{seed}": lambda seed=seed: small_study(seed) for seed in (7, 17, 23)},
    "checkpoint_fixture:17": fixture_config,
    "multiblock:17": multiblock_config,
}


class TestLonePartsAreSummed:
    def test_keyed_tables_are_the_four(self):
        assert KEYED == ["service_stats", "protocol_rows", "hourly", "domain_bytes"]

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_every_part_of_every_golden_day(self, name):
        study = LongitudinalStudy(GOLDEN_CONFIGS[name]())
        population = len(study.world.population)
        counts = (1, 3) if name.startswith("multiblock") else (1,)
        plan = study.planned_days()
        for count in counts:
            for day in sorted(plan):
                for spec in plan_shards(population, count):
                    data, _ = study.day_shard_partial(day, plan[day], spec)
                    for table in KEYED:
                        assert_one_row_per_key_in_key_order(getattr(data, table), table)

    @pytest.mark.parametrize("write_format", ["v1", "v2"])
    def test_a_lake_days_single_partition(self, tmp_path, write_format):
        lake = DataLake(tmp_path, write_format=write_format)
        execute_study(tiny_config(), workers=1, lake=lake)
        for table, name in ((PROTOCOL_TABLE, "protocol_rows"), (HOURLY_TABLE, "hourly")):
            codec = ARCHIVE_CODECS[table]
            assert lake.days(table)
            for day in lake.days(table):
                (block,) = lake.read_day(table, day, codec).blocks()
                assert_one_row_per_key_in_key_order(ColumnBatch.of(block, codec), name)

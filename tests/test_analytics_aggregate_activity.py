"""Tests for stage-1 aggregation and the activity filter."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.activity import (
    SubscriberDay,
    activity_rate,
    active_subscribers_by_day,
    subscriber_days,
)
from repro.analytics.aggregate import (
    aggregate_protocols,
    aggregate_usage,
    classify_flow,
    subscriber_day_totals,
)
from repro.analytics.popularity import DailyServiceStats, daily_service_stats
from repro.core.study import StudyData, aggregate_usage_day
from repro.dataflow.columnar import ColumnBatch
from repro.dataflow.engine import Dataset
from repro.services import catalog
from repro.services.thresholds import ActiveSubscriberCriterion, VisitClassifier
from repro.synthesis.flowgen import USAGE_CODEC, DailyUsage
from repro.synthesis.population import Technology
from repro.tstat.flow import FlowRecord, NameSource, Transport, WebProtocol

DAY = datetime.date(2016, 9, 14)


def flow(client_id=1, name="www.youtube.com", protocol=WebProtocol.TLS, down=1000, up=100):
    return FlowRecord(
        client_id=client_id,
        server_ip=99,
        client_port=1,
        server_port=443,
        transport=Transport.TCP,
        ts_start=0.0,
        ts_end=1.0,
        bytes_down=down,
        bytes_up=up,
        protocol=protocol,
        server_name=name,
        name_source=NameSource.SNI if name else NameSource.NONE,
    )


def usage(subscriber_id=1, service=catalog.OTHER, down=1_000_000, up=100_000, flows=20,
          technology=Technology.ADSL, day=DAY):
    return DailyUsage(
        day=day,
        subscriber_id=subscriber_id,
        technology=technology,
        pop="pop1",
        service=service,
        bytes_down=down,
        bytes_up=up,
        flows=flows,
    )


class TestClassifyFlow:
    def test_by_domain(self, rules):
        assert classify_flow(flow(name="r1.googlevideo.com"), rules) == catalog.YOUTUBE

    def test_p2p_by_dpi_label(self, rules):
        record = flow(name=None, protocol=WebProtocol.P2P)
        assert classify_flow(record, rules) == catalog.PEER_TO_PEER

    def test_unknown_is_other(self, rules):
        assert classify_flow(flow(name="random.example"), rules) == catalog.OTHER
        assert classify_flow(flow(name=None), rules) == catalog.OTHER


class TestAggregateUsage:
    def test_groups_by_subscriber_and_service(self, rules):
        flows = Dataset.from_iterable(
            [
                flow(client_id=1, name="www.youtube.com", down=100),
                flow(client_id=1, name="r2.googlevideo.com", down=200),
                flow(client_id=1, name="www.netflix.com", down=50),
                flow(client_id=2, name="www.youtube.com", down=10),
            ]
        )
        rows = aggregate_usage(flows, rules, DAY).collect()
        by_key = {(row.subscriber_id, row.service): row for row in rows}
        youtube_row = by_key[(1, catalog.YOUTUBE)]
        assert youtube_row.bytes_down == 300
        assert youtube_row.flows == 2
        assert by_key[(1, catalog.NETFLIX)].bytes_down == 50
        assert by_key[(2, catalog.YOUTUBE)].bytes_down == 10

    def test_technology_metadata_applied(self, rules):
        flows = Dataset.from_iterable([flow(client_id=5)])
        rows = aggregate_usage(
            flows, rules, DAY, technologies={5: Technology.FTTH}, pops={5: "pop2"}
        ).collect()
        assert rows[0].technology is Technology.FTTH
        assert rows[0].pop == "pop2"

    def test_day_stamped(self, rules):
        rows = aggregate_usage(Dataset.from_iterable([flow()]), rules, DAY).collect()
        assert rows[0].day == DAY


class TestAggregateProtocols:
    def test_totals_by_service_and_protocol(self, rules):
        flows = Dataset.from_iterable(
            [
                flow(name="www.youtube.com", protocol=WebProtocol.QUIC, down=100, up=10),
                flow(name="r1.googlevideo.com", protocol=WebProtocol.QUIC, down=200, up=20),
                flow(name="www.youtube.com", protocol=WebProtocol.TLS, down=50, up=5),
            ]
        )
        rows = aggregate_protocols(flows, rules, DAY).collect()
        by_key = {(row.service, row.protocol): row.total_bytes for row in rows}
        assert by_key[(catalog.YOUTUBE, WebProtocol.QUIC)] == 330
        assert by_key[(catalog.YOUTUBE, WebProtocol.TLS)] == 55


class TestSubscriberDayTotals:
    def test_rollup(self):
        rows = Dataset.from_iterable(
            [
                usage(subscriber_id=1, service="A", down=10, up=1, flows=2),
                usage(subscriber_id=1, service="B", down=20, up=2, flows=3),
                usage(subscriber_id=2, service="A", down=5, up=5, flows=1),
            ]
        )
        totals = dict(subscriber_day_totals(rows).collect())
        assert totals[(DAY, 1)][:3] == (30, 3, 5)
        assert totals[(DAY, 2)][:3] == (5, 5, 1)


class TestActivity:
    def test_active_flag(self):
        rows = [
            usage(subscriber_id=1, down=1_000_000, up=100_000, flows=50),
            usage(subscriber_id=2, down=1_000, up=100, flows=2),  # background only
        ]
        days = subscriber_days(rows)
        flags = {entry.subscriber_id: entry.active for entry in days}
        assert flags == {1: True, 2: False}

    def test_multiple_services_summed_before_filter(self):
        rows = [
            usage(subscriber_id=1, service="A", down=10_000, up=3_000, flows=6),
            usage(subscriber_id=1, service="B", down=10_000, up=3_000, flows=6),
        ]
        days = subscriber_days(rows)
        assert days[0].active  # 20kB down, 6kB up, 12 flows in total

    def test_active_by_day_index(self):
        rows = [
            usage(subscriber_id=1),
            usage(subscriber_id=2, down=100, up=10, flows=1),
            usage(subscriber_id=3, day=DAY + datetime.timedelta(days=1)),
        ]
        active = active_subscribers_by_day(subscriber_days(rows))
        assert active[DAY] == {1}
        assert active[DAY + datetime.timedelta(days=1)] == {3}

    def test_activity_rate(self):
        rows = [
            usage(subscriber_id=1),
            usage(subscriber_id=2),
            usage(subscriber_id=3, down=100, up=10, flows=1),
        ]
        assert activity_rate(subscriber_days(rows)) == pytest.approx(2 / 3)
        assert activity_rate([]) == 0.0


class TestTiersAgree:
    def test_stage1_on_flow_tier_matches_aggregate_tier(self, world, generator, rules):
        """Expanding usage to flows and re-aggregating must return the
        same per-subscriber byte totals (flow counts are capped)."""
        day = datetime.date(2017, 3, 8)
        traffic = generator.generate_day(day)
        flows = generator.expand_flows(day, traffic)
        technologies = {
            sub.subscriber_id: sub.technology for sub in world.population.subscribers
        }
        regenerated = aggregate_usage(
            Dataset.from_iterable(flows, partitions=4), rules, day, technologies
        ).collect()

        def totals(rows):
            out = {}
            for row in rows:
                key = row.subscriber_id
                down, up = out.get(key, (0, 0))
                out[key] = (down + row.bytes_down, up + row.bytes_up)
            return out

        original = totals(traffic.usage)
        recovered = totals(regenerated)
        assert set(recovered) == set(original)
        for key in original:
            assert recovered[key] == original[key]


# ----------------------------------------------------------------------
# The stage-1 arithmetic is vectorised over column batches; the row loops
# it replaced live on here as the oracle it must agree with — values *and*
# order, down to dict-key and set insertion order, which the pickled day
# partials (and so the byte-compared checkpoints) depend on.


def oracle_subscriber_days(usage, criterion):
    totals = {}
    for row in usage:
        key = (row.day, row.subscriber_id)
        entry = totals.get(key)
        if entry is None:
            totals[key] = [row.technology, row.bytes_down, row.bytes_up, row.flows]
        else:
            entry[1] += row.bytes_down
            entry[2] += row.bytes_up
            entry[3] += row.flows
    return [
        SubscriberDay(
            day=day,
            subscriber_id=subscriber_id,
            technology=technology,
            bytes_down=down,
            bytes_up=up,
            flows=flows,
            active=criterion.is_active(flows, down, up),
        )
        for (day, subscriber_id), (technology, down, up, flows) in totals.items()
    ]


def oracle_daily_service_stats(usage, subscriber_days, classifier, technology):
    active = active_subscribers_by_day(
        entry
        for entry in subscriber_days
        if technology is None or entry.technology is technology
    )
    visitors, down, total, visitor_bytes = {}, {}, {}, {}
    for row in usage:
        if technology is not None and row.technology is not technology:
            continue
        if row.subscriber_id not in active.get(row.day, ()):
            continue
        key = (row.day, row.service)
        row_total = row.bytes_down + row.bytes_up
        down[key] = down.get(key, 0) + row.bytes_down
        total[key] = total.get(key, 0) + row_total
        if classifier.is_visit(row.service, row_total):
            visitors.setdefault(key, set()).add(row.subscriber_id)
            visitor_bytes[key] = visitor_bytes.get(key, 0) + row_total
    return [
        DailyServiceStats(
            day=key[0],
            service=key[1],
            visitors=len(visitors.get(key, ())),
            active_subscribers=len(active.get(key[0], ())),
            bytes_down=down[key],
            bytes_total=total[key],
            visitor_bytes=visitor_bytes.get(key, 0),
            technology=technology,
        )
        for key in sorted(total)
    ]


def oracle_weekly(day, usage, day_rows, classifier):
    iso_year, iso_week, _ = day.isocalendar()
    weekly_active, weekly_visitors = {}, {}
    active_by_id = {
        entry.subscriber_id: entry.technology for entry in day_rows if entry.active
    }
    for subscriber_id, technology in active_by_id.items():
        weekly_active.setdefault((iso_year, iso_week, technology), set()).add(
            subscriber_id
        )
    for row in usage:
        technology = active_by_id.get(row.subscriber_id)
        if technology is None:
            continue
        if classifier.is_visit(row.service, row.bytes_down + row.bytes_up):
            weekly_visitors.setdefault(
                (iso_year, iso_week, row.service, technology), set()
            ).add(row.subscriber_id)
    return weekly_active, weekly_visitors


def in_insertion_order(sets_by_key):
    return [(key, list(members)) for key, members in sets_by_key.items()]


COMPARISON_DAY = datetime.date(2017, 4, 12)  # inside a weekly-reach month

usage_rows = st.lists(
    st.builds(
        DailyUsage,
        day=st.sampled_from(
            [COMPARISON_DAY + datetime.timedelta(days=offset) for offset in range(3)]
        ),
        subscriber_id=st.integers(0, 6),  # few ids: repeated (subscriber, service)
        technology=st.sampled_from(list(Technology)),
        pop=st.sampled_from(["pop1", "pop2"]),
        service=st.sampled_from(
            [catalog.OTHER, catalog.FACEBOOK, catalog.WHATSAPP, "unlisted"]
        ),
        # straddle the activity criterion (15 kB / 5 kB / 10 flows) and the
        # visit thresholds (10 kB fallback ... 200 kB Facebook)
        bytes_down=st.sampled_from([0, 4_000, 9_999, 10_000, 15_001, 199_000, 250_000]),
        bytes_up=st.sampled_from([0, 1, 1_000, 5_001, 9_000]),
        flows=st.integers(0, 12),
    ),
    max_size=40,
)


class TestVectorisedStageOneMatchesRowOracle:
    @given(usage_rows)
    @settings(max_examples=150, deadline=None)
    def test_values_and_order(self, rows):
        criterion, classifier = ActiveSubscriberCriterion(), VisitClassifier()
        batch = ColumnBatch.of(rows, USAGE_CODEC)
        assert list(batch) == rows and batch == rows

        expected_days = oracle_subscriber_days(rows, criterion)
        for usage in (rows, batch, iter(rows)):
            assert subscriber_days(usage, criterion) == expected_days
        for technology in (None, *Technology):
            expected = oracle_daily_service_stats(
                rows, expected_days, classifier, technology
            )
            for usage in (rows, batch):
                assert (
                    daily_service_stats(usage, expected_days, classifier, technology)
                    == expected
                )
        # a caller-supplied subscriber-day list need not come from these rows
        foreign = [
            SubscriberDay(COMPARISON_DAY, 3, Technology.ADSL, 1, 1, 1, True),
            SubscriberDay(COMPARISON_DAY, 3, Technology.ADSL, 1, 1, 1, True),
            SubscriberDay(COMPARISON_DAY, 99, Technology.FTTH, 1, 1, 1, True),
            SubscriberDay(COMPARISON_DAY, 4, Technology.FTTH, 1, 1, 1, False),
        ]
        assert daily_service_stats(
            batch, foreign, classifier
        ) == oracle_daily_service_stats(rows, foreign, classifier, None)

        data = StudyData()
        stored = aggregate_usage_day(data, COMPARISON_DAY, batch, criterion, classifier)
        assert stored == expected_days == data.subscriber_days[COMPARISON_DAY]
        assert data.service_stats == [
            cell
            for technology in Technology
            for cell in oracle_daily_service_stats(
                rows, expected_days, classifier, technology
            )
        ]
        weekly_active, weekly_visitors = oracle_weekly(
            COMPARISON_DAY, rows, expected_days, classifier
        )
        assert in_insertion_order(data.weekly_active) == in_insertion_order(
            weekly_active
        )
        assert in_insertion_order(data.weekly_visitors) == in_insertion_order(
            weekly_visitors
        )

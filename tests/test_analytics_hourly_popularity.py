"""Tests for hourly analytics (Fig. 4) and popularity analytics (Figs. 5-7)."""

import datetime

import pytest

from repro.analytics.activity import subscriber_days
from repro.analytics.hourly import (
    HourlyProfile,
    bezier_smooth,
    bins_to_hours,
    monthly_profile,
    profile_ratio,
)
from repro.analytics.popularity import (
    SERVICE_STATS_CODEC,
    byte_share_series,
    daily_service_stats,
    heatmap,
    popularity_series,
)
from repro.core.study import StudyData, aggregate_usage_day
from repro.dataflow.columnar import ColumnBatch
from repro.services.thresholds import (
    ActiveSubscriberCriterion,
    VisitClassifier,
    no_threshold_classifier,
)
from repro.synthesis.flowgen import DailyUsage, HourlyVolume
from repro.synthesis.population import Technology
from repro.synthesis.studycalendar import BINS_PER_DAY
from tests.test_flow_tables import weekly_active

D = datetime.date
DAY = D(2014, 4, 10)


def volume(day, technology, bin_index, bytes_down):
    return HourlyVolume(day=day, technology=technology, bin_index=bin_index, bytes_down=bytes_down)


class TestHourly:
    def test_monthly_profile_averages_days(self):
        volumes = []
        for day_number in (1, 2):
            for bin_index in range(BINS_PER_DAY):
                volumes.append(
                    volume(D(2014, 4, day_number), Technology.ADSL, bin_index, 100 * (day_number))
                )
        profile = monthly_profile(volumes, Technology.ADSL, 2014, 4)
        assert profile.bins[0] == pytest.approx(150.0)

    def test_profile_requires_data(self):
        with pytest.raises(ValueError):
            monthly_profile([], Technology.ADSL, 2014, 4)

    def test_profile_validates_bin_count(self):
        with pytest.raises(ValueError):
            HourlyProfile(Technology.ADSL, (2014, 4), (1.0,) * 10)

    def test_ratio(self):
        early = HourlyProfile(Technology.ADSL, (2014, 4), tuple([2.0] * BINS_PER_DAY))
        late = HourlyProfile(Technology.ADSL, (2017, 4), tuple([5.0] * BINS_PER_DAY))
        assert profile_ratio(late, early) == [2.5] * BINS_PER_DAY

    def test_ratio_rejects_mixed_technologies(self):
        adsl = HourlyProfile(Technology.ADSL, (2014, 4), tuple([1.0] * BINS_PER_DAY))
        ftth = HourlyProfile(Technology.FTTH, (2017, 4), tuple([1.0] * BINS_PER_DAY))
        with pytest.raises(ValueError):
            profile_ratio(ftth, adsl)

    def test_ratio_zero_denominator(self):
        early = HourlyProfile(Technology.ADSL, (2014, 4), tuple([0.0] * BINS_PER_DAY))
        late = HourlyProfile(Technology.ADSL, (2017, 4), tuple([1.0] * BINS_PER_DAY))
        assert profile_ratio(late, early) == [0.0] * BINS_PER_DAY

    def test_bezier_smooth_preserves_constant(self):
        values = [3.0] * 50
        assert bezier_smooth(values) == pytest.approx(values)

    def test_bezier_smooth_damps_spikes(self):
        values = [1.0] * 21
        values[10] = 10.0
        smoothed = bezier_smooth(values)
        assert smoothed[10] < 10.0
        assert smoothed[10] > 1.0
        assert sum(smoothed) == pytest.approx(sum(values), rel=0.05)

    def test_bezier_rejects_even_window(self):
        with pytest.raises(ValueError):
            bezier_smooth([1.0, 2.0], window=4)

    def test_bins_to_hours(self):
        values = [float(index // (BINS_PER_DAY // 24)) for index in range(BINS_PER_DAY)]
        hours = bins_to_hours(values)
        assert hours[0] == 0.0
        assert hours[23] == 23.0


def usage_row(subscriber_id, service, total_bytes, day=DAY, technology=Technology.ADSL):
    return DailyUsage(
        day=day,
        subscriber_id=subscriber_id,
        technology=technology,
        pop="pop1",
        service=service,
        bytes_down=int(total_bytes * 0.9),
        bytes_up=int(total_bytes * 0.1),
        flows=20,
    )


@pytest.fixture
def service_usage():
    rows = [
        usage_row(1, "Other", 50_000_000),
        usage_row(1, "Netflix", 500_000_000),
        usage_row(2, "Other", 40_000_000),
        usage_row(2, "Netflix", 10_000),  # third-party level, below threshold
        usage_row(3, "Other", 30_000_000, technology=Technology.FTTH),
        usage_row(3, "Netflix", 900_000_000, technology=Technology.FTTH),
    ]
    return rows


class TestDailyServiceStats:
    def test_popularity_respects_thresholds(self, service_usage):
        days = subscriber_days(service_usage)
        stats = daily_service_stats(service_usage, days, technology=Technology.ADSL)
        netflix = next(cell for cell in stats if cell.service == "Netflix")
        assert netflix.active_subscribers == 2
        assert netflix.visitors == 1  # subscriber 2 fell below the threshold
        assert netflix.popularity == 0.5

    def test_no_threshold_ablation_counts_everyone(self, service_usage):
        days = subscriber_days(service_usage)
        stats = daily_service_stats(
            service_usage, days, classifier=no_threshold_classifier(),
            technology=Technology.ADSL,
        )
        netflix = next(cell for cell in stats if cell.service == "Netflix")
        assert netflix.visitors == 2  # ablation: thresholds off

    def test_mean_visitor_bytes_excludes_nonvisitors(self, service_usage):
        days = subscriber_days(service_usage)
        stats = daily_service_stats(service_usage, days, technology=Technology.ADSL)
        netflix = next(cell for cell in stats if cell.service == "Netflix")
        assert netflix.mean_visitor_bytes == pytest.approx(500_000_000)

    def test_stats_for_sums_across_technologies(self, service_usage):
        days = subscriber_days(service_usage)
        data = StudyData(
            service_stats=ColumnBatch.concat(
                [
                    daily_service_stats(service_usage, days, technology=technology)
                    for technology in Technology
                ],
                SERVICE_STATS_CODEC,
            )
        )
        (merged,) = data.stats_for("Netflix")
        assert merged.visitors == 2
        assert merged.active_subscribers == 3
        assert merged.technology is None
        (adsl,) = data.stats_for("Netflix", Technology.ADSL)
        assert adsl.technology is Technology.ADSL and adsl.visitors == 1


class TestSeries:
    def test_popularity_series(self, service_usage):
        days = subscriber_days(service_usage)
        stats = daily_service_stats(service_usage, days, technology=Technology.ADSL)
        series = popularity_series(stats, "Netflix", [(2014, 4)])
        assert series.value_at(2014, 4) == pytest.approx(50.0)

    def test_byte_share_series_sums_to_100(self, service_usage):
        days = subscriber_days(service_usage)
        stats = daily_service_stats(service_usage, days, technology=Technology.ADSL)
        months = [(2014, 4)]
        total = sum(
            byte_share_series(stats, service, months).value_at(2014, 4) or 0.0
            for service in ("Netflix", "Other")
        )
        assert total == pytest.approx(100.0)

    def test_heatmap_quantities(self, service_usage):
        days = subscriber_days(service_usage)
        stats = daily_service_stats(service_usage, days)
        months = [(2014, 4)]
        pop_map = heatmap(stats, ["Netflix"], months, "popularity")
        share_map = heatmap(stats, ["Netflix"], months, "share")
        assert pop_map["Netflix"].value_at(2014, 4) is not None
        assert share_map["Netflix"].value_at(2014, 4) is not None
        with pytest.raises(ValueError):
            heatmap(stats, ["Netflix"], months, "nonsense")


class TestWeeklyReach:
    def test_weekly_beats_daily(self):
        """A subscriber visiting once a week counts weekly, not daily
        (``StudyData.weekly_reach`` over the weeks stage-1 tracks: those of
        a comparison month)."""
        rows = []
        # Subscriber 1 uses Netflix every Monday of April 2017 only.
        for day_number in (3, 10, 17, 24):
            rows.append(usage_row(1, "Netflix", 500_000_000, day=D(2017, 4, day_number)))
        # Both subscribers browse daily, Monday 3 to Sunday 30: four whole weeks.
        for day_number in range(3, 31):
            rows.append(usage_row(1, "Other", 50_000_000, day=D(2017, 4, day_number)))
            rows.append(usage_row(2, "Other", 50_000_000, day=D(2017, 4, day_number)))
        data = StudyData()
        for day in sorted({row.day for row in rows}):
            aggregate_usage_day(
                data,
                day,
                [row for row in rows if row.day == day],
                ActiveSubscriberCriterion(),
                VisitClassifier(),
            )
        assert len(weekly_active(data)) == 4
        reach = data.weekly_reach("Netflix", Technology.ADSL, 2017)
        assert reach == pytest.approx(0.5, abs=0.05)
        assert data.weekly_reach("Netflix", Technology.ADSL, 2014) is None

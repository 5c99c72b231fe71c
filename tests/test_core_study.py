"""Tests for the study orchestration (planning + the single pass)."""

import datetime

import pytest

from repro.core.config import COMPARISON_MONTHS, StudyConfig, small_study
from repro.core.study import INFRA_SERVICES, RTT_SERVICES, LongitudinalStudy
from repro.services import catalog
from repro.synthesis.population import Technology
from repro.synthesis.world import WorldConfig

D = datetime.date


class TestConfig:
    def test_defaults_valid(self):
        config = StudyConfig()
        assert config.day_stride >= 1

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            StudyConfig(day_stride=0)

    def test_small_study_is_small(self):
        config = small_study()
        assert config.world.adsl_count < 300
        assert config.day_stride > 1

    def test_comparison_months(self):
        assert COMPARISON_MONTHS == ((2014, 4), (2017, 4))


class TestPlanning:
    @pytest.fixture(scope="class")
    def plan(self, mini_study):
        return mini_study.planned_days()

    def test_comparison_months_fully_covered(self, plan):
        for year, month in COMPARISON_MONTHS:
            day = D(year, month, 1)
            while day.month == month:
                assert "aggregate" in plan[day]
                assert "hourly" in plan[day]
                day += datetime.timedelta(days=1)

    def test_rtt_days_inside_comparison_months(self, plan):
        rtt_days = [day for day, roles in plan.items() if "rtt" in roles]
        assert rtt_days
        for day in rtt_days:
            assert (day.year, day.month) in COMPARISON_MONTHS
            assert "flows" in plan[day]

    def test_flow_days_each_month(self, plan, mini_study):
        flow_months = {
            (day.year, day.month) for day, roles in plan.items() if "flows" in roles
        }
        assert len(flow_months) >= 50  # nearly every month of the 54

    def test_stride_applied(self, plan, mini_study):
        aggregate_days = sorted(day for day, roles in plan.items() if "aggregate" in roles)
        assert aggregate_days[0] == mini_study.config.world.start


class TestRunResults:
    def test_months_span(self, study_data):
        assert len(study_data.months) == 54
        assert study_data.months[0] == (2013, 7)
        assert study_data.months[-1] == (2017, 12)

    def test_subscriber_days_nonempty(self, study_data):
        assert study_data.subscriber_days
        some_day = next(iter(study_data.subscriber_days.values()))
        assert some_day

    def test_activity_rate_near_eighty_percent(self, study_data):
        from repro.analytics.activity import activity_rate

        rate = activity_rate(study_data.all_subscriber_days())
        assert 0.65 < rate < 0.95

    def test_outage_days_absent(self, study_data):
        """Days fully inside a pop outage lose that pop's subscribers."""
        for day, rows in study_data.subscriber_days.items():
            if D(2016, 3, 10) <= day <= D(2016, 5, 20):
                # pop1 was down: substantially fewer subscribers that day.
                assert len(rows) < 180

    def test_service_stats_have_both_technologies(self, study_data):
        techs = {cell.technology for cell in study_data.service_stats}
        assert techs == {Technology.ADSL, Technology.FTTH}

    def test_stats_for_merges(self, study_data):
        merged = study_data.stats_for(catalog.YOUTUBE)
        adsl = study_data.stats_for(catalog.YOUTUBE, Technology.ADSL)
        assert merged and adsl
        day = adsl[0].day
        merged_day = next(cell for cell in merged if cell.day == day)
        assert merged_day.active_subscribers >= adsl[0].active_subscribers

    def test_census_covers_tracked_services(self, study_data):
        services = {entry.service for entry in study_data.servers}
        assert services == set(INFRA_SERVICES)

    def test_rtt_samples_cover_both_years(self, study_data):
        years = {entry.year for entry in study_data.rtt}
        assert years == {2014, 2017}
        services = {entry.service for entry in study_data.rtt}
        assert set(RTT_SERVICES) <= services

    def test_hourly_only_comparison_months(self, study_data):
        months = {(volume.day.year, volume.day.month) for volume in study_data.hourly}
        assert months == set(COMPARISON_MONTHS)

    def test_flow_days_recorded(self, study_data):
        assert study_data.flow_days
        assert len(study_data.flow_days) == len(set(study_data.flow_days))

    def test_protocol_rows_span_years(self, study_data):
        years = {row.day.year for row in study_data.protocol_rows}
        assert {2013, 2014, 2015, 2016, 2017} <= years


class TestDeterminism:
    def test_same_seed_same_plan(self):
        config = StudyConfig(
            world=WorldConfig(seed=5, adsl_count=20, ftth_count=10), day_stride=30
        )
        assert (
            LongitudinalStudy(config).planned_days()
            == LongitudinalStudy(config).planned_days()
        )

    def test_same_seed_same_data(self):
        config = StudyConfig(
            world=WorldConfig(
                seed=5,
                adsl_count=20,
                ftth_count=10,
                start=D(2014, 1, 1),
                end=D(2014, 3, 31),
            ),
            day_stride=10,
            flow_days_per_month=0,
        )
        first = LongitudinalStudy(config).run()
        second = LongitudinalStudy(config).run()
        assert first.protocol_rows == second.protocol_rows
        assert first.subscriber_days == second.subscriber_days

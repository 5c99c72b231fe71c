"""Tests for curve primitives and the study calendar."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synthesis import curves, studycalendar

D = datetime.date
study_dates = st.dates(min_value=D(2013, 7, 1), max_value=D(2017, 12, 31))


class TestPiecewise:
    def test_interpolates(self):
        curve = curves.piecewise((D(2014, 1, 1), 0.0), (D(2014, 1, 11), 10.0))
        assert curve(D(2014, 1, 6)) == pytest.approx(5.0)

    def test_clamps_outside(self):
        curve = curves.piecewise((D(2014, 1, 1), 1.0), (D(2015, 1, 1), 2.0))
        assert curve(D(2010, 1, 1)) == 1.0
        assert curve(D(2020, 1, 1)) == 2.0

    def test_exact_knots(self):
        curve = curves.piecewise((D(2014, 1, 1), 1.0), (D(2015, 1, 1), 2.0))
        assert curve(D(2014, 1, 1)) == 1.0
        assert curve(D(2015, 1, 1)) == 2.0

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            curves.piecewise((D(2015, 1, 1), 1.0), (D(2014, 1, 1), 2.0))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            curves.piecewise((D(2014, 1, 1), 1.0), (D(2014, 1, 1), 2.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            curves.PiecewiseLinear(())

    @given(study_dates)
    @settings(max_examples=50, deadline=None)
    def test_monotone_curve_stays_in_range(self, day):
        curve = curves.piecewise((D(2013, 7, 1), 1.0), (D(2017, 12, 31), 5.0))
        assert 1.0 <= curve(day) <= 5.0

    @given(study_dates, study_dates)
    @settings(max_examples=50, deadline=None)
    def test_increasing_knots_give_monotone_curve(self, a, b):
        curve = curves.piecewise(
            (D(2013, 7, 1), 0.0), (D(2015, 6, 1), 3.0), (D(2017, 12, 31), 9.0)
        )
        early, late = min(a, b), max(a, b)
        assert curve(early) <= curve(late) + 1e-9


class TestShapes:
    def test_constant(self):
        assert curves.constant(4.2)(D(2015, 5, 5)) == 4.2

    def test_launched(self):
        curve = curves.launched(D(2015, 10, 22), curves.constant(7.0))
        assert curve(D(2015, 10, 21)) == 0.0
        assert curve(D(2015, 10, 22)) == 7.0

    def test_dip(self):
        base = curves.constant(1.0)
        curve = curves.dip(base, D(2015, 12, 5), D(2016, 1, 12), factor=0.02)
        assert curve(D(2015, 12, 1)) == 1.0
        assert curve(D(2015, 12, 20)) == pytest.approx(0.02)
        assert curve(D(2016, 1, 12)) == 1.0  # end is exclusive

    def test_composition(self):
        product = curves.multiplied(curves.constant(2.0), curves.constant(3.0))
        day = D(2015, 1, 1)
        assert product(day) == 6.0

    def test_normalized_mix(self):
        mix = curves.normalized_mix(
            [("a", curves.constant(1.0)), ("b", curves.constant(3.0))]
        )
        shares = dict(mix(D(2015, 1, 1)))
        assert shares == {"a": pytest.approx(0.25), "b": pytest.approx(0.75)}

    def test_normalized_mix_drops_nonpositive(self):
        mix = curves.normalized_mix(
            [("a", curves.constant(1.0)), ("gone", curves.constant(0.0))]
        )
        assert dict(mix(D(2015, 1, 1))) == {"a": 1.0}

    def test_normalized_mix_empty_when_all_zero(self):
        mix = curves.normalized_mix([("a", curves.constant(0.0))])
        assert mix(D(2015, 1, 1)) == []


class TestCalendar:
    def test_span_is_54_months(self):
        assert len(studycalendar.study_months()) == 54

    def test_study_days_stride(self):
        days = list(studycalendar.study_days(stride=7))
        assert days[0] == studycalendar.STUDY_START
        assert (days[1] - days[0]).days == 7

    def test_study_days_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            list(studycalendar.study_days(stride=0))

    def test_weekend(self):
        assert studycalendar.is_weekend(D(2015, 6, 6))  # Saturday
        assert not studycalendar.is_weekend(D(2015, 6, 8))

    def test_holidays(self):
        assert studycalendar.is_christmas_period(D(2016, 12, 25))
        assert studycalendar.is_new_year(D(2016, 12, 31))
        assert studycalendar.is_new_year(D(2017, 1, 1))
        assert not studycalendar.is_christmas_period(D(2016, 12, 20))
        assert studycalendar.is_summer_break(D(2015, 8, 15))

    def test_weekly_factor(self):
        assert studycalendar.weekly_factor(D(2015, 6, 6)) > 1.0
        assert studycalendar.weekly_factor(D(2015, 6, 8)) < 1.0

    def test_season_factor_business_dips_harder(self):
        august = D(2015, 8, 10)
        assert studycalendar.season_factor(august, 1.0) < studycalendar.season_factor(
            august, 0.0
        )
        assert studycalendar.season_factor(D(2015, 3, 10)) == 1.0

    def test_diurnal_profile_normalized(self):
        for year in (2014, 2017):
            for technology in ("adsl", "ftth"):
                profile = studycalendar.diurnal_profile(year, technology)
                assert len(profile) == studycalendar.BINS_PER_DAY
                assert sum(profile) == pytest.approx(1.0)

    def test_night_share_grows_over_years(self):
        """The Fig. 4 late-night effect: night bins gain share by 2017."""
        night_bins = range(6, 36)  # 01:00-06:00
        early = studycalendar.diurnal_profile(2014, "adsl")
        late = studycalendar.diurnal_profile(2017, "adsl")
        assert sum(late[b] for b in night_bins) > sum(early[b] for b in night_bins)

    def test_ftth_prime_time_boost(self):
        prime_bins = range(123, 138)  # 20:30-23:00
        adsl = studycalendar.diurnal_profile(2017, "adsl")
        ftth = studycalendar.diurnal_profile(2017, "ftth")
        assert sum(ftth[b] for b in prime_bins) > sum(adsl[b] for b in prime_bins)

    def test_bin_start_seconds(self):
        assert studycalendar.bin_start_seconds(0) == 0
        assert studycalendar.bin_start_seconds(6) == 3600
        with pytest.raises(ValueError):
            studycalendar.bin_start_seconds(studycalendar.BINS_PER_DAY)

"""Statistical consistency: the generator must track its own ground truth.

The figures test the pipeline end to end; these tests pin the layer below
— that the traffic generator's empirical means converge to the service
models' curves.  A drift here would silently mis-calibrate every figure.
"""

import datetime

import numpy as np
import pytest

from repro.services import catalog
from repro.synthesis.flowgen import TrafficGenerator
from repro.synthesis.population import Technology
from repro.synthesis.world import World, WorldConfig

D = datetime.date


@pytest.fixture(scope="module")
def big_world():
    return World(WorldConfig(seed=99, adsl_count=400, ftth_count=200))


@pytest.fixture(scope="module")
def month_rows(big_world):
    """Usage rows over ~10 weekdays of March 2016 (no outage, no holiday)."""
    generator = TrafficGenerator(big_world)
    rows = []
    for day_number in range(1, 15):
        day = D(2016, 3, day_number)
        if day.weekday() >= 5:
            continue
        rows.extend(generator.generate_day(day).usage)
    return rows


def visitor_mean(rows, service, technology, threshold):
    values = [
        row.bytes_down
        for row in rows
        if row.service == service
        and row.technology is technology
        and row.bytes_down + row.bytes_up >= threshold
        and row.flows > 5  # exclude background-chatter rows of inactive lines
    ]
    return (np.mean(values) if values else 0.0), len(values)


class TestVolumeConsistency:
    @pytest.mark.parametrize(
        "service,technology",
        [
            (catalog.YOUTUBE, Technology.ADSL),
            (catalog.FACEBOOK, Technology.ADSL),
            (catalog.OTHER, Technology.ADSL),
            (catalog.OTHER, Technology.FTTH),
        ],
    )
    def test_generated_mean_tracks_curve(self, big_world, month_rows, service, technology):
        from repro.services.thresholds import DEFAULT_VISIT_THRESHOLDS

        model = big_world.service(service)
        expected = model.volume_down[technology](D(2016, 3, 7))
        threshold = DEFAULT_VISIT_THRESHOLDS.get(service, 0)
        measured, count = visitor_mean(month_rows, service, technology, threshold)
        assert count > 50, f"not enough samples for {service}"
        # Weekday factor is 0.95; allow generous sampling noise on top.
        assert measured == pytest.approx(expected * 0.95, rel=0.35)


class TestPopularityConsistency:
    @pytest.mark.parametrize(
        "service,technology",
        [
            (catalog.GOOGLE, Technology.ADSL),
            (catalog.WHATSAPP, Technology.ADSL),
            (catalog.YOUTUBE, Technology.FTTH),
        ],
    )
    def test_generated_popularity_tracks_curve(
        self, big_world, month_rows, service, technology
    ):
        from repro.analytics.activity import subscriber_days
        from repro.analytics.popularity import daily_service_stats

        model = big_world.service(service)
        expected = model.popularity[technology](D(2016, 3, 7))
        day_rows = subscriber_days(month_rows)
        stats = daily_service_stats(month_rows, day_rows, technology=technology)
        cells = [cell for cell in stats if cell.service == service]
        assert cells
        measured = np.mean([cell.popularity for cell in cells])
        assert measured == pytest.approx(expected, rel=0.30)


class TestUploadConsistency:
    def test_upload_means_follow_ratios(self, big_world, month_rows):
        model = big_world.service(catalog.PEER_TO_PEER)
        day = D(2016, 3, 7)
        expected_ratio = model.upload_ratio[Technology.ADSL](day)
        rows = [
            row
            for row in month_rows
            if row.service == catalog.PEER_TO_PEER
            and row.technology is Technology.ADSL
        ]
        assert len(rows) > 30
        measured_ratio = sum(row.bytes_up for row in rows) / sum(
            row.bytes_down for row in rows
        )
        assert measured_ratio == pytest.approx(expected_ratio, rel=0.45)


class TestFlowCountConsistency:
    def test_flows_track_model(self, big_world, month_rows):
        model = big_world.service(catalog.YOUTUBE)
        expected = model.flows_per_day(D(2016, 3, 7))
        from repro.services.thresholds import DEFAULT_VISIT_THRESHOLDS

        threshold = DEFAULT_VISIT_THRESHOLDS[catalog.YOUTUBE]
        flows = [
            row.flows
            for row in month_rows
            if row.service == catalog.YOUTUBE
            and row.bytes_down + row.bytes_up >= threshold
        ]
        assert np.mean(flows) == pytest.approx(expected, rel=0.15)

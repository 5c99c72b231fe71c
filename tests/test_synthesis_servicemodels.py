"""Tests for the ground-truth service models (the paper's dynamics)."""

import datetime

import pytest

from repro.services import catalog
from repro.synthesis.population import Technology
from repro.synthesis.servicemodels import (
    FACEBOOK_AUTOPLAY,
    FBZERO_LAUNCH,
    MB,
    NETFLIX_ITALY_LAUNCH,
    NETFLIX_UHD_LAUNCH,
    QUIC_DISABLE_END,
    QUIC_DISABLE_START,
    build_default_services,
)
from repro.tstat.flow import WebProtocol

D = datetime.date


@pytest.fixture(scope="module")
def services():
    return {service.name: service for service in build_default_services()}


def mix_share(service, day, protocol):
    return dict(service.protocol_mix(day)).get(protocol, 0.0)


class TestCatalogCompleteness:
    def test_all_figure5_services_modelled(self, services):
        for name in catalog.FIGURE5_SERVICES:
            assert name in services

    def test_mixes_normalized(self, services):
        for day in (D(2013, 8, 1), D(2015, 6, 15), D(2017, 11, 1)):
            for service in services.values():
                total = sum(share for _, share in service.protocol_mix(day))
                assert total == pytest.approx(1.0), (service.name, day)

    def test_popularities_are_probabilities(self, services):
        for day in (D(2013, 8, 1), D(2017, 11, 1)):
            for service in services.values():
                for technology in Technology:
                    value = service.popularity[technology](day)
                    assert 0.0 <= value <= 1.0, (service.name, day)

    def test_volumes_nonnegative(self, services):
        for day in (D(2013, 8, 1), D(2017, 11, 1)):
            for service in services.values():
                for technology in Technology:
                    assert service.volume_down[technology](day) >= 0.0


class TestEventDates:
    def test_netflix_absent_before_italian_launch(self, services):
        netflix = services[catalog.NETFLIX]
        before = NETFLIX_ITALY_LAUNCH - datetime.timedelta(days=1)
        for technology in Technology:
            assert netflix.popularity[technology](before) == 0.0
            assert netflix.volume_down[technology](before) == 0.0
        assert netflix.popularity[Technology.FTTH](D(2017, 12, 1)) > 0.05

    def test_netflix_uhd_splits_technologies(self, services):
        netflix = services[catalog.NETFLIX]
        before = NETFLIX_UHD_LAUNCH - datetime.timedelta(days=30)
        after = D(2017, 10, 1)
        volume = netflix.volume_down
        gap_before = volume[Technology.FTTH](before) / volume[Technology.ADSL](before)
        gap_after = volume[Technology.FTTH](after) / volume[Technology.ADSL](after)
        assert gap_before < 1.35
        assert gap_after > gap_before

    def test_facebook_autoplay_growth(self, services):
        facebook = services[catalog.FACEBOOK]
        march = facebook.volume_down[Technology.ADSL](FACEBOOK_AUTOPLAY)
        july = facebook.volume_down[Technology.ADSL](D(2014, 7, 10))
        assert 2.0 < july / march < 3.2  # the paper's 2.5x

    def test_fbzero_switches_on_at_launch(self, services):
        facebook = services[catalog.FACEBOOK]
        before = FBZERO_LAUNCH - datetime.timedelta(days=1)
        assert mix_share(facebook, before, WebProtocol.FBZERO) == 0.0
        assert mix_share(facebook, FBZERO_LAUNCH, WebProtocol.FBZERO) > 0.3

    def test_zero_majority_of_facebook_by_2017(self, services):
        facebook = services[catalog.FACEBOOK]
        assert mix_share(facebook, D(2017, 6, 1), WebProtocol.FBZERO) > 0.45

    def test_youtube_https_migration(self, services):
        youtube = services[catalog.YOUTUBE]
        assert mix_share(youtube, D(2013, 10, 1), WebProtocol.HTTP) > 0.9
        assert mix_share(youtube, D(2015, 1, 1), WebProtocol.HTTP) < 0.15
        assert mix_share(youtube, D(2015, 1, 1), WebProtocol.TLS) > 0.5

    def test_quic_kill_switch(self, services):
        youtube = services[catalog.YOUTUBE]
        before = QUIC_DISABLE_START - datetime.timedelta(days=10)
        during = D(2015, 12, 20)
        after = QUIC_DISABLE_END + datetime.timedelta(days=10)
        assert mix_share(youtube, during, WebProtocol.QUIC) < 0.2 * mix_share(
            youtube, before, WebProtocol.QUIC
        )
        assert mix_share(youtube, after, WebProtocol.QUIC) > 0.5 * mix_share(
            youtube, before, WebProtocol.QUIC
        )

    def test_spdy_to_http2_migration(self, services):
        google = services[catalog.GOOGLE]
        assert mix_share(google, D(2015, 8, 1), WebProtocol.SPDY) > 0.1
        assert mix_share(google, D(2017, 1, 1), WebProtocol.SPDY) < 0.02
        assert mix_share(google, D(2017, 1, 1), WebProtocol.HTTP2) > 0.1


class TestTrends:
    def test_snapchat_rise_and_fall(self, services):
        snapchat = services[catalog.SNAPCHAT]
        vol = lambda day: snapchat.volume_down[Technology.ADSL](day)
        assert vol(D(2016, 4, 1)) > 3 * vol(D(2014, 6, 1))
        assert vol(D(2017, 11, 1)) < 0.35 * vol(D(2016, 4, 1))
        pop = snapchat.popularity[Technology.ADSL]
        assert pop(D(2017, 11, 1)) > 0.6 * pop(D(2016, 4, 1))  # sticky installs

    def test_p2p_decline(self, services):
        p2p = services[catalog.PEER_TO_PEER]
        pop = p2p.popularity[Technology.ADSL]
        assert pop(D(2017, 11, 1)) < 0.5 * pop(D(2013, 8, 1))
        # FTTH volume decline starts earlier than ADSL's.
        mid_2016 = D(2016, 6, 1)
        volume = p2p.volume_down
        adsl_drop = volume[Technology.ADSL](mid_2016) / volume[Technology.ADSL](D(2013, 8, 1))
        ftth_drop = volume[Technology.FTTH](mid_2016) / volume[Technology.FTTH](D(2013, 8, 1))
        assert ftth_drop < adsl_drop

    def test_whatsapp_saturating_popularity(self, services):
        whatsapp = services[catalog.WHATSAPP]
        pop = whatsapp.popularity[Technology.ADSL]
        growth_early = pop(D(2015, 1, 1)) - pop(D(2013, 8, 1))
        growth_late = pop(D(2017, 11, 1)) - pop(D(2016, 6, 1))
        assert growth_late < growth_early  # flattening
        assert whatsapp.holiday_messaging_boost

    def test_instagram_volume_growth_and_tech_gap(self, services):
        instagram = services[catalog.INSTAGRAM]
        late = D(2017, 11, 1)
        adsl = instagram.volume_down[Technology.ADSL](late)
        ftth = instagram.volume_down[Technology.FTTH](late)
        assert 100 * MB < adsl < 140 * MB
        assert 160 * MB < ftth < 220 * MB

    def test_bing_growth_is_telemetry_like(self, services):
        bing = services[catalog.BING]
        pop = bing.popularity[Technology.ADSL]
        assert pop(D(2013, 8, 1)) < 0.2
        assert pop(D(2017, 11, 1)) > 0.35
        # But tiny volumes: telemetry, not browsing.
        assert bing.volume_down[Technology.ADSL](D(2017, 11, 1)) < 5 * MB

    def test_youtube_same_on_both_technologies(self, services):
        youtube = services[catalog.YOUTUBE]
        day = D(2017, 6, 1)
        assert youtube.volume_down[Technology.ADSL](day) == pytest.approx(
            youtube.volume_down[Technology.FTTH](day)
        )

    def test_upload_ratios_sane(self, services):
        for service in services.values():
            for technology in Technology:
                ratio = service.upload_ratio[technology](D(2016, 1, 1))
                assert 0.0 <= ratio <= 3.0, service.name

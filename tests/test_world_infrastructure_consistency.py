"""Cross-layer consistency: infrastructure, classification and RIB agree.

The world model's deployments emit domains and addresses; the service
rules must classify those domains back to the emitting service, and the
emitted RIB must map the addresses to the deployment's AS.  Drift between
these layers would silently corrupt Figs. 10 and 11.
"""

import datetime

import numpy as np
import pytest

from repro.services import catalog
from repro.synthesis.population import Technology

D = datetime.date

#: Services whose domains must classify back to themselves.
SELF_CLASSIFYING = (
    catalog.FACEBOOK,
    catalog.INSTAGRAM,
    catalog.YOUTUBE,
    catalog.GOOGLE,
    catalog.NETFLIX,
    catalog.WHATSAPP,
    catalog.BING,
    catalog.SPOTIFY,
    catalog.SNAPCHAT,
    catalog.AMAZON,
    catalog.EBAY,
    catalog.TWITTER,
    catalog.LINKEDIN,
    catalog.ADULT,
    catalog.SKYPE,
    catalog.TELEGRAM,
    catalog.DUCKDUCKGO,
)

SAMPLE_DAYS = (D(2013, 8, 15), D(2015, 6, 15), D(2017, 6, 15))


class TestDomainsClassifyBack:
    @pytest.mark.parametrize("service", SELF_CLASSIFYING)
    def test_emitted_domains_map_to_service(self, world, rules, service):
        rng = np.random.default_rng(5)
        infra = world.infrastructure_for(service)
        for day in SAMPLE_DAYS:
            if not infra.shares_on(day):
                continue
            for _ in range(25):
                choice = infra.pick_server(day, rng)
                got = rules.classify(choice.domain)
                assert got == service, (service, day, choice.domain, got)

    def test_other_domains_stay_unclassified(self, world, rules):
        rng = np.random.default_rng(5)
        infra = world.infrastructure_for(catalog.OTHER)
        for day in SAMPLE_DAYS:
            for _ in range(40):
                choice = infra.pick_server(day, rng)
                assert rules.classify(choice.domain) is None, choice.domain


class TestAddressesMapToAsn:
    @pytest.mark.parametrize(
        "service", (catalog.FACEBOOK, catalog.INSTAGRAM, catalog.YOUTUBE, catalog.OTHER)
    )
    def test_rib_agrees_with_deployment_asn(self, world, service):
        rng = np.random.default_rng(6)
        infra = world.infrastructure_for(service)
        for day in SAMPLE_DAYS:
            if not infra.shares_on(day):
                continue
            for _ in range(25):
                choice = infra.pick_server(day, rng)
                origin = world.rib.origin_of(choice.ip, day)
                assert origin.number == choice.asn.number, (
                    service,
                    day,
                    choice.deployment,
                )


class TestVisitThresholdsVsVolumes:
    """Every modelled service's typical daily volume must clear its own
    visit threshold by a wide margin — otherwise genuine users would be
    filtered as third-party noise and the popularity figures collapse."""

    def test_volumes_clear_thresholds(self, world):
        from repro.services.thresholds import DEFAULT_VISIT_THRESHOLDS

        day = D(2016, 6, 15)
        for service in world.services:
            if service.name == catalog.OTHER:
                continue
            threshold = DEFAULT_VISIT_THRESHOLDS.get(service.name)
            if threshold is None:
                continue
            for technology in Technology:
                mean = service.volume_down[technology](day)
                if mean == 0:
                    continue  # not launched yet
                assert mean > 2 * threshold, (service.name, technology)

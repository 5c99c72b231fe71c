"""Tests for the subscriber population and the assembled world."""

import datetime

import pytest

from repro.synthesis.population import (
    POP_NETWORKS,
    Population,
    PopulationConfig,
    Technology,
)
from repro.synthesis.studycalendar import STUDY_END, STUDY_START
from repro.synthesis.world import World, WorldConfig

D = datetime.date


class TestPopulation:
    @pytest.fixture(scope="class")
    def population(self):
        return Population(PopulationConfig(adsl_count=300, ftth_count=150), seed=1)

    def test_sizes(self, population):
        assert len(population) == 450
        techs = [sub.technology for sub in population.subscribers]
        assert techs.count(Technology.ADSL) == 300
        assert techs.count(Technology.FTTH) == 150

    def test_adsl_declines_ftth_grows(self, population):
        """Section 2.1: steady ADSL reduction, FTTH increase."""
        early, late = D(2013, 8, 1), D(2017, 11, 1)
        assert population.count_on(late, Technology.ADSL) < population.count_on(
            early, Technology.ADSL
        )
        assert population.count_on(late, Technology.FTTH) > population.count_on(
            early, Technology.FTTH
        )

    def test_client_ips_unique_and_in_pop_networks(self, population):
        ips = [sub.client_ip for sub in population.subscribers]
        assert len(set(ips)) == len(ips)
        for sub in population.subscribers:
            assert POP_NETWORKS[sub.pop].contains(sub.client_ip)

    def test_subscribed_on_respects_dates(self, population):
        sub = population.subscribers[0]
        assert not sub.subscribed_on(sub.join_date - datetime.timedelta(days=1))
        assert sub.subscribed_on(sub.join_date)

    def test_business_only_ftth(self, population):
        for sub in population.subscribers:
            if sub.business:
                assert sub.technology is Technology.FTTH

    def test_activity_mean_near_config(self, population):
        activities = [sub.activity for sub in population.subscribers]
        assert 0.7 < sum(activities) / len(activities) < 0.9

    def test_deterministic(self):
        config = PopulationConfig(adsl_count=50, ftth_count=20)
        assert Population(config, seed=3).subscribers == Population(config, seed=3).subscribers

    def test_seed_changes_population(self):
        config = PopulationConfig(adsl_count=50, ftth_count=20)
        assert Population(config, seed=3).subscribers != Population(config, seed=4).subscribers

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            PopulationConfig(adsl_count=0, ftth_count=10)
        with pytest.raises(ValueError):
            PopulationConfig(start=STUDY_END, end=STUDY_START)

    def test_technology_link_speeds(self):
        assert Technology.ADSL.uplink_mbps == 1.0
        assert Technology.FTTH.downlink_mbps == 100.0


class TestWorld:
    def test_services_catalog_complete(self, world):
        names = world.service_names()
        assert "YouTube" in names
        assert "Peer-To-Peer" in names
        assert "Other" in names
        assert len(names) == 19

    def test_infrastructure_covers_all_services(self, world):
        for name in world.service_names():
            infra = world.infrastructure_for(name)
            assert infra.deployments

    def test_unknown_service_falls_back_to_other(self, world):
        assert world.infrastructure_for("Unknown") is world.infrastructure_for("Other")

    def test_rib_archive_spans_study(self, world):
        months = world.rib.months()
        assert months[0] == (2013, 7)
        assert months[-1] == (2017, 12)

    def test_day_rng_deterministic_and_stream_separated(self, world):
        day = D(2015, 5, 5)
        assert world.day_rng(day).random() == world.day_rng(day).random()
        assert world.day_rng(day, 0).random() != world.day_rng(day, 1).random()
        assert world.day_rng(day).random() != world.day_rng(
            day + datetime.timedelta(days=1)
        ).random()

    def test_affinities_deterministic(self, world):
        assert world.adoption_rank(3, "Netflix") == world.adoption_rank(3, "Netflix")
        assert 0.0 <= world.adoption_rank(3, "Netflix") <= 1.0
        assert world.volume_affinity(3, "YouTube") > 0.0

    def test_affinity_columns_shape(self, world):
        """A row per subscriber, a column per service."""
        ranks, volumes = world.affinity_matrices()
        shape = (len(world.population), len(world.services))
        assert ranks.shape == volumes.shape == shape
        column = world.service_names().index("Facebook")
        assert world.adoption_rank(3, "Facebook") == ranks[3, column]

    def test_outages_toggle(self):
        quiet = World(WorldConfig(adsl_count=10, ftth_count=5, with_outages=False))
        assert len(quiet.outages) == 0

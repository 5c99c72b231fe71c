"""Tests for the infrastructure model (pools, deployments, RIB emission)."""

import datetime
import re

import numpy as np
import pytest

from repro.nettypes.ip import Prefix
from repro.routing import asns
from repro.services import catalog
from repro.synthesis import curves
from repro.synthesis.infrastructure import (
    AddressPool,
    Deployment,
    ServiceInfrastructure,
    build_default_infrastructure,
    build_default_pools,
    build_rib_archive,
)

D = datetime.date


@pytest.fixture(scope="module")
def pools():
    return build_default_pools()


@pytest.fixture(scope="module")
def infra(pools):
    return build_default_infrastructure(pools, ip_scale=0.05)


def rng():
    return np.random.default_rng(7)


class TestAddressPool:
    def test_nth_wraps(self):
        pool = AddressPool("p", asns.OTHER, (Prefix.parse("10.0.0.0/30"),))
        assert pool.capacity() == 4
        assert pool.nth(0) == pool.nth(4)

    def test_multi_prefix_indexing(self):
        pool = AddressPool(
            "p",
            asns.OTHER,
            (Prefix.parse("10.0.0.0/30"), Prefix.parse("192.168.0.0/30")),
        )
        assert pool.capacity() == 8
        assert pool.nth(4) == Prefix.parse("192.168.0.0/30").nth(0)

    def test_rotation_shifts_addresses_over_time(self):
        pool = AddressPool(
            "p", asns.OTHER, (Prefix.parse("10.0.0.0/16"),), rotation_per_day=1.0
        )
        early = pool.address_for(0, D(2013, 7, 1))
        late = pool.address_for(0, D(2014, 7, 1))
        assert early != late

    def test_zero_rotation_is_stable(self):
        pool = AddressPool(
            "p", asns.OTHER, (Prefix.parse("10.0.0.0/16"),), rotation_per_day=0.0
        )
        assert pool.address_for(3, D(2013, 7, 1)) == pool.address_for(3, D(2017, 7, 1))


    @pytest.mark.parametrize("day", (D(2013, 7, 1), D(2015, 2, 11), D(2017, 12, 31)))
    def test_addresses_for_is_address_for_per_slot(self, day):
        """Across the prefixes of a pool and around its end (slots wrap)."""
        pool = AddressPool(
            "p",
            asns.OTHER,
            (
                Prefix.parse("10.0.0.0/29"),
                Prefix.parse("192.168.0.0/30"),
                Prefix.parse("172.16.0.0/28"),
            ),
            rotation_per_day=0.3,
        )
        slots = np.arange(-3, 3 * pool.capacity() + 5)
        assert pool.addresses_for(slots, day).tolist() == [
            pool.address_for(int(slot), day) for slot in slots
        ]
        assert pool.addresses_for(np.empty(0, dtype=np.int64), day).size == 0


class TestDeployment:
    def _deployment(self, pool, **overrides):
        defaults = dict(
            name="d",
            pool=pool,
            rtt_ms=3.0,
            share=curves.constant(1.0),
            active_slots=curves.constant(10),
            domains=(("edge-{n}.example.net", curves.constant(1.0)),),
        )
        defaults.update(overrides)
        return Deployment(**defaults)

    def test_domain_templates_filled(self, pools):
        deployment = self._deployment(pools.akamai_edge)
        (name,) = deployment.domains_on(D(2015, 1, 1), rng(), 1)
        domain = deployment.domain_table[name]
        assert domain.startswith("edge-")
        assert "{n}" not in domain

    def test_domain_weights_respected(self, pools):
        deployment = self._deployment(
            pools.akamai_edge,
            domains=(
                ("old.example", curves.step(D(2015, 1, 1), 1.0, 0.0)),
                ("new.example", curves.step(D(2015, 1, 1), 0.0, 1.0)),
            ),
        )
        generator = rng()
        (early,) = deployment.domains_on(D(2014, 6, 1), generator, 1)
        (late,) = deployment.domains_on(D(2016, 6, 1), generator, 1)
        assert deployment.domain_table[early] == "old.example"
        assert deployment.domain_table[late] == "new.example"

    def test_domain_ids_name_every_fill_of_the_picked_template(self, pools):
        deployment = self._deployment(
            pools.akamai_edge,
            domains=(
                ("plain.example", curves.constant(0.2)),
                ("n{n}.example", curves.constant(0.2)),
                ("a-{a}.example", curves.constant(0.2)),
                ("both-{n}-{a}-{n}.example", curves.constant(0.4)),
            ),
        )
        table = deployment.domain_table
        assert len(table) == len(set(table)) == 1 + 8 + 8 + 64
        assert "both-3-c-3.example" in table and not any("{" in name for name in table)
        ids = deployment.domains_on(D(2015, 1, 1), rng(), 20_000)
        assert ids.dtype == np.int64
        assert set(ids.tolist()) == set(range(len(table)))  # every fill is reachable
        drawn = np.bincount(ids, minlength=len(table)) / ids.size
        assert drawn[0] == pytest.approx(0.2, abs=0.02)
        assert drawn[1:9].sum() == pytest.approx(0.2, abs=0.02)
        assert drawn[17:].sum() == pytest.approx(0.4, abs=0.02)

    def test_rtt_sampling_near_base(self, pools):
        deployment = self._deployment(pools.akamai_edge, rtt_ms=10.0, rtt_sigma=0.05)
        samples = [deployment.sample_rtt_ms(rng()) for _ in range(50)]
        assert all(7.0 < sample < 14.0 for sample in samples)


class TestServiceInfrastructure:
    def test_shares_normalized(self, infra):
        for service_infra in infra.values():
            shares = service_infra.shares_on(D(2016, 6, 1))
            if shares:
                assert sum(share for _, share in shares) == pytest.approx(1.0)

    def test_pick_server_fields(self, infra):
        choice = infra[catalog.YOUTUBE].pick_server(D(2016, 6, 1), rng())
        assert choice.ip > 0
        assert choice.domain
        assert choice.rtt_ms > 0
        assert choice.asn.name

    @pytest.mark.parametrize(
        "service", (catalog.FACEBOOK, catalog.INSTAGRAM, catalog.YOUTUBE, catalog.OTHER)
    )
    @pytest.mark.parametrize("day", (D(2013, 8, 1), D(2015, 6, 15), D(2017, 6, 1)))
    def test_pick_servers_ids_match_their_deployment(self, infra, service, day):
        """Name ids index names built from a template of the flow's own
        deployment, slots stay in its region, and deployments are picked
        by ``shares_on(day)``."""
        picked = infra[service].pick_servers(day, rng(), 30_000)
        table = infra[service].domain_table
        assert len(set(table)) == len(table)
        assert all(len(column) == 30_000 for column in picked)
        shares = infra[service].shares_on(day)
        for index, (deployment, share) in enumerate(shares):
            here = picked.deployments == index
            assert np.count_nonzero(here) / 30_000 == pytest.approx(share, abs=0.015)
            if not here.any():
                continue
            patterns = [
                re.compile(
                    re.escape(template)
                    .replace(re.escape("{n}"), "[1-8]")
                    .replace(re.escape("{a}"), "[a-h]")
                )
                for template, _ in deployment.domains
            ]
            for name_id in np.unique(picked.names[here]).tolist():
                assert any(p.fullmatch(table[name_id]) for p in patterns), table[name_id]
            slots = picked.slots[here] - deployment.slot_offset
            assert slots.min() >= 0
            assert slots.max() < max(1, int(deployment.active_slots(day)))
            assert np.all(picked.rtts_ms[here] > 0)
        addresses = infra[service].addresses_of(day, picked.deployments, picked.slots)
        assert addresses[:50].tolist() == [
            infra[service]
            .deployments[int(index)]
            .pool.address_for(int(slot), day)
            for index, slot in zip(picked.deployments[:50], picked.slots[:50])
        ]

    def test_pick_server_is_the_one_flow_pick_servers(self, infra):
        facebook, day = infra[catalog.FACEBOOK], D(2014, 3, 1)
        choice = facebook.pick_server(day, rng())
        picked = facebook.pick_servers(day, rng(), 1)
        deployment = facebook.deployments[int(picked.deployments[0])]
        assert choice.domain == facebook.domain_table[int(picked.names[0])]
        assert choice.rtt_ms == float(picked.rtts_ms[0])
        assert (choice.deployment, choice.pool, choice.asn) == (
            deployment.name, deployment.pool.name, deployment.pool.asn,
        )
        assert choice.ip == int(
            facebook.addresses_of(day, picked.deployments, picked.slots)[0]
        )

    def test_requires_deployments(self):
        with pytest.raises(ValueError):
            ServiceInfrastructure("X", [])

    def test_facebook_migration_shifts_asn(self, infra):
        facebook = infra[catalog.FACEBOOK]
        generator = rng()
        early = [
            facebook.pick_server(D(2013, 8, 1), generator).asn.name for _ in range(300)
        ]
        late = [
            facebook.pick_server(D(2017, 6, 1), generator).asn.name for _ in range(300)
        ]
        assert early.count("AKAMAI") > 30
        assert late.count("AKAMAI") == 0
        assert late.count("FACEBOOK") == 300

    def test_youtube_isp_cache_rises(self, infra):
        youtube = infra[catalog.YOUTUBE]
        generator = rng()
        early = [
            youtube.pick_server(D(2014, 6, 1), generator).asn.name for _ in range(200)
        ]
        late = [
            youtube.pick_server(D(2017, 6, 1), generator).asn.name for _ in range(200)
        ]
        assert early.count("ISP") == 0
        assert late.count("ISP") > 100

    def test_youtube_submillisecond_in_2017(self, infra):
        youtube = infra[catalog.YOUTUBE]
        generator = rng()
        rtts = [youtube.pick_server(D(2017, 6, 1), generator).rtt_ms for _ in range(200)]
        sub_ms = sum(1 for rtt in rtts if rtt < 1.0)
        assert sub_ms > 100

    def test_whatsapp_stays_centralized(self, infra):
        whatsapp = infra[catalog.WHATSAPP]
        generator = rng()
        for day in (D(2014, 4, 1), D(2017, 4, 1)):
            rtts = [whatsapp.pick_server(day, generator).rtt_ms for _ in range(50)]
            assert min(rtts) > 60.0

    def test_instagram_separate_fbcdn_range(self, infra):
        """IG and FB use the FB CDN pool but disjoint address regions."""
        generator = rng()
        day = D(2017, 6, 1)
        fb_ips = {
            infra[catalog.FACEBOOK].pick_server(day, generator).ip for _ in range(400)
        }
        ig_ips = {
            infra[catalog.INSTAGRAM].pick_server(day, generator).ip for _ in range(400)
        }
        assert not fb_ips & ig_ips

    def test_akamai_shared_between_services(self, infra):
        """In 2013 FB statics and generic web share Akamai edge addresses."""
        generator = rng()
        day = D(2013, 8, 1)
        fb_ips = set()
        other_ips = set()
        for _ in range(1500):
            fb_choice = infra[catalog.FACEBOOK].pick_server(day, generator)
            if fb_choice.pool == "akamai-edge":
                fb_ips.add(fb_choice.ip)
            other_choice = infra[catalog.OTHER].pick_server(day, generator)
            if other_choice.pool == "akamai-edge":
                other_ips.add(other_choice.ip)
        assert fb_ips & other_ips


class TestRibEmission:
    def test_covers_all_pools(self, pools):
        archive = build_rib_archive(pools)
        day = D(2016, 6, 15)
        for field_name in pools.__dataclass_fields__:
            pool = getattr(pools, field_name)
            for prefix in pool.prefixes:
                origin = archive.origin_of(prefix.nth(1), day)
                assert origin.number == pool.asn.number, pool.name

    def test_monthly_snapshots(self, pools):
        archive = build_rib_archive(pools, D(2014, 1, 1), D(2014, 6, 30))
        assert len(archive) == 6

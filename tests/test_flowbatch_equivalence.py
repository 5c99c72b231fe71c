"""Row vs columnar equivalence: the FlowBatch tier must be invisible.

The repo's invariant — "parallelism changes wall-clock, never results" —
extends to batching.  Production has one columnar body per stage-1 flow
analytic; the row loops it replaced live on here as ``oracle_*`` functions
over ``list(batch)``, and every analytic — fed the batch, or fed the rows
and left to normalise them itself — must return exactly what its oracle
returns, a whole study included, bit for bit.
"""

import dataclasses
import datetime
import pickle

import numpy as np
import pytest

from repro.analytics import rtt as rtt_analytics
from repro.analytics.aggregate import classify_flow
from repro.analytics.infrastructure import (
    AsnBreakdown,
    DailyServerStats,
    ServicePairs,
    asn_breakdown,
    asn_of_addresses,
    daily_ip_roles,
    daily_server_census,
    domain_shares,
    service_ip_set,
)
from repro.core.config import StudyConfig
from repro.core.parallel import execute_study
from repro.core.study import (
    INFRA_SERVICES,
    RTT_SERVICES,
    LongitudinalStudy,
    StudyData,
    aggregate_usage_day,
)
from repro.services import catalog
from repro.synthesis.flowgen import TrafficGenerator
from repro.synthesis.population import Technology
from repro.synthesis.world import World, WorldConfig
from repro.tstat.flow import (
    FlowRecord,
    NameSource,
    RttSummary,
    Transport,
    WebProtocol,
    second_level_domain,
)
from repro.tstat.flowbatch import FlowBatch

D = datetime.date
DAY = D(2016, 9, 14)
SEEDS = (3, 11, 29)


def _world(seed):
    return World(WorldConfig(seed=seed, adsl_count=60, ftth_count=30))


def _stage1_results(world, flows, rules, codes=None):
    """Every stage-1 flow consumer the study's flow tier feeds."""
    results = {
        "census": daily_server_census(
            flows, rules, list(INFRA_SERVICES), DAY, codes=codes
        ),
        "roles": daily_ip_roles(
            flows, rules, list(INFRA_SERVICES), DAY, codes=codes
        ),
    }
    for service in INFRA_SERVICES:
        results[("asn", service)] = asn_breakdown(
            flows, rules, world.rib, service, DAY, codes=codes
        )
        results[("domains", service)] = domain_shares(
            flows, rules, service, codes=codes
        )
        results[("ips", service)] = service_ip_set(
            flows, rules, service, codes=codes
        )
    for service in RTT_SERVICES:
        results[("rtt", service)] = rtt_analytics.min_rtt_samples(
            flows, rules, service, codes=codes
        )
    return results


# -- the oracle: the row loops production no longer has ------------------------


def oracle_census(records, rules, services, day):
    ips_by_service = {service: set() for service in services}
    services_by_ip = {}
    for record in records:
        service = classify_flow(record, rules)
        services_by_ip.setdefault(record.server_ip, set()).add(service)
        if service in ips_by_service:
            ips_by_service[service].add(record.server_ip)
    stats = []
    for service in services:
        dedicated = 0
        shared = 0
        for address in ips_by_service[service]:
            if len(services_by_ip[address]) > 1:
                shared += 1
            else:
                dedicated += 1
        stats.append(
            DailyServerStats(
                day=day, service=service, dedicated_ips=dedicated, shared_ips=shared
            )
        )
    return stats


def oracle_ip_roles(records, rules, services):
    services_by_ip = {}
    for record in records:
        service = classify_flow(record, rules)
        services_by_ip.setdefault(record.server_ip, set()).add(service)
    roles = {service: {} for service in services}
    for address, owners in services_by_ip.items():
        shared = len(owners) > 1
        for service in owners:
            if service in roles:
                roles[service][address] = shared
    return roles


def oracle_ip_set(records, rules, service):
    return {
        record.server_ip
        for record in records
        if classify_flow(record, rules) == service
    }


def oracle_asn_counts(addresses, rib, day, top_asns=None):
    """The scalar join ``asn_of_addresses`` replaced: one trie lookup per
    address, names counted in order of first appearance."""
    counts = {}
    for address in addresses:
        name = rib.origin_of(address, day).name
        if top_asns is not None and name not in top_asns:
            name = "OTHER"
        counts[name] = counts.get(name, 0) + 1
    return counts


def oracle_asn(records, rules, rib, service, day):
    addresses = sorted(oracle_ip_set(records, rules, service))
    return AsnBreakdown(
        day=day, service=service, counts=oracle_asn_counts(addresses, rib, day)
    )


def oracle_distinct_pairs(ips, codes):
    """The stacked two-row dedup ``ServicePairs.distinct`` replaced."""
    if len(ips) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.zeros(0, dtype=bool)
    pairs = np.unique(np.stack((ips, codes)), axis=1)
    _, inverse, counts = np.unique(pairs[0], return_inverse=True, return_counts=True)
    return pairs[0], pairs[1], counts[inverse] > 1


def oracle_domain_shares(records, rules, service):
    volumes = {}
    total = 0
    for record in records:
        if classify_flow(record, rules) != service:
            continue
        if not record.server_name:
            continue
        sld = second_level_domain(record.server_name)
        volumes[sld] = volumes.get(sld, 0) + record.total_bytes
        total += record.total_bytes
    if total == 0:
        return {}
    return {domain: volume / total for domain, volume in volumes.items()}


def oracle_min_rtt(records, rules, service, min_samples=1):
    samples = []
    for record in records:
        if record.transport is not Transport.TCP:
            continue
        if record.rtt.samples < min_samples:
            continue
        if rules.classify(record.server_name) != service:
            continue
        samples.append(record.rtt.min_ms)
    return samples


def _oracle_results(world, records, rules):
    """:func:`_stage1_results`, recomputed row by row."""
    services = list(INFRA_SERVICES)
    results = {
        "census": oracle_census(records, rules, services, DAY),
        "roles": oracle_ip_roles(records, rules, services),
    }
    for service in INFRA_SERVICES:
        results[("asn", service)] = oracle_asn(records, rules, world.rib, service, DAY)
        results[("domains", service)] = oracle_domain_shares(records, rules, service)
        results[("ips", service)] = oracle_ip_set(records, rules, service)
    for service in RTT_SERVICES:
        results[("rtt", service)] = oracle_min_rtt(records, rules, service)
    return results


@pytest.mark.parametrize("seed", SEEDS)
class TestRowColumnarEquivalence:
    def test_roundtrip_is_identity(self, seed):
        batch = TrafficGenerator(_world(seed)).expand_flows_batch(DAY)
        records = list(batch)
        assert len(records) == len(batch)
        rebuilt = FlowBatch.of(records)
        assert rebuilt is not batch and rebuilt == batch
        assert list(rebuilt) == records

    def test_records_cover_both_technologies(self, seed):
        world = _world(seed)
        records = TrafficGenerator(world).expand_flows(DAY)
        technologies = {
            world.population.by_id(record.client_id).technology
            for record in records
        }
        assert technologies == {Technology.ADSL, Technology.FTTH}

    def test_stage1_analytics_identical(self, seed):
        world = _world(seed)
        rules = catalog.default_ruleset()
        batch = TrafficGenerator(world).expand_flows_batch(DAY)
        records = list(batch)
        oracle = _oracle_results(world, records, rules)
        view = batch.service_view(rules)
        columnar = _stage1_results(world, batch, rules, codes=view)
        normalised = _stage1_results(world, records, rules)
        assert set(oracle) == set(columnar) == set(normalised)
        for key in oracle:
            assert oracle[key] == columnar[key], key
            assert oracle[key] == normalised[key], key

    def test_shared_view_matches_fresh_classification(self, seed):
        world = _world(seed)
        rules = catalog.default_ruleset()
        batch = TrafficGenerator(world).expand_flows_batch(DAY)
        shared = _stage1_results(
            world, batch, rules, codes=batch.service_view(rules)
        )
        fresh = _stage1_results(world, batch, rules)
        assert shared == fresh


def _single_record():
    rtt = RttSummary()
    for sample in (12.5, 11.25, 13.0):
        rtt.add(sample)
    return FlowRecord(
        client_id=7,
        server_ip=0x5DB8D822,
        client_port=51000,
        server_port=443,
        transport=Transport.TCP,
        ts_start=10.0,
        ts_end=42.0,
        packets_up=20,
        packets_down=80,
        bytes_up=4_000,
        bytes_down=120_000,
        protocol=WebProtocol.TLS,
        server_name="static.fbcdn.net",
        name_source=NameSource.SNI,
        rtt=rtt,
    )


class TestEdgeCases:
    def test_empty_batch(self):
        world = _world(1)
        rules = catalog.default_ruleset()
        empty = FlowBatch.of([])
        assert len(empty) == 0
        assert list(empty) == []
        rows = _oracle_results(world, [], rules)
        columnar = _stage1_results(
            world, empty, rules, codes=empty.service_view(rules)
        )
        assert rows == columnar == _stage1_results(world, [], rules)

    def test_single_flow_batch(self):
        world = _world(1)
        rules = catalog.default_ruleset()
        record = _single_record()
        batch = FlowBatch.of([record])
        assert list(batch) == [record]
        rows = _oracle_results(world, [record], rules)
        columnar = _stage1_results(
            world, batch, rules, codes=batch.service_view(rules)
        )
        assert rows == columnar == _stage1_results(world, [record], rules)
        assert columnar[("rtt", catalog.FACEBOOK)] == [11.25]
        assert batch.total_bytes == record.total_bytes


class TestVectorisedJoins:
    """The packed-key pair dedup and the interval ASN join against the
    loops they replaced — values, dtypes and orders, which the pickled
    partials carry."""

    @staticmethod
    def assert_pairs(pairs, ips, codes):
        for mine, theirs in zip(
            (pairs.ips, pairs.codes, pairs.shared), oracle_distinct_pairs(ips, codes)
        ):
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs)
            # a shard's sidecar carries these arrays, and its bytes are pinned
            assert pickle.dumps(mine, protocol=5) == pickle.dumps(theirs, protocol=5)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("services", (1, 2, 7))
    def test_distinct_pairs_match_the_stacked_dedup(self, seed, services):
        rng = np.random.default_rng(seed)
        names = tuple(f"s{index}" for index in range(services))
        # few addresses, so they repeat and are shared; both ends of IPv4
        pool = np.concatenate(
            [rng.integers(0, 1 << 32, 40), [0, (1 << 32) - 1]]
        ).astype(np.int64)
        ips = rng.choice(pool, 600)
        codes = rng.integers(0, services, 600)
        pairs = ServicePairs.distinct(ips, codes, names)
        self.assert_pairs(pairs, ips, codes)
        assert pairs.services == names
        assert (services > 1) == bool(pairs.shared.any())

    def test_distinct_pairs_of_nothing(self):
        empty = np.empty(0, dtype=np.int64)
        pairs = ServicePairs.distinct(empty, empty, ("a", "b"))
        self.assert_pairs(pairs, empty, empty)
        assert pairs.addresses("a") == [] and pairs.census(DAY, "a").total_ips == 0

    def test_union_of_parts_with_disjoint_service_tables(self):
        rng = np.random.default_rng(4)
        pool = rng.integers(0, 1 << 32, 30)
        parts, ips, codes = [], [], []
        for offset, names in ((0, ("a", "b")), (2, ("c",)), (3, ("d", "e", "f"))):
            part_ips = rng.choice(pool, 200)
            part_codes = rng.integers(0, len(names), 200)
            parts.append((part_ips, part_codes, names))
            ips.append(part_ips)
            codes.append(part_codes + offset)
        pairs = ServicePairs.union(parts)
        assert pairs.services == ("a", "b", "c", "d", "e", "f")
        self.assert_pairs(pairs, np.concatenate(ips), np.concatenate(codes))
        assert ServicePairs.union([]).ips.size == 0

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("top_asns", (None, ["AKAMAI", "FACEBOOK"]))
    def test_asn_join_matches_the_scalar_loop(self, seed, top_asns):
        world = _world(seed)
        rng = np.random.default_rng(seed)
        routed = [
            prefix.nth(int(rng.integers(prefix.size())))
            for entry in world.rib.snapshot_for(DAY).entries
            for prefix in [entry.prefix] * 6
        ]
        addresses = sorted(set(routed + rng.integers(0, 1 << 32, 60).tolist()))
        for day in (DAY, D(2012, 1, 1)):  # the second: before any snapshot
            got = asn_of_addresses(addresses, world.rib, "svc", day, top_asns)
            expected = oracle_asn_counts(addresses, world.rib, day, top_asns)
            assert list(got.counts.items()) == list(expected.items())
            assert all(type(count) is int for count in got.counts.values())
        from_array = asn_of_addresses(np.array(addresses), world.rib, "svc", DAY)
        assert from_array == asn_of_addresses(addresses, world.rib, "svc", DAY)
        assert asn_of_addresses([], world.rib, "svc", DAY).counts == {}


def _tiny_config(seed=17):
    return StudyConfig(
        world=WorldConfig(
            seed=seed,
            adsl_count=40,
            ftth_count=20,
            start=D(2014, 1, 1),
            end=D(2014, 6, 30),
        ),
        day_stride=6,
        flow_days_per_month=1,
        rtt_days_per_comparison_month=1,
    )


def row_path_study(config):
    """The study recomputed on FlowRecord rows: no batch view, no shards.

    A standalone oracle for :class:`LongitudinalStudy`'s single day
    method: whole-day generation, the shared aggregate stage, and every
    flow consumer recomputed by its ``oracle_*`` row loop over the
    ``expand_flows`` records — the pre-batch row pipeline the columnar
    study output must equal bit for bit.
    """
    study = LongitudinalStudy(config)
    generator, rules = study.generator, study.rules
    data = study.empty_data()
    plan = study.planned_days()
    for day in sorted(plan):
        traffic = generator.generate_day(day)
        if not traffic.usage:
            continue
        aggregate_usage_day(
            data, day, traffic.usage, study.criterion, study.visit_classifier
        )
        data.protocol_rows.extend(traffic.protocols)
        if "hourly" in plan[day]:
            data.hourly.extend(generator.generate_hourly(day, traffic))
        if "flows" not in plan[day]:
            continue
        flows = generator.expand_flows(
            day, traffic, max_flows_per_usage=config.max_flows_per_usage
        )
        data.flow_days.append(day)
        data.census.extend(oracle_census(flows, rules, list(INFRA_SERVICES), day))
        roles_by_service = oracle_ip_roles(flows, rules, list(INFRA_SERVICES))
        for service in INFRA_SERVICES:
            data.asn.append(oracle_asn(flows, rules, study.world.rib, service, day))
            data.domains.append(
                (day, service, oracle_domain_shares(flows, rules, service))
            )
            data.daily_ip_sets.setdefault(service, []).append(
                (day, oracle_ip_set(flows, rules, service))
            )
            data.daily_ip_roles.setdefault(service, []).append(
                (day, roles_by_service[service])
            )
        if "rtt" in plan[day]:
            for service in RTT_SERVICES:
                data.rtt_samples.setdefault((service, day.year), []).extend(
                    oracle_min_rtt(flows, rules, service)
                )
    return data


class TestFullStudyIdentity:
    @pytest.fixture(scope="class")
    def batched(self):
        return LongitudinalStudy(_tiny_config()).run()

    @pytest.fixture(scope="class")
    def row_path(self):
        return row_path_study(_tiny_config())

    @pytest.fixture(scope="class")
    def parallel(self):
        return execute_study(_tiny_config(), workers=3).data

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(StudyData)]
    )
    def test_batched_equals_row_path(self, batched, row_path, field):
        # Serial vs serial: same iteration order, so raw equality holds.
        assert getattr(batched, field) == getattr(row_path, field)

    def test_flow_and_rtt_day_builds_no_flow_record(self, monkeypatch):
        """A study day with every flow consumer on it stays columns from
        the generator to the partial: no :class:`FlowRecord` is constructed."""
        study = LongitudinalStudy(_tiny_config())
        plan = study.planned_days()
        day = next(day for day in sorted(plan) if {"flows", "rtt"} <= plan[day])
        built = []
        construct = FlowRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            construct(self, *args, **kwargs)

        monkeypatch.setattr(FlowRecord, "__init__", counting_init)
        partial = study.day_partial(day, plan[day])
        assert partial.flow_days == [day] and partial.census and partial.domains
        assert any(partial.rtt_samples.values())
        assert built == []

    def test_parallel_equals_row_path_flow_fields(self, parallel, row_path):
        # Chunked merges reorder the per-day lists; compare canonically.
        by_day_service = lambda entry: (entry.day, entry.service)
        assert sorted(parallel.census, key=by_day_service) == sorted(
            row_path.census, key=by_day_service
        )
        assert sorted(parallel.asn, key=by_day_service) == sorted(
            row_path.asn, key=by_day_service
        )
        assert sorted(parallel.domains, key=lambda e: e[:2]) == sorted(
            row_path.domains, key=lambda e: e[:2]
        )
        assert set(parallel.daily_ip_sets) == set(row_path.daily_ip_sets)
        for service in row_path.daily_ip_sets:
            assert sorted(parallel.daily_ip_sets[service]) == sorted(
                row_path.daily_ip_sets[service]
            )
        assert set(parallel.daily_ip_roles) == set(row_path.daily_ip_roles)
        for service in row_path.daily_ip_roles:
            by_day = lambda entry: entry[0]
            assert sorted(
                parallel.daily_ip_roles[service], key=by_day
            ) == sorted(row_path.daily_ip_roles[service], key=by_day)
        assert parallel.flow_days == row_path.flow_days
        assert set(parallel.rtt_samples) == set(row_path.rtt_samples)
        for key in row_path.rtt_samples:
            # Bit-identical samples, order canonicalized across chunks.
            assert sorted(parallel.rtt_samples[key]) == sorted(
                row_path.rtt_samples[key]
            )

"""Pipeline benchmarks: the substrates' throughput.

Not tied to one figure — these time the components every figure depends
on: the probe's packet path, the traffic generator's tiers, stage-1
aggregation over flow columns, and the LPM trie join.
"""

import datetime

from conftest import SMOKE

from repro.analytics.aggregate import aggregate_usage
from repro.analytics.infrastructure import (
    asn_breakdown,
    daily_ip_roles,
    daily_server_census,
    domain_shares,
    service_ip_set,
)
from repro.analytics.rtt import min_rtt_samples
from repro.core.study import INFRA_SERVICES, RTT_SERVICES
from repro.nettypes.ip import Prefix, ip_to_int
from repro.routing.trie import PrefixTrie
from repro.services import catalog
from repro.synthesis.flowgen import TrafficGenerator
from repro.synthesis.packetgen import FlowSpec, PacketSynthesizer
from repro.synthesis.world import World, WorldConfig
from repro.telemetry import Telemetry, VirtualClock, activate
from repro.tstat.flow import WebProtocol
from repro.tstat.flowbatch import FlowBatch
from repro.tstat.probe import Probe, ProbeConfig

DAY = datetime.date(2016, 9, 14)
ALL_ROLES = {"aggregate", "hourly", "flows", "rtt"}


def _world():
    if SMOKE:
        return World(WorldConfig(seed=1, adsl_count=40, ftth_count=20))
    return World(WorldConfig(seed=1, adsl_count=200, ftth_count=100))


def _stage1_flow_analytics(world, flows, rules, codes=None):
    """The per-day stage-1 consumers of the study's flow tier."""
    census = daily_server_census(
        flows, rules, list(INFRA_SERVICES), DAY, codes=codes
    )
    roles = daily_ip_roles(
        flows, rules, list(INFRA_SERVICES), DAY, codes=codes
    )
    per_service = []
    for service in INFRA_SERVICES:
        per_service.append(
            (
                asn_breakdown(flows, rules, world.rib, service, DAY, codes=codes),
                domain_shares(flows, rules, service, codes=codes),
                service_ip_set(flows, rules, service, codes=codes),
            )
        )
    samples = [
        min_rtt_samples(flows, rules, service, codes=codes)
        for service in RTT_SERVICES
    ]
    return census, roles, per_service, samples


def test_probe_packet_throughput(benchmark):
    """Packets/second through decode → meter → DPI → export."""
    client = ip_to_int("10.1.0.9")
    specs = [
        FlowSpec(
            client,
            ip_to_int("93.184.216.0") + index,
            40000 + index,
            443,
            WebProtocol.TLS,
            f"host-{index}.example.net",
            rtt_ms=5.0,
            bytes_down=30_000,
            bytes_up=2_000,
            start_ts=index * 0.01,
        )
        for index in range(100)
    ]
    packets = PacketSynthesizer(seed=2).synthesize(specs)

    def run_probe():
        probe = Probe(ProbeConfig.for_pop("pop1", ["10.1.0.0/16"]))
        return probe.run(packets)

    records = benchmark(run_probe)
    assert len(records) == 100
    benchmark.extra_info["packets"] = len(packets)


def test_aggregate_tier_generation(benchmark):
    """One day of the aggregate tier (the 54-month figures' input)."""
    generator = TrafficGenerator(_world())
    traffic = benchmark(generator.generate_day, DAY)
    assert traffic.usage


def test_flow_tier_expansion_columnar(benchmark):
    """One day of probe-grade flows (RTT/infrastructure input), assembled
    straight into a FlowBatch."""
    generator = TrafficGenerator(_world())
    traffic = generator.generate_day(DAY)
    batch = benchmark(generator.expand_flows_batch, DAY, traffic)
    assert len(batch)
    benchmark.extra_info["flows"] = len(batch)


def test_stage1_flow_analytics_columnar(benchmark):
    """Stage-1 infrastructure + RTT consumers over a FlowBatch with one
    shared classification."""
    world = _world()
    generator = TrafficGenerator(world)
    rules = catalog.default_ruleset()
    batch = generator.expand_flows_batch(DAY)

    def job():
        codes = batch.service_view(rules)
        return _stage1_flow_analytics(world, batch, rules, codes=codes)

    census, _, _, samples = benchmark(job)
    assert census and any(samples)
    benchmark.extra_info["flows"] = len(batch)


def test_stage1_aggregation_job(benchmark):
    """Stage-1 reduce over one day of flow records: classify once per name,
    group by (subscriber, service, vantage), sum the columns."""
    generator = TrafficGenerator(_world())
    rules = catalog.default_ruleset()
    batch = generator.expand_flows_batch(DAY)

    def job():
        # a fresh batch each round, so its classification is not memoized
        fresh = FlowBatch(batch.codec, batch.columns, batch.dictionaries)
        return aggregate_usage(fresh, rules, DAY)

    rows = benchmark(job)
    assert rows
    usage_bytes = rows.columns["bytes_down"].sum() + rows.columns["bytes_up"].sum()
    assert usage_bytes == batch.total_bytes.sum()
    benchmark.extra_info["flows"] = len(batch)


def test_datalake_day_roundtrip(benchmark, tmp_path):
    """Archive + reload one day of stage-1 usage rows (gzip TSV lake)."""
    from repro.dataflow.datalake import DataLake
    from repro.synthesis.flowgen import USAGE_CODEC

    generator = TrafficGenerator(_world())
    rows = generator.generate_day(DAY).usage
    lake = DataLake(tmp_path / "lake")

    def roundtrip():
        lake.write_day("usage", DAY, rows, USAGE_CODEC)
        return lake.read_day("usage", DAY, USAGE_CODEC).count()

    count = benchmark(roundtrip)
    assert count == len(rows)
    benchmark.extra_info["rows"] = len(rows)


def test_datalake_day_roundtrip_v2(benchmark, tmp_path):
    """Archive + reload one day of usage rows as a v2 column chunk."""
    from repro.dataflow.datalake import DataLake
    from repro.synthesis.flowgen import USAGE_CODEC

    generator = TrafficGenerator(_world())
    rows = generator.generate_day(DAY).usage
    lake = DataLake(tmp_path / "lake", write_format="v2")

    def roundtrip():
        lake.write_day("usage", DAY, rows, USAGE_CODEC)
        return lake.read_day("usage", DAY, USAGE_CODEC).count()

    count = benchmark(roundtrip)
    assert count == len(rows)
    benchmark.extra_info["rows"] = len(rows)


def _range_lake(tmp_path):
    """A v2 lake holding several weeks of usage partitions."""
    from repro.dataflow.datalake import DataLake
    from repro.synthesis.flowgen import USAGE_CODEC

    generator = TrafficGenerator(_world())
    lake = DataLake(tmp_path / "lake", write_format="v2")
    day_count = 4 if SMOKE else 16
    days = [DAY + datetime.timedelta(days=index) for index in range(day_count)]
    for day in days:
        rows = generator.generate_day(day).usage
        lake.write_day("usage", day, rows, USAGE_CODEC)
    return lake, days, USAGE_CODEC


def test_lake_read_range_full(benchmark, tmp_path):
    """Full-range scan over every v2 usage partition (no predicate)."""
    lake, days, codec = _range_lake(tmp_path)

    def scan():
        return lake.read_range("usage", days[0], days[-1], codec).count()

    count = benchmark(scan)
    assert count
    benchmark.extra_info["days"] = len(days)
    benchmark.extra_info["rows"] = count


def test_lake_read_range_pruned(benchmark, tmp_path):
    """Selective read: a one-day predicate zone-prunes all other chunks.

    The acceptance target is ≥5× over ``test_lake_read_range_full``.
    """
    from repro.dataflow.columnar import ScanPredicate

    lake, days, codec = _range_lake(tmp_path)
    target = days[len(days) // 2]
    where = ScanPredicate.of(day_range=(target, target))

    def scan():
        return lake.read_range(
            "usage", days[0], days[-1], codec, where=where
        ).count()

    count = benchmark(scan)
    assert count == lake.read_day("usage", target, codec).count()
    benchmark.extra_info["days"] = len(days)
    benchmark.extra_info["rows"] = count


def test_study_day_telemetry_off(benchmark, study):
    """One full study day with telemetry at its default (no-op) registry.

    The baseline for the <2% disabled-overhead budget: every counter and
    span site still executes, but lands on the inert ``NULL`` bundle.
    """
    data = benchmark(study.day_partial, DAY, ALL_ROLES)
    assert data.subscriber_days


def test_study_day_telemetry_on(benchmark, study):
    """The same day with a live registry + virtual-clock span recorder."""

    def job():
        bundle = Telemetry(VirtualClock())
        with activate(bundle):
            result = study.day_partial(DAY, ALL_ROLES)
        return result, bundle.snapshot()

    data, snapshot = benchmark(job)
    assert data.subscriber_days
    assert snapshot.metrics.counters
    benchmark.extra_info["counters"] = len(snapshot.metrics.counters)
    benchmark.extra_info["spans"] = len(snapshot.spans)


def test_shard_scaling_day(benchmark):
    """Near-linear shard scaling over one heavy study day (DESIGN.md §15).

    A 100k-subscriber day (SMOKE: toy scale) runs once as one range task
    (``day_partial``: the whole population, same code) and once as 4
    subscriber-range shard tasks plus the fan-in merge.  On a
    single CPU the honest figure is the *critical path*: the slowest
    shard plus ``merge_day_shards``, which is what a 4-worker pool would
    wait on.  ``extra_info`` carries the measured speedup; the §15
    acceptance bar is ≥3x at 4 shards over 1 shard at full scale.  The
    benchmark's own timing covers one shard task (the steady-state unit
    of sharded dispatch).

    Timed with the session heap frozen out of GC: by this point the
    bench session carries every earlier fixture's objects, and gen-2
    collections over that heap during the minutes-long timed regions
    would skew the shard/unsharded ratio run-order-dependently.
    """
    import gc
    from time import perf_counter

    from repro.core.config import StudyConfig
    from repro.core.shards import plan_shards
    from repro.core.study import LongitudinalStudy, merge_day_shards

    if SMOKE:
        world = WorldConfig(seed=1, adsl_count=40, ftth_count=20)
    else:
        world = WorldConfig(seed=1, adsl_count=66_000, ftth_count=34_000)
    config = StudyConfig(world=world, max_flows_per_usage=8)
    study = LongitudinalStudy(config)
    _ = study.world.population  # build the world outside the timings
    shards = 4

    gc.collect()
    gc.freeze()
    try:
        start = perf_counter()
        whole = study.day_partial(DAY, ALL_ROLES)
        t_unsharded = perf_counter() - start

        specs = plan_shards(len(study.world.population), shards)
        parts = []
        shard_times = []
        for spec in specs:
            gc.collect()
            gc.freeze()  # prior results (whole, earlier shards) too
            start = perf_counter()
            parts.append(study.day_shard_partial(DAY, ALL_ROLES, spec))
            shard_times.append(perf_counter() - start)
        start = perf_counter()
        merged = merge_day_shards(DAY, parts, study.world.rib)
        t_merge = perf_counter() - start
    finally:
        gc.unfreeze()
    assert merged == whole  # bit-identical fan-in at full scale

    critical_path = max(shard_times) + t_merge
    speedup = t_unsharded / critical_path
    benchmark.extra_info["subscribers"] = len(study.world.population)
    benchmark.extra_info["shards"] = shards
    benchmark.extra_info["unsharded_s"] = round(t_unsharded, 4)
    benchmark.extra_info["critical_path_s"] = round(critical_path, 4)
    benchmark.extra_info["merge_s"] = round(t_merge, 4)
    benchmark.extra_info["speedup"] = round(speedup, 3)

    slowest = specs[shard_times.index(max(shard_times))]
    data, _ = benchmark.pedantic(
        study.day_shard_partial,
        args=(DAY, ALL_ROLES, slowest),
        rounds=1,
        iterations=1,
    )
    assert data.subscriber_days
    if not SMOKE:
        assert speedup >= 3.0, (
            f"shard scaling regressed: {speedup:.2f}x < 3x "
            f"(unsharded {t_unsharded:.2f}s, critical {critical_path:.2f}s)"
        )


def test_lpm_trie_lookups(benchmark):
    """IP→ASN joins: the Fig. 11d-f hot loop."""
    trie = PrefixTrie()
    for index in range(512):
        network = (10 << 24) | (index << 12)
        trie.insert(Prefix(network, 20), index)
    addresses = [(10 << 24) | (index << 12) | 7 for index in range(512)] * 20

    def lookups():
        return [trie.lookup(address) for address in addresses]

    results = benchmark(lookups)
    assert results[0] == 0

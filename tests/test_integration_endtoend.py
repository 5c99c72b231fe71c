"""End-to-end integration: packets → probe → log → lake → stage-1 → stage-2.

This drives the whole Figure-1 pipeline of the paper on wire-format input:
synthetic packets are metered by the probe, exported as a daily flow log,
ingested into the data lake, aggregated by the columnar stage-1 jobs and finally
classified/analyzed — every layer of the reproduction in one pass.
"""

import datetime

import pytest

from repro.analytics.activity import subscriber_days
from repro.analytics.aggregate import aggregate_protocols, aggregate_usage
from repro.analytics.popularity import daily_service_stats
from repro.analytics.rtt import min_rtt_samples
from repro.dataflow.datalake import FLOW_CODEC, DataLake
from repro.nettypes.ip import ip_to_int
from repro.services import catalog
from repro.services.thresholds import no_threshold_classifier
from repro.synthesis.packetgen import FlowSpec, PacketSynthesizer
from repro.tstat.flow import WebProtocol
from repro.tstat.flowbatch import FlowBatch
from repro.tstat.logs import load_flow_log
from repro.tstat.probe import Probe, ProbeConfig

DAY = datetime.date(2017, 4, 12)


def _specs():
    """Two subscribers with distinct service diets."""
    sub1 = ip_to_int("10.1.0.11")
    sub2 = ip_to_int("10.1.0.22")
    youtube_cache = ip_to_int("151.99.0.8")
    facebook_edge = ip_to_int("31.13.64.14")
    google = ip_to_int("74.125.0.5")
    whatsapp = ip_to_int("158.85.224.3")
    web = ip_to_int("104.16.0.99")
    specs = []
    # Subscriber 1: YouTube (QUIC at the in-PoP cache) + Facebook (Zero).
    for index in range(5):
        specs.append(
            FlowSpec(
                sub1, youtube_cache, 42000 + index, 443, WebProtocol.QUIC,
                "r3---sn-ab5l6nzr.googlevideo.com", rtt_ms=0.5,
                bytes_down=40_000, bytes_up=2_000, start_ts=index * 2.0,
            )
        )
    for index in range(4):
        specs.append(
            FlowSpec(
                sub1, facebook_edge, 43000 + index, 443, WebProtocol.FBZERO,
                "scontent-mxp1-1.fbcdn.net", rtt_ms=3.0,
                bytes_down=30_000, bytes_up=3_000, start_ts=10 + index * 2.0,
            )
        )
    specs.append(
        FlowSpec(
            sub1, google, 44000, 443, WebProtocol.TLS, "www.google.com",
            rtt_ms=3.2, bytes_down=18_000, bytes_up=2_500, start_ts=20.0,
        )
    )
    # Subscriber 2: WhatsApp via DNS-named opaque flows + plain web.
    for index in range(6):
        specs.append(
            FlowSpec(
                sub2, whatsapp, 45000 + index, 5222, WebProtocol.OTHER,
                "e4.whatsapp.net", rtt_ms=104.0,
                bytes_down=9_000, bytes_up=6_000, start_ts=30 + index * 2.0,
                with_dns=(index == 0),
            )
        )
    for index in range(5):
        specs.append(
            FlowSpec(
                sub2, web + index, 46000 + index, 80, WebProtocol.HTTP,
                "news.example-site.org", rtt_ms=28.0,
                bytes_down=25_000, bytes_up=2_000, start_ts=45 + index * 2.0,
            )
        )
    return specs


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, rules):
    packets = PacketSynthesizer(seed=11).synthesize(_specs())
    probe = Probe(
        ProbeConfig.for_pop("pop1", ["10.1.0.0/16"], software_date=DAY)
    )
    log_path = tmp_path_factory.mktemp("probe") / "day.tsv.gz"
    written = probe.run_to_log(packets, log_path)
    lake = DataLake(tmp_path_factory.mktemp("lake"))
    lake.write_day("flows", DAY, load_flow_log(log_path), FLOW_CODEC, source="pop1")
    flows = FlowBatch.concat(lake.read_day("flows", DAY, FLOW_CODEC).blocks(), FLOW_CODEC)
    usage = aggregate_usage(flows, rules, DAY)
    protocols = aggregate_protocols(flows, rules, DAY)
    return {
        "probe": probe,
        "written": written,
        "lake": lake,
        "flows": flows,
        "usage": usage,
        "protocols": protocols,
    }


class TestPipeline:
    def test_all_flows_logged(self, pipeline):
        # 21 application flows + 1 DNS exchange flow.
        assert pipeline["written"] == 22
        assert len(pipeline["flows"]) == 22

    def test_services_recovered(self, pipeline, rules):
        by_service = {}
        for row in pipeline["usage"]:
            by_service.setdefault(row.service, 0)
            by_service[row.service] += row.flows
        assert by_service[catalog.YOUTUBE] == 5
        assert by_service[catalog.FACEBOOK] == 4
        assert by_service[catalog.GOOGLE] == 1
        assert by_service[catalog.WHATSAPP] == 6  # named purely via DN-Hunter
        assert by_service[catalog.OTHER] >= 5

    def test_anonymization_holds(self, pipeline):
        """No subscriber-side raw address may survive into the lake."""
        raw = {ip_to_int("10.1.0.11"), ip_to_int("10.1.0.22")}
        for record in pipeline["flows"]:
            assert record.client_id not in raw

    def test_protocol_labels(self, pipeline):
        labels = {
            (row.service, row.protocol): row.total_bytes
            for row in pipeline["protocols"]
        }
        assert (catalog.YOUTUBE, WebProtocol.QUIC) in labels
        assert (catalog.FACEBOOK, WebProtocol.FBZERO) in labels
        assert (catalog.GOOGLE, WebProtocol.TLS) in labels

    def test_rtt_distances_recovered(self, pipeline, rules):
        flows = pipeline["flows"]
        whatsapp = min_rtt_samples(flows, rules, catalog.WHATSAPP)
        facebook = min_rtt_samples(flows, rules, catalog.FACEBOOK)
        assert min(whatsapp) > 80.0  # centralized
        assert max(facebook) < 10.0  # edge CDN

    def test_quic_volume_attributed_without_rtt(self, pipeline, rules):
        youtube = min_rtt_samples(pipeline["flows"], rules, catalog.YOUTUBE)
        assert youtube == []  # QUIC carries no TCP RTT samples

    def test_stage2_popularity(self, pipeline):
        days = subscriber_days(pipeline["usage"])
        stats = daily_service_stats(
            pipeline["usage"], days, classifier=no_threshold_classifier()
        )
        youtube = next(cell for cell in stats if cell.service == catalog.YOUTUBE)
        # One of the two subscribers used YouTube (packet-tier volumes are
        # tiny, so the ablation classifier stands in for the thresholds).
        assert youtube.active_subscribers == 2
        assert youtube.visitors == 1
        assert youtube.popularity == 0.5

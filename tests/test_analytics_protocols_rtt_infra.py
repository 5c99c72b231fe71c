"""Tests for protocol-share, RTT and infrastructure analytics."""

import datetime

import pytest

from repro.analytics.infrastructure import (
    asn_breakdown,
    daily_server_census,
    domain_shares,
    service_ip_set,
)
from repro.analytics.protocols import (
    detect_jumps,
    monthly_protocol_shares,
    service_protocol_volume,
    share_series,
)
from repro.analytics.rtt import (
    RttSummaryStats,
    min_rtt_samples,
    rtt_distribution,
    summarize_services,
)
from repro.nettypes.ip import ip_to_int
from repro.routing import asns
from repro.routing.rib import RibArchive, RibEntry, RibSnapshot
from repro.nettypes.ip import Prefix
from repro.services import catalog
from repro.synthesis.flowgen import ProtocolUsage
from repro.tstat.flowbatch import FlowBatch
from repro.tstat.flow import (
    FlowRecord,
    NameSource,
    RttSummary,
    Transport,
    WebProtocol,
)

D = datetime.date
DAY = D(2016, 9, 14)


def protocol_row(day, protocol, total, service="Other"):
    return ProtocolUsage(day=day, service=service, protocol=protocol, total_bytes=total)


def flow(name, ip_text="1.2.3.4", rtt_min=5.0, protocol=WebProtocol.TLS,
         transport=Transport.TCP, down=1000, samples=3):
    return FlowRecord(
        client_id=1,
        server_ip=ip_to_int(ip_text),
        client_port=1,
        server_port=443,
        transport=transport,
        ts_start=0.0,
        ts_end=1.0,
        bytes_down=down,
        bytes_up=down // 10,
        protocol=protocol,
        server_name=name,
        name_source=NameSource.SNI if name else NameSource.NONE,
        rtt=RttSummary(samples=samples, min_ms=rtt_min, avg_ms=rtt_min * 1.5, max_ms=rtt_min * 3),
    )


class TestProtocolShares:
    def test_monthly_shares(self):
        rows = [
            protocol_row(D(2014, 3, 1), WebProtocol.HTTP, 700),
            protocol_row(D(2014, 3, 2), WebProtocol.TLS, 300),
        ]
        shares = monthly_protocol_shares(rows, [(2014, 3)])
        assert shares[0].share(WebProtocol.HTTP) == pytest.approx(0.7)
        assert shares[0].share(WebProtocol.TLS) == pytest.approx(0.3)

    def test_non_web_excluded(self):
        rows = [
            protocol_row(D(2014, 3, 1), WebProtocol.HTTP, 500),
            protocol_row(D(2014, 3, 1), WebProtocol.P2P, 10_000),
            protocol_row(D(2014, 3, 1), WebProtocol.DNS, 100),
        ]
        shares = monthly_protocol_shares(rows, [(2014, 3)])
        assert shares[0].share(WebProtocol.HTTP) == pytest.approx(1.0)

    def test_empty_month(self):
        shares = monthly_protocol_shares([], [(2014, 3)])
        assert shares[0].shares == {}

    def test_share_series_skips_empty(self):
        rows = [protocol_row(D(2014, 3, 1), WebProtocol.HTTP, 10)]
        shares = monthly_protocol_shares(rows, [(2014, 2), (2014, 3)])
        series = share_series(shares, WebProtocol.HTTP)
        assert series == [((2014, 3), 1.0)]

    def test_detect_jumps(self):
        rows = []
        for month, quic in ((1, 800), (2, 820), (3, 10), (4, 800)):
            rows.append(protocol_row(D(2015, month, 5), WebProtocol.QUIC, quic))
            rows.append(protocol_row(D(2015, month, 5), WebProtocol.TLS, 9200))
        months = [(2015, month) for month in (1, 2, 3, 4)]
        shares = monthly_protocol_shares(rows, months)
        jumps = detect_jumps(shares, WebProtocol.QUIC, threshold=0.04)
        months_with_jumps = [month for month, _ in jumps]
        assert (2015, 3) in months_with_jumps  # the kill
        assert (2015, 4) in months_with_jumps  # the return

    def test_service_protocol_volume(self):
        rows = [
            protocol_row(DAY, WebProtocol.FBZERO, 600, service=catalog.FACEBOOK),
            protocol_row(DAY, WebProtocol.HTTP2, 400, service=catalog.FACEBOOK),
            protocol_row(DAY, WebProtocol.TLS, 999, service="Other"),
        ]
        volumes = service_protocol_volume(rows, catalog.FACEBOOK)
        assert volumes == {WebProtocol.FBZERO: 600, WebProtocol.HTTP2: 400}


class TestRttAnalytics:
    def test_min_rtt_filters_service_and_transport(self, rules):
        flows = [
            flow("www.facebook.com", rtt_min=3.0),
            flow("www.youtube.com", rtt_min=1.0),
            flow("www.facebook.com", rtt_min=9.0, transport=Transport.UDP),
            flow("www.facebook.com", rtt_min=9.0, samples=0),
        ]
        samples = min_rtt_samples(flows, rules, catalog.FACEBOOK)
        assert samples == [3.0]

    def test_distribution_trims_tails(self, rules):
        flows = [flow("www.facebook.com", rtt_min=3.0) for _ in range(98)]
        flows.append(flow("www.facebook.com", rtt_min=0.001))
        flows.append(flow("www.facebook.com", rtt_min=900.0))
        distribution = rtt_distribution(flows, rules, catalog.FACEBOOK, trim_tails=0.01)
        assert distribution is not None
        assert distribution.samples[0] == 3.0
        assert distribution.samples[-1] == 3.0

    def test_distribution_none_when_no_flows(self, rules):
        assert rtt_distribution([], rules, catalog.FACEBOOK) is None

    def test_summary_stats(self, rules):
        flows = [flow("www.facebook.com", rtt_min=value) for value in (0.5, 3, 3, 3, 120)]
        summaries = summarize_services(flows, rules, [catalog.FACEBOOK])
        stats = summaries[catalog.FACEBOOK]
        assert isinstance(stats, RttSummaryStats)
        assert stats.flows == 5
        assert stats.median_ms == 3.0
        assert 0.0 < stats.share_below_1ms < 0.5
        assert stats.share_above_100ms == pytest.approx(0.2)


def _rib():
    archive = RibArchive()
    archive.add(
        RibSnapshot(
            (2016, 9),
            [
                RibEntry(Prefix.parse("31.13.64.0/19"), asns.FACEBOOK.number),
                RibEntry(Prefix.parse("23.192.0.0/20"), asns.AKAMAI.number),
            ],
        )
    )
    return archive


class TestInfrastructureAnalytics:
    def test_census_shared_vs_dedicated(self, rules):
        flows = [
            flow("www.facebook.com", ip_text="31.13.64.1"),
            flow("scontent.fbcdn.net", ip_text="31.13.64.2"),
            flow("fbstatic-a.akamaihd.net", ip_text="23.192.0.9"),
            flow("cdn-3.akamaihd.net", ip_text="23.192.0.9"),  # shared with Other
        ]
        census = daily_server_census(flows, rules, [catalog.FACEBOOK], DAY)
        assert census[0].dedicated_ips == 2
        assert census[0].shared_ips == 1
        assert census[0].total_ips == 3

    def test_asn_breakdown(self, rules):
        flows = [
            flow("www.facebook.com", ip_text="31.13.64.1"),
            flow("www.facebook.com", ip_text="31.13.64.2"),
            flow("fbstatic-a.akamaihd.net", ip_text="23.192.0.9"),
        ]
        breakdown = asn_breakdown(flows, rules, _rib(), catalog.FACEBOOK, DAY)
        assert breakdown.counts == {"FACEBOOK": 2, "AKAMAI": 1}
        assert breakdown.dominant() == "FACEBOOK"
        assert breakdown.share("FACEBOOK") == pytest.approx(2 / 3)

    def test_asn_breakdown_top_filter(self, rules):
        flows = [flow("www.facebook.com", ip_text="9.9.9.9")]
        breakdown = asn_breakdown(
            flows, rules, _rib(), catalog.FACEBOOK, DAY, top_asns=["FACEBOOK"]
        )
        assert breakdown.counts == {"OTHER": 1}

    def test_domain_shares(self, rules):
        flows = [
            flow("www.youtube.com", down=100),
            flow("r4---sn.googlevideo.com", down=900),
        ]
        shares = domain_shares(flows, rules, catalog.YOUTUBE)
        assert shares["googlevideo.com"] == pytest.approx(900 * 1.1 / (1000 * 1.1))
        assert shares["youtube.com"] == pytest.approx(100 * 1.1 / (1000 * 1.1))
        # an empty server name is no name, exactly as None is: no '' domain,
        # whether the analytic turns the rows into a batch or is handed one
        unnamed = flows + [flow("", down=500), flow(None, down=700)]
        for given in (unnamed, FlowBatch.of(unnamed)):
            assert domain_shares(given, rules, catalog.YOUTUBE) == shares
            assert domain_shares(given, rules, "Other") == {}
        assert FlowBatch.of(unnamed).sld_table()[0] == ("youtube.com", "googlevideo.com")

    def test_domain_shares_empty(self, rules):
        assert domain_shares([], rules, catalog.YOUTUBE) == {}

    def test_service_ip_set(self, rules):
        flows = [
            flow("www.youtube.com", ip_text="1.1.1.1"),
            flow("www.youtube.com", ip_text="1.1.1.2"),
            flow("www.facebook.com", ip_text="2.2.2.2"),
        ]
        assert service_ip_set(flows, rules, catalog.YOUTUBE) == {
            ip_to_int("1.1.1.1"),
            ip_to_int("1.1.1.2"),
        }

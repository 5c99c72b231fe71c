"""Tests for NetFlow v5 export and biflow reconstruction."""

import struct

import pytest

from interop.netflow import (
    MAX_RECORDS_PER_DATAGRAM,
    NetflowError,
    export_netflow_v5,
    merge_biflows,
    parse_netflow_v5,
)
from repro.nettypes.ip import Prefix, ip_to_int
from repro.tstat.flow import (
    FlowRecord,
    NameSource,
    RttSummary,
    Transport,
    WebProtocol,
)

CLIENT_NETS = [Prefix.parse("10.0.0.0/8")]


def record(client=ip_to_int("10.0.0.3"), port=41000, **overrides):
    defaults = dict(
        client_id=client,
        server_ip=ip_to_int("93.184.216.34"),
        client_port=port,
        server_port=443,
        transport=Transport.TCP,
        ts_start=100.0,
        ts_end=130.5,
        packets_up=12,
        packets_down=50,
        bytes_up=2_000,
        bytes_down=70_000,
        protocol=WebProtocol.TLS,
        server_name="edge.example.net",
        name_source=NameSource.SNI,
        rtt=RttSummary(samples=3, min_ms=5.0, avg_ms=6.0, max_ms=9.0),
    )
    defaults.update(overrides)
    return FlowRecord(**defaults)


class TestExport:
    def test_two_halves_per_biflow(self):
        datagrams = export_netflow_v5([record()])
        rows = parse_netflow_v5(datagrams[0])
        assert len(rows) == 2
        up = next(row for row in rows if row.src_addr == ip_to_int("10.0.0.3"))
        down = next(row for row in rows if row.dst_addr == ip_to_int("10.0.0.3"))
        assert up.octets == 2_000
        assert down.octets == 70_000
        assert up.dst_port == 443
        assert down.src_port == 443

    def test_chunking_at_thirty_records(self):
        records = [record(port=41000 + index) for index in range(20)]  # 40 rows
        datagrams = export_netflow_v5(records)
        assert len(datagrams) == 2
        assert len(parse_netflow_v5(datagrams[0])) == MAX_RECORDS_PER_DATAGRAM
        assert len(parse_netflow_v5(datagrams[1])) == 10

    def test_empty_export(self):
        assert export_netflow_v5([]) == []

    def test_uptime_offsets_relative(self):
        records = [
            record(port=1, ts_start=100.0, ts_end=101.0),
            record(port=2, ts_start=160.0, ts_end=161.0),
        ]
        rows = parse_netflow_v5(export_netflow_v5(records, sysuptime_ms=1000)[0])
        firsts = sorted({row.first_ms for row in rows})
        assert firsts == [1000, 61000]


class TestParseErrors:
    def test_short_datagram(self):
        with pytest.raises(NetflowError, match="header"):
            parse_netflow_v5(b"\x00\x05")

    def test_wrong_version(self):
        datagram = bytearray(export_netflow_v5([record()])[0])
        datagram[0:2] = struct.pack("!H", 9)
        with pytest.raises(NetflowError, match="version"):
            parse_netflow_v5(bytes(datagram))

    def test_truncated_records(self):
        datagram = export_netflow_v5([record()])[0]
        with pytest.raises(NetflowError, match="truncated"):
            parse_netflow_v5(datagram[:-10])


class TestBiflowMerge:
    def _roundtrip(self, records):
        rows = []
        for datagram in export_netflow_v5(records):
            rows.extend(parse_netflow_v5(datagram))
        return merge_biflows(rows, CLIENT_NETS)

    def test_counters_recovered(self):
        original = record()
        merged = self._roundtrip([original])
        assert len(merged) == 1
        got = merged[0]
        assert got.bytes_up == original.bytes_up
        assert got.bytes_down == original.bytes_down
        assert got.packets_up == original.packets_up
        assert got.client_port == original.client_port
        assert got.transport is Transport.TCP
        assert got.duration == pytest.approx(original.duration, abs=0.01)

    def test_information_loss_is_explicit(self):
        """v5 cannot carry what the paper's analyses need — and says so."""
        merged = self._roundtrip([record()])[0]
        assert merged.server_name is None
        assert merged.name_source is NameSource.NONE
        assert merged.protocol is WebProtocol.OTHER  # DPI label gone
        assert merged.rtt.samples == 0  # RTT gone

    def test_many_flows_all_paired(self):
        records = [record(port=42000 + index) for index in range(25)]
        merged = self._roundtrip(records)
        assert len(merged) == 25
        assert {row.client_port for row in merged} == set(range(42000, 42025))

    def test_unpaired_half_still_reported(self):
        rows = parse_netflow_v5(export_netflow_v5([record()])[0])
        only_up = [row for row in rows if row.src_addr == ip_to_int("10.0.0.3")]
        merged = merge_biflows(only_up, CLIENT_NETS)
        assert len(merged) == 1
        assert merged[0].bytes_down == 0
        assert merged[0].bytes_up == 2_000

    def test_transit_records_dropped(self):
        rows = parse_netflow_v5(export_netflow_v5([record()])[0])
        # Re-pair against networks that contain neither endpoint.
        merged = merge_biflows(rows, [Prefix.parse("192.168.0.0/16")])
        assert merged == []

    def test_udp_flows(self):
        merged = self._roundtrip([record(transport=Transport.UDP)])
        assert merged[0].transport is Transport.UDP

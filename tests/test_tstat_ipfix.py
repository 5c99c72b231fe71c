"""Tests for the IPFIX flow export."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interop.ipfix import IPFIX_VERSION, IpfixError, export_ipfix, parse_ipfix
from repro.tstat.flow import (
    FlowRecord,
    NameSource,
    RttSummary,
    Transport,
    WebProtocol,
)


def record(**overrides):
    defaults = dict(
        client_id=12,
        server_ip=0x4A7D0001,
        client_port=44321,
        server_port=443,
        transport=Transport.TCP,
        ts_start=1492000000.250,
        ts_end=1492000012.750,
        packets_up=12,
        packets_down=40,
        bytes_up=2_000,
        bytes_down=55_000,
        protocol=WebProtocol.QUIC,
        server_name="r3---sn.googlevideo.com",
        name_source=NameSource.QUIC,
        rtt=RttSummary(samples=7, min_ms=0.451, avg_ms=0.92, max_ms=3.5),
        vantage="pop2",
    )
    defaults.update(overrides)
    return FlowRecord(**defaults)


class TestRoundtrip:
    def test_single_record(self):
        message = export_ipfix([record()])
        decoded = parse_ipfix(message)
        assert len(decoded) == 1
        got = decoded[0]
        wanted = record()
        assert got.client_id == wanted.client_id
        assert got.server_ip == wanted.server_ip
        assert got.protocol is WebProtocol.QUIC
        assert got.server_name == wanted.server_name
        assert got.rtt.samples == 7
        assert got.rtt.min_ms == pytest.approx(0.451, abs=0.001)
        assert got.ts_start == pytest.approx(wanted.ts_start, abs=0.001)
        assert got.vantage == "pop2"

    def test_many_records(self):
        records = [record(client_id=index, client_port=1000 + index) for index in range(50)]
        decoded = parse_ipfix(export_ipfix(records))
        assert [r.client_id for r in decoded] == list(range(50))

    def test_unnamed_flow(self):
        decoded = parse_ipfix(
            export_ipfix([record(server_name=None, name_source=NameSource.NONE)])
        )
        assert decoded[0].server_name is None
        assert decoded[0].name_source is NameSource.NONE

    def test_udp_transport(self):
        decoded = parse_ipfix(export_ipfix([record(transport=Transport.UDP)]))
        assert decoded[0].transport is Transport.UDP

    def test_empty_export_has_template_only(self):
        message = export_ipfix([])
        assert parse_ipfix(message) == []
        version, length = struct.unpack_from("!HH", message, 0)
        assert version == IPFIX_VERSION
        assert length == len(message)

    def test_long_server_name_varlen(self):
        name = "x" * 300 + ".example.net"  # forces the 3-byte varlen form
        decoded = parse_ipfix(export_ipfix([record(server_name=name)]))
        assert decoded[0].server_name == name

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=65535),
        st.sampled_from(list(WebProtocol)),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, server_ip, port, protocol):
        original = record(server_ip=server_ip, server_port=port, protocol=protocol)
        decoded = parse_ipfix(export_ipfix([original]))
        assert decoded[0].server_ip == server_ip
        assert decoded[0].server_port == port
        assert decoded[0].protocol is protocol


class TestErrors:
    def test_short_message(self):
        with pytest.raises(IpfixError, match="header"):
            parse_ipfix(b"\x00\x0a")

    def test_wrong_version(self):
        message = bytearray(export_ipfix([record()]))
        message[0:2] = struct.pack("!H", 9)  # NetFlow v9, not IPFIX
        with pytest.raises(IpfixError, match="version"):
            parse_ipfix(bytes(message))

    def test_length_mismatch(self):
        message = export_ipfix([record()]) + b"\x00"
        with pytest.raises(IpfixError, match="length"):
            parse_ipfix(message)

    def test_data_without_template(self):
        # Build a message holding only the data set.
        full = export_ipfix([record()])
        header, rest = full[:16], full[16:]
        set_id, set_length = struct.unpack_from("!HH", rest, 0)
        assert set_id == 2
        data_set = rest[set_length:]
        message = struct.pack(
            "!HHIII", IPFIX_VERSION, 16 + len(data_set), 0, 0, 1
        ) + data_set
        with pytest.raises(IpfixError, match="without a template"):
            parse_ipfix(message)

    def test_truncated_set(self):
        message = bytearray(export_ipfix([record()]))
        # Corrupt the data set length upwards.
        offset = 16
        set_id, set_length = struct.unpack_from("!HH", message, offset)
        offset += set_length  # move to the data set
        message[offset + 2 : offset + 4] = struct.pack("!H", 9999)
        with pytest.raises(IpfixError, match="set length"):
            parse_ipfix(bytes(message))

"""Tests for the pcap reader/writer."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interop.pcap import (
    MAGIC_NATIVE,
    PcapError,
    load_pcap,
    read_pcap,
    write_pcap,
)
from repro.nettypes.ip import ip_to_int
from repro.packets.capture import CapturedPacket
from repro.synthesis.packetgen import FlowSpec, PacketSynthesizer
from repro.tstat.flow import WebProtocol
from repro.tstat.probe import Probe, ProbeConfig


def packets(count=3):
    return [
        CapturedPacket(timestamp=1.5 + index, data=bytes([index]) * (20 + index))
        for index in range(count)
    ]


class TestRoundtrip:
    def test_write_read(self, tmp_path):
        path = tmp_path / "trace.pcap"
        written = write_pcap(path, packets())
        assert written == 3
        loaded = load_pcap(path)
        assert loaded == packets()

    def test_empty_capture(self, tmp_path):
        path = tmp_path / "empty.pcap"
        assert write_pcap(path, []) == 0
        assert load_pcap(path) == []

    def test_timestamp_precision(self, tmp_path):
        path = tmp_path / "ts.pcap"
        original = [CapturedPacket(timestamp=1234567.123456, data=b"x" * 30)]
        write_pcap(path, original)
        loaded = load_pcap(path)
        assert loaded[0].timestamp == pytest.approx(1234567.123456, abs=1e-6)

    def test_snaplen_truncates(self, tmp_path):
        path = tmp_path / "snap.pcap"
        write_pcap(path, [CapturedPacket(0.0, b"A" * 100)], snaplen=40)
        loaded = load_pcap(path)
        assert len(loaded[0].data) == 40

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=2**31, allow_nan=False),
                st.binary(min_size=1, max_size=120),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, tmp_path_factory, entries):
        path = tmp_path_factory.mktemp("pcap") / "prop.pcap"
        original = [CapturedPacket(ts, data) for ts, data in entries]
        write_pcap(path, original)
        loaded = load_pcap(path)
        assert [p.data for p in loaded] == [p.data for p in original]
        for got, wanted in zip(loaded, original):
            assert got.timestamp == pytest.approx(wanted.timestamp, abs=1e-5)


class TestErrorHandling:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(PcapError, match="magic"):
            list(read_pcap(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.pcap"
        path.write_bytes(struct.pack("I", MAGIC_NATIVE))
        with pytest.raises(PcapError, match="global header"):
            list(read_pcap(path))

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "cut.pcap"
        write_pcap(path, packets(1))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(PcapError, match="truncated packet data"):
            list(read_pcap(path))

    def test_wrong_linktype(self, tmp_path):
        path = tmp_path / "raw.pcap"
        header = struct.pack("IHHiIII", MAGIC_NATIVE, 2, 4, 0, 0, 65535, 101)
        path.write_bytes(header)
        with pytest.raises(PcapError, match="linktype"):
            list(read_pcap(path))


class TestProbeFromPcap:
    def test_probe_replays_trace(self, tmp_path):
        """Record synthetic traffic to pcap, replay it into the probe."""
        client = ip_to_int("10.1.0.4")
        specs = [
            FlowSpec(client, ip_to_int("74.125.0.7"), 41000, 443,
                     WebProtocol.TLS, "www.google.com", rtt_ms=4.0),
            FlowSpec(client, ip_to_int("104.16.0.9"), 41001, 80,
                     WebProtocol.HTTP, "blog.example.org", rtt_ms=25.0,
                     start_ts=1.0),
        ]
        capture = PacketSynthesizer(seed=4).synthesize(specs)
        path = tmp_path / "replay.pcap"
        write_pcap(path, capture)

        probe = Probe(ProbeConfig.for_pop("pop1", ["10.1.0.0/16"]))
        records = probe.run(read_pcap(path))
        names = {record.server_name for record in records}
        assert names == {"www.google.com", "blog.example.org"}

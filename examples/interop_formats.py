#!/usr/bin/env python3
"""Interop: pcap in, flow logs and IPFIX out — and the storage bill.

The paper's deployment keeps 31.9 TB of compressed flow logs for 247
billion flows (Section 2.2) precisely because storing packets is
impossible at ISP scale.  This example makes that trade-off concrete on
synthetic traffic: it records a capture to **pcap**, replays it through
the probe, exports the resulting flow records as the probe's native
**gzip flow log** and as **IPFIX**, verifies the IPFIX round trip, and
compares bytes-on-disk per flow across the three formats.

Run:  python examples/interop_formats.py
"""

import gzip
import tempfile
from pathlib import Path

import numpy as np

from interop.ipfix import export_ipfix, parse_ipfix
from interop.pcap import read_pcap, write_pcap
from repro.nettypes.ip import ip_to_int
from repro.synthesis.packetgen import FlowSpec, PacketSynthesizer
from repro.tstat.flow import WebProtocol
from repro.tstat.logs import load_flow_log
from repro.tstat.probe import Probe, ProbeConfig


def build_specs(flows=150, seed=9):
    rng = np.random.default_rng(seed)
    protocols = [
        (WebProtocol.TLS, "shop-{n}.example-store.com", 443),
        (WebProtocol.HTTP, "news-{n}.example-press.org", 80),
        (WebProtocol.QUIC, "r{n}---sn.googlevideo.com", 443),
        (WebProtocol.FBZERO, "scontent-mxp1-{n}.fbcdn.net", 443),
    ]
    specs = []
    for index in range(flows):
        protocol, template, port = protocols[index % len(protocols)]
        domain = template.replace("{n}", str(int(rng.integers(1, 9))))
        specs.append(
            FlowSpec(
                client_ip=ip_to_int("10.1.0.0") + 5 + int(rng.integers(0, 20)),
                server_ip=ip_to_int("93.184.0.0") + int(rng.integers(1, 4000)),
                client_port=20000 + index,
                server_port=port,
                protocol=protocol,
                domain=domain,
                rtt_ms=float(rng.uniform(0.5, 40)),
                bytes_down=int(rng.lognormal(9.8, 0.8)),
                bytes_up=int(rng.lognormal(7.2, 0.6)),
                start_ts=float(rng.uniform(0, 120)),
            )
        )
    return specs


def main() -> None:
    specs = build_specs()
    packets = PacketSynthesizer(seed=10).synthesize(specs)

    with tempfile.TemporaryDirectory() as workdir:
        work = Path(workdir)

        # 1. Record the capture to pcap (what a tap would give us).
        pcap_path = work / "capture.pcap"
        write_pcap(pcap_path, packets)
        print(f"pcap:      {len(packets):>6} packets, "
              f"{pcap_path.stat().st_size:>10,} bytes")

        # 2. Replay through the probe, straight to a gzip flow log.
        probe = Probe(ProbeConfig.for_pop("pop1", ["10.1.0.0/16"]))
        log_path = work / "flows.tsv.gz"
        written = probe.run_to_log(read_pcap(pcap_path), log_path)
        records = load_flow_log(log_path)
        print(f"flow log:  {written:>6} records, "
              f"{log_path.stat().st_size:>10,} bytes (gzip TSV)")

        # 3. Export the same records as IPFIX and verify the round trip.
        message = export_ipfix(records, export_time=1_497_000_000, sequence=1)
        ipfix_path = work / "flows.ipfix"
        ipfix_path.write_bytes(message)
        gz_ipfix = gzip.compress(message)
        decoded = parse_ipfix(message)
        assert len(decoded) == len(records)
        assert decoded[0].server_name == records[0].server_name
        print(f"IPFIX:     {len(decoded):>6} records, "
              f"{len(message):>10,} bytes ({len(gz_ipfix):,} gzipped)")

        # 3b. And as legacy NetFlow v5 — note what the format *cannot* say.
        from repro.nettypes.ip import Prefix
        from interop.netflow import (
            export_netflow_v5,
            merge_biflows,
            parse_netflow_v5,
        )

        datagrams = export_netflow_v5(records)
        v5_bytes = sum(len(d) for d in datagrams)
        rows = [row for d in datagrams for row in parse_netflow_v5(d)]
        # The probe anonymizes subscribers to dense small integers, so the
        # collector's "subscriber side" is the low address range.
        rebuilt = merge_biflows(rows, [Prefix.parse("0.0.0.0/8")])
        named = sum(1 for r in rebuilt if r.server_name)
        print(f"NetFlow v5:{len(rebuilt):>6} biflows from {len(rows)} halves, "
              f"{v5_bytes:>10,} bytes — but {named} of them carry a server "
              f"name (v5 cannot say who the server was)")

        # 4. The punchline: bytes per flow in each representation.
        pcap_per_flow = pcap_path.stat().st_size / written
        log_per_flow = log_path.stat().st_size / written
        ipfix_per_flow = len(gz_ipfix) / written
        print("\nbytes on disk per flow:")
        print(f"  raw packets (pcap)    {pcap_per_flow:10.0f}")
        print(f"  probe flow log (gzip) {log_per_flow:10.0f}")
        print(f"  IPFIX (gzip)          {ipfix_per_flow:10.0f}")
        print(f"\nflow records compress the capture "
              f"x{pcap_per_flow / log_per_flow:.0f} — the difference between "
              f"an impossible archive and the paper's 31.9 TB for five years.")


if __name__ == "__main__":
    main()

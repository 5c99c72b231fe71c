"""``probe-capture``: the paper's instrument, end to end.

Set-up synthesizes a wire-format capture (Ethernet/IPv4/TCP/UDP frames
of TLS, HTTP and QUIC flows, half of them preceded by a DNS exchange)
with :class:`PacketSynthesizer`.  A repetition runs the capture through
``Probe.run_to_log`` — batch decode, flow meter, DPI, DN-Hunter,
anonymizer, flow-log writer with its integrity manifest — and loads the
log back with ``load_flow_log``.

Nothing on the ``repro run`` path is touched, so a study-side
optimisation must leave this workload flat.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import numpy as np

from edgebench.harness import Check, Rep, Workload
from edgebench.spans import Tracer
from repro.dataflow.integrity import manifest_path_for
from repro.nettypes.ip import ip_to_int
from repro.packets.batch import iter_decoded_batches
from repro.packets.capture import CapturedPacket
from repro.synthesis.packetgen import FlowSpec, PacketSynthesizer
from repro.tstat.flow import WebProtocol
from repro.tstat.logs import FlowLogWriter, load_flow_log
from repro.tstat.probe import Probe, ProbeConfig

_CLIENT_NET = "10.1.0.0/16"
_PROTOCOLS = (WebProtocol.TLS, WebProtocol.HTTP, WebProtocol.QUIC)


@dataclass
class ProbeContext:
    scratch: Path
    packets: List[CapturedPacket]
    synth_s: float
    records: int = 0  # reference run: records exported
    named_frac: float = 0.0  # reference run: records carrying a server name


def flow_specs(seed: int, count: int) -> List[FlowSpec]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9E0B]))
    clients = ip_to_int("10.1.0.0")
    servers = ip_to_int("93.184.0.0")
    specs = []
    for index in range(count):
        protocol = _PROTOCOLS[int(rng.integers(0, len(_PROTOCOLS)))]
        specs.append(
            FlowSpec(
                client_ip=clients + int(rng.integers(1, 5000)),
                server_ip=servers + int(rng.integers(0, 60000)),
                client_port=20000 + index % 40000,
                server_port=80 if protocol is WebProtocol.HTTP else 443,
                protocol=protocol,
                domain=f"host-{int(rng.integers(0, 300))}.svc{int(rng.integers(0, 20))}.example.net",
                rtt_ms=float(rng.uniform(2.0, 60.0)),
                bytes_down=int(rng.integers(2_000, 60_000)),
                bytes_up=int(rng.integers(500, 4_000)),
                start_ts=index * 0.01,
                with_dns=bool(rng.random() < 0.5),
            )
        )
    return specs


def new_probe() -> Probe:
    return Probe(ProbeConfig.for_pop("pop1", [_CLIENT_NET]))


def named_fraction(records: list) -> float:
    return sum(1 for record in records if record.server_name) / max(1, len(records))


def _remove_log(path: Path) -> None:
    path.unlink()
    manifest_path_for(path).unlink(missing_ok=True)


class ProbeCapture(Workload):
    name = "probe-capture"

    def setup(self, seed: int, scratch: Path) -> ProbeContext:
        flows = 400 if self.scale == "full" else 40
        specs = flow_specs(seed, flows)
        started = time.perf_counter()
        packets = PacketSynthesizer(seed=seed).synthesize(specs)
        synth_s = time.perf_counter() - started
        scratch.mkdir(parents=True, exist_ok=True)
        return ProbeContext(scratch=scratch, packets=packets, synth_s=synth_s)

    def prepare_reference(self, ctx: ProbeContext) -> None:
        records = new_probe().run(ctx.packets)
        ctx.records = len(records)
        ctx.named_frac = named_fraction(records)

    def rep(self, ctx: ProbeContext, index: int) -> Rep:
        path = ctx.scratch / f"flows-{index}.tsv.gz"
        started = time.perf_counter()
        written = new_probe().run_to_log(ctx.packets, path)
        captured = time.perf_counter()
        records = load_flow_log(path)
        done = time.perf_counter()
        size = path.stat().st_size
        _remove_log(path)
        return Rep(
            work=len(ctx.packets),
            outputs={"written": written, "records": records},
            phases={
                "wall_s": done - started,
                "capture_wall_s": captured - started,
                "load_wall_s": done - captured,
                "persisted_bytes": size,
            },
        )

    def verify(self, ctx: ProbeContext, rep: Rep) -> List[Check]:
        written, records = rep.outputs["written"], rep.outputs["records"]
        count_ok = written == len(records) == ctx.records
        named = named_fraction(records)
        return [
            (
                "run_to_log record count",
                count_ok,
                f"written {written}, loaded {len(records)}, reference {ctx.records}",
            ),
            (
                "named-flow fraction",
                named == ctx.named_frac,
                f"{named} != reference {ctx.named_frac}",
            ),
        ]

    def phase_metrics(self, rep: Rep) -> Dict[str, float]:
        return {
            "packets_per_s": rep.work / rep.phases["wall_s"],
            "persisted_bytes": rep.phases["persisted_bytes"],
        }

    def trace(self, ctx: ProbeContext, tracer: Tracer, untraced: Rep):
        probe = new_probe()
        path = ctx.scratch / f"trace-flows-{tracer.rep}.tsv.gz"
        packets = len(ctx.packets)
        with tracer.span("bench.replay"):
            with tracer.span("packets.decode", packets=packets):
                batches = list(iter_decoded_batches(probe.decoder, ctx.packets))
            with tracer.span("tstat.meter", packets=packets):
                records = []
                for batch in batches:
                    records.extend(probe.meter.process_batch(batch))
                records.extend(probe.meter.flush())
            with tracer.span("tstat.log_write", records=len(records)):
                writer = FlowLogWriter(path, manifest=True)
                writer.write_all(records)
                writer.close()
            with tracer.span("tstat.log_read") as span:
                loaded = load_flow_log(path)
                span["records"] = len(loaded)
        _remove_log(path)
        values = {
            "synthesis.packetgen_packets_per_s": packets / ctx.synth_s,
            "packets.decode_packets_per_s": tracer.median_rate("packets.decode", "packets"),
            "tstat.meter_packets_per_s": tracer.median_rate("tstat.meter", "packets"),
            "tstat.records": len(records),
            "tstat.named_flow_frac": named_fraction(records),
            "tstat.log_write_records_per_s": tracer.median_rate("tstat.log_write", "records"),
            "tstat.log_read_records_per_s": tracer.median_rate("tstat.log_read", "records"),
        }
        outputs = {"written": len(records), "records": loaded}
        return values, self.verify(ctx, Rep(work=packets, outputs=outputs))

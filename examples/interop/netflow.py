"""NetFlow v5 export — the legacy collector format, losses included.

Many ISP toolchains of the paper's era still spoke NetFlow v5.  Unlike
the probe's native logs or IPFIX (:mod:`interop.ipfix`), v5 is

* **unidirectional** — one biflow becomes two records (client→server and
  server→client), and the collector must re-pair them;
* **fixed-format** — no server names, no RTT, no DPI labels: exactly the
  information the paper's analyses need is what v5 cannot carry.

Both halves are implemented: export (version 5 header + 48-byte records,
at most 30 per datagram, per the spec) and a collector side that parses
datagrams and re-pairs unidirectional records into biflow
:class:`~repro.tstat.flow.FlowRecord`\\ s given the subscriber networks.
The information loss is deliberate and tested — it documents *why* the
probes export richer records.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dataflow.integrity import RecordDecodeError
from repro.nettypes.ip import Prefix
from repro.tstat.flow import (
    FlowRecord,
    NameSource,
    RttSummary,
    Transport,
    WebProtocol,
)

VERSION = 5
MAX_RECORDS_PER_DATAGRAM = 30
_HEADER = struct.Struct("!HHIIIIBBH")
_RECORD = struct.Struct("!IIIHHIIIIHHBBBBHHBBH")

_PROTO_NUMBER = {Transport.TCP: 6, Transport.UDP: 17}
_PROTO_TRANSPORT = {number: transport for transport, number in _PROTO_NUMBER.items()}


class NetflowError(RecordDecodeError):
    """Raised for malformed NetFlow v5 datagrams.

    A :class:`~repro.dataflow.integrity.RecordDecodeError` subclass
    (RPR009): decode failures surface as the contracted family so the
    quarantine path catches them by type rather than by bare
    ``ValueError``.
    """


@dataclass(frozen=True)
class V5Record:
    """One unidirectional NetFlow v5 record (collector-side view)."""

    src_addr: int
    dst_addr: int
    packets: int
    octets: int
    first_ms: int  # sysuptime at flow start
    last_ms: int
    src_port: int
    dst_port: int
    protocol: int


def export_netflow_v5(
    records: Iterable[FlowRecord],
    sysuptime_ms: int = 0,
    unix_secs: int = 0,
    engine_id: int = 0,
) -> List[bytes]:
    """Encode biflow records as NetFlow v5 datagrams (two v5 rows each).

    Timestamps are carried as sysuptime offsets relative to the earliest
    flow start, as a real exporter's uptime clock would.
    """
    records = list(records)
    if not records:
        return []
    epoch = min(record.ts_start for record in records)
    rows: List[bytes] = []
    for record in records:
        first = sysuptime_ms + int((record.ts_start - epoch) * 1000)
        last = sysuptime_ms + int((record.ts_end - epoch) * 1000)
        protocol = _PROTO_NUMBER[record.transport]
        # client -> server half.
        rows.append(
            _RECORD.pack(
                record.client_id & 0xFFFFFFFF,
                record.server_ip,
                0,  # nexthop
                0,
                0,  # input/output ifindex
                record.packets_up,
                record.bytes_up,
                first,
                last,
                record.client_port,
                record.server_port,
                0,  # pad1
                0,  # tcp_flags (not tracked per direction here)
                protocol,
                0,  # tos
                0,
                0,  # src/dst AS
                0,
                0,  # masks
                0,  # pad2
            )
        )
        # server -> client half.
        rows.append(
            _RECORD.pack(
                record.server_ip,
                record.client_id & 0xFFFFFFFF,
                0,
                0,
                0,
                record.packets_down,
                record.bytes_down,
                first,
                last,
                record.server_port,
                record.client_port,
                0,
                0,
                protocol,
                0,
                0,
                0,
                0,
                0,
                0,
            )
        )
    datagrams: List[bytes] = []
    sequence = 0
    for start in range(0, len(rows), MAX_RECORDS_PER_DATAGRAM):
        chunk = rows[start : start + MAX_RECORDS_PER_DATAGRAM]
        header = _HEADER.pack(
            VERSION,
            len(chunk),
            sysuptime_ms,
            unix_secs,
            0,  # unix nsecs
            sequence,
            0,  # engine type
            engine_id,
            0,  # sampling
        )
        datagrams.append(header + b"".join(chunk))
        sequence += len(chunk)
    return datagrams


def parse_netflow_v5(datagram: bytes) -> List[V5Record]:
    """Parse one v5 datagram into unidirectional records."""
    if len(datagram) < _HEADER.size:
        raise NetflowError("datagram shorter than the v5 header")
    version, count, _uptime, _secs, _nsecs, _seq, _etype, _eid, _sampling = (
        _HEADER.unpack_from(datagram, 0)
    )
    if version != VERSION:
        raise NetflowError(f"not NetFlow v5 (version {version})")
    expected = _HEADER.size + count * _RECORD.size
    if len(datagram) < expected:
        raise NetflowError(f"truncated datagram: {len(datagram)} < {expected}")
    records: List[V5Record] = []
    for index in range(count):
        fields = _RECORD.unpack_from(datagram, _HEADER.size + index * _RECORD.size)
        records.append(
            V5Record(
                src_addr=fields[0],
                dst_addr=fields[1],
                packets=fields[5],
                octets=fields[6],
                first_ms=fields[7],
                last_ms=fields[8],
                src_port=fields[9],
                dst_port=fields[10],
                protocol=fields[13],
            )
        )
    return records


def merge_biflows(
    records: Sequence[V5Record],
    client_networks: Sequence[Prefix],
    vantage: str = "netflow",
) -> List[FlowRecord]:
    """Re-pair unidirectional v5 records into biflow records.

    Orientation follows the subscriber networks, as in the probe.  The
    result intentionally lacks server names, DPI labels and RTT — v5
    cannot carry them (the unnamed/OTHER fields document the loss).
    Unpaired halves still produce a record with zeros on the silent side.
    """

    def is_client(address: int) -> bool:
        return any(network.contains(address) for network in client_networks)

    table: Dict[Tuple[int, int, int, int, int], List[Optional[V5Record]]] = {}
    for record in records:
        if is_client(record.src_addr) and not is_client(record.dst_addr):
            key = (
                record.src_addr,
                record.dst_addr,
                record.src_port,
                record.dst_port,
                record.protocol,
            )
            table.setdefault(key, [None, None])[0] = record
        elif is_client(record.dst_addr) and not is_client(record.src_addr):
            key = (
                record.dst_addr,
                record.src_addr,
                record.dst_port,
                record.src_port,
                record.protocol,
            )
            table.setdefault(key, [None, None])[1] = record
        # transit records (neither or both sides local) are dropped,
        # as the probe drops them too.
    merged: List[FlowRecord] = []
    for (client, server, client_port, server_port, protocol), (up, down) in sorted(
        table.items()
    ):
        transport = _PROTO_TRANSPORT.get(protocol)
        if transport is None:
            continue
        first = min(half.first_ms for half in (up, down) if half is not None)
        last = max(half.last_ms for half in (up, down) if half is not None)
        merged.append(
            FlowRecord(
                client_id=client,
                server_ip=server,
                client_port=client_port,
                server_port=server_port,
                transport=transport,
                ts_start=first / 1000.0,
                ts_end=last / 1000.0,
                packets_up=up.packets if up else 0,
                packets_down=down.packets if down else 0,
                bytes_up=up.octets if up else 0,
                bytes_down=down.octets if down else 0,
                protocol=WebProtocol.OTHER,  # v5 carries no DPI label
                server_name=None,  # ...and no names
                name_source=NameSource.NONE,
                rtt=RttSummary(),  # ...and no RTT
                vantage=vantage,
            )
        )
    return merged

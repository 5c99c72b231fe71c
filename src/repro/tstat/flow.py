"""Flow-record schema — the single data unit the probes export.

Each monitored TCP/UDP stream becomes one :class:`FlowRecord` with the
fields the paper relies on (Section 2.1): anonymized client id, byte/packet
counters per direction, the server name (with its source: SNI, HTTP Host,
QUIC/Zero handshake, or DN-Hunter), the application-protocol label, and the
probe-to-server RTT summary (min/avg/max and sample count).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple


class Transport(enum.Enum):
    """Layer-4 protocol of the flow."""

    TCP = "tcp"
    UDP = "udp"


class WebProtocol(enum.Enum):
    """Application-protocol labels of Fig. 8, plus non-web buckets.

    ``TLS`` is the generic HTTPS label; ``SPDY``/``HTTP2`` are refinements
    derived from ALPN, ``QUIC`` and ``FBZERO`` from their own handshakes.
    """

    HTTP = "http"
    TLS = "tls"
    SPDY = "spdy"
    HTTP2 = "http/2"
    QUIC = "quic"
    FBZERO = "fb-zero"
    DNS = "dns"
    P2P = "p2p"
    OTHER = "other"

    @property
    def is_web(self) -> bool:
        return self in _WEB_PROTOCOLS


_WEB_PROTOCOLS = frozenset(
    {
        WebProtocol.HTTP,
        WebProtocol.TLS,
        WebProtocol.SPDY,
        WebProtocol.HTTP2,
        WebProtocol.QUIC,
        WebProtocol.FBZERO,
    }
)


class NameSource(enum.Enum):
    """Where the flow's server name came from, in decreasing priority."""

    SNI = "sni"
    HOST = "host"
    QUIC = "quic"
    ZERO = "zero"
    DNS = "dns"  # DN-Hunter
    NONE = "none"


@dataclass(frozen=True)
class FlowKey:
    """Bidirectional five-tuple, oriented client → server."""

    client_ip: int
    server_ip: int
    client_port: int
    server_port: int
    transport: Transport

    def reversed(self) -> "FlowKey":
        return FlowKey(
            client_ip=self.server_ip,
            server_ip=self.client_ip,
            client_port=self.server_port,
            server_port=self.client_port,
            transport=self.transport,
        )


@dataclass
class RttSummary:
    """Per-flow RTT statistics, probe → server (access delay excluded)."""

    samples: int = 0
    min_ms: float = 0.0
    avg_ms: float = 0.0
    max_ms: float = 0.0

    def add(self, sample_ms: float) -> None:
        if self.samples == 0:
            self.min_ms = self.max_ms = self.avg_ms = sample_ms
        else:
            self.min_ms = min(self.min_ms, sample_ms)
            self.max_ms = max(self.max_ms, sample_ms)
            self.avg_ms += (sample_ms - self.avg_ms) / (self.samples + 1)
        self.samples += 1

    def as_tuple(self) -> Tuple[int, float, float, float]:
        return (self.samples, self.min_ms, self.avg_ms, self.max_ms)


@dataclass
class FlowRecord:
    """One exported flow record (one line of the probe's flow log)."""

    client_id: int  # anonymized subscriber identifier
    server_ip: int  # server addresses are kept: needed for ASN analysis
    client_port: int
    server_port: int
    transport: Transport
    ts_start: float
    ts_end: float
    packets_up: int = 0
    packets_down: int = 0
    bytes_up: int = 0
    bytes_down: int = 0
    protocol: WebProtocol = WebProtocol.OTHER
    server_name: Optional[str] = None
    name_source: NameSource = NameSource.NONE
    rtt: RttSummary = field(default_factory=RttSummary)
    vantage: str = "pop1"

    @classmethod
    def from_cells(cls, *cells: Any) -> "FlowRecord":
        """The record of one flat row (``FLOW_CODEC``'s columns): the fields
        in order, the RTT summary's four inlined where ``rtt`` stands."""
        return cls(*cells[:14], RttSummary(*cells[14:18]), *cells[18:])

    @property
    def name(self) -> Optional[str]:
        """The server name, an empty one being no name — what the flow log
        writes as ``-`` and what the flat row carries."""
        return self.server_name or None

    @property
    def duration(self) -> float:
        return max(0.0, self.ts_end - self.ts_start)

    @property
    def total_bytes(self) -> int:
        return self.bytes_up + self.bytes_down

    def second_level_domain(self) -> Optional[str]:
        """The registrable-ish domain used by the Fig. 11 domain panels."""
        if not self.server_name:
            return None
        return second_level_domain(self.server_name)


def second_level_domain(name: str) -> str:
    """Reduce a FQDN to its last two labels (three under known ccSLDs).

    This mirrors the paper's per-second-level-domain traffic shares
    (Fig. 11g-i): ``r3---sn.googlevideo.com`` → ``googlevideo.com``.
    """
    labels = name.rstrip(".").lower().split(".")
    if len(labels) <= 2:
        return ".".join(labels)
    if labels[-1] in _CC_TLDS_WITH_SLD and labels[-2] in _COMMON_SLDS:
        return ".".join(labels[-3:])
    return ".".join(labels[-2:])


_CC_TLDS_WITH_SLD = frozenset({"uk", "au", "nz", "jp", "br"})
_COMMON_SLDS = frozenset({"co", "com", "net", "org", "ac", "gov"})

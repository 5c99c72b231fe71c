"""Flow-log serialization: the probe's on-disk export format.

Probes write one gzip-compressed, tab-separated log per day; the logs are
then shipped to the long-term data lake (Section 2.2).  The column layout
is versioned in a header line so five years of logs remain readable as the
schema evolves — another of the paper's operational lessons: v1 logs
(before the probes grew RTT instrumentation) parse alongside v2, with the
missing RTT summary defaulting to "no samples".

Malformed input never surfaces a bare ``ValueError``: every decode failure
is a :class:`LogFormatError` (a :class:`~repro.dataflow.integrity.
RecordDecodeError`) carrying the source file and line number, so five-year
archives can be triaged file by file.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from types import MappingProxyType
from typing import IO, Iterable, Iterator, List, Tuple, Union

from repro.dataflow.integrity import (
    PayloadDigest,
    RecordDecodeError,
    write_manifest,
)
from repro.nettypes.ip import int_to_ip, ip_to_int
from repro.tstat.flow import (
    FlowRecord,
    NameSource,
    RttSummary,
    Transport,
    WebProtocol,
)

SCHEMA_VERSION = 2
_HEADER_PREFIX = "#tstat-log"

#: v2 layout: the current export format.
COLUMNS = (
    "client_id",
    "server_ip",
    "client_port",
    "server_port",
    "transport",
    "ts_start",
    "ts_end",
    "packets_up",
    "packets_down",
    "bytes_up",
    "bytes_down",
    "protocol",
    "server_name",
    "name_source",
    "rtt_samples",
    "rtt_min_ms",
    "rtt_avg_ms",
    "rtt_max_ms",
    "vantage",
)

#: v1 layout: pre-RTT probes — same columns minus the four RTT fields.
COLUMNS_V1 = tuple(
    column for column in COLUMNS if not column.startswith("rtt_")
)

SCHEMA_COLUMNS = MappingProxyType({1: COLUMNS_V1, 2: COLUMNS})


class LogFormatError(RecordDecodeError):
    """Raised when a flow log is malformed or has an unknown schema."""


def _columns_for(schema_version: int) -> Tuple[str, ...]:
    columns = SCHEMA_COLUMNS.get(schema_version)
    if columns is None:
        raise LogFormatError(
            f"unsupported schema version v{schema_version} "
            f"(known: {sorted(SCHEMA_COLUMNS)})"
        )
    return columns


def format_record(record: FlowRecord, schema_version: int = SCHEMA_VERSION) -> str:
    """One log line for ``record`` (no trailing newline)."""
    _columns_for(schema_version)
    fields = [
        str(record.client_id),
        int_to_ip(record.server_ip),
        str(record.client_port),
        str(record.server_port),
        record.transport.value,
        f"{record.ts_start:.6f}",
        f"{record.ts_end:.6f}",
        str(record.packets_up),
        str(record.packets_down),
        str(record.bytes_up),
        str(record.bytes_down),
        record.protocol.value,
        record.server_name or "-",
        record.name_source.value,
    ]
    if schema_version >= 2:
        fields += [
            str(record.rtt.samples),
            f"{record.rtt.min_ms:.3f}",
            f"{record.rtt.avg_ms:.3f}",
            f"{record.rtt.max_ms:.3f}",
        ]
    fields.append(record.vantage)
    return "\t".join(fields)


def parse_record(line: str, schema_version: int = SCHEMA_VERSION) -> FlowRecord:
    """Parse one log line back into a :class:`FlowRecord`.

    Any malformed input — wrong field count, unparseable number, unknown
    enum value — raises :class:`LogFormatError` with the reason; callers
    holding the file context (:func:`read_flow_log`, the lake read path)
    enrich it with source and line number.
    """
    columns = _columns_for(schema_version)
    fields = line.rstrip("\n").split("\t")
    if len(fields) != len(columns):
        raise LogFormatError(
            f"schema v{schema_version} expects {len(columns)} fields, "
            f"got {len(fields)}: {line!r}",
            line=line,
        )
    try:
        if schema_version >= 2:
            rtt = RttSummary(
                samples=int(fields[14]),
                min_ms=float(fields[15]),
                avg_ms=float(fields[16]),
                max_ms=float(fields[17]),
            )
            vantage = fields[18]
        else:
            # v1 probes had no RTT instrumentation: empty summary.
            rtt = RttSummary()
            vantage = fields[14]
        return FlowRecord(
            client_id=int(fields[0]),
            server_ip=ip_to_int(fields[1]),
            client_port=int(fields[2]),
            server_port=int(fields[3]),
            transport=Transport(fields[4]),
            ts_start=float(fields[5]),
            ts_end=float(fields[6]),
            packets_up=int(fields[7]),
            packets_down=int(fields[8]),
            bytes_up=int(fields[9]),
            bytes_down=int(fields[10]),
            protocol=WebProtocol(fields[11]),
            server_name=None if fields[12] == "-" else fields[12],
            name_source=NameSource(fields[13]),
            rtt=rtt,
            vantage=vantage,
        )
    except LogFormatError:
        raise
    except (ValueError, KeyError, IndexError) as exc:
        raise LogFormatError(
            f"schema v{schema_version} field conversion failed: {exc}",
            line=line,
        ) from exc


class FlowLogWriter:
    """Writes a flow log (gzip if the path ends in .gz) with its header.

    With ``manifest=True``, a sidecar :class:`~repro.dataflow.integrity.
    PartitionManifest` (CRC32 + record count + schema version) is
    finalized on close, so a log exported by a probe carries its own
    integrity evidence into the lake.
    """

    def __init__(
        self,
        path: Union[str, Path],
        schema_version: int = SCHEMA_VERSION,
        manifest: bool = False,
    ) -> None:
        self._path = Path(path)
        self._schema_version = schema_version
        self._columns = _columns_for(schema_version)
        self._digest = PayloadDigest(schema_version=schema_version)
        self._manifest = manifest
        self._handle: IO[str] = _open_text(self._path, "wt")
        self._handle.write(f"{_HEADER_PREFIX} v{schema_version}\n")
        self._handle.write("#" + "\t".join(self._columns) + "\n")
        self.records_written = 0

    def write(self, record: FlowRecord) -> None:
        line = format_record(record, self._schema_version) + "\n"
        self._handle.write(line)
        self._digest.add_line(line)
        self.records_written += 1

    def write_all(self, records: Iterable[FlowRecord]) -> None:
        for record in records:
            self.write(record)

    def close(self) -> None:
        self._handle.close()
        if self._manifest:
            write_manifest(self._path, self._digest.manifest())

    def abandon(self) -> None:
        """Release the handle *without* finalizing the manifest.

        This is what a probe crash leaves behind: whatever records made
        it to disk, with no sidecar vouching for them — so downstream
        integrity checks see the file as unverified/torn rather than
        trusting a partial export (DESIGN.md §17, probe-restart fault).
        """
        self._handle.close()

    def __enter__(self) -> "FlowLogWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_flow_log(path: Union[str, Path]) -> Iterator[FlowRecord]:
    """Stream records from a flow log, dispatching on the schema header.

    v1 and v2 logs both parse (the cross-version read path); headers
    claiming a version newer than :data:`SCHEMA_VERSION` are rejected.
    Malformed lines raise :class:`LogFormatError` naming the source file
    and line number.
    """
    path = Path(path)
    with _open_text(path, "rt") as handle:
        header = handle.readline()
        if not header.startswith(_HEADER_PREFIX):
            raise LogFormatError("missing log header", source=path.name)
        version_text = header.strip().rpartition("v")[2]
        if not version_text.isdigit() or int(version_text) > SCHEMA_VERSION:
            raise LogFormatError(
                f"unsupported schema {header.strip()!r}", source=path.name
            )
        version = int(version_text)
        _columns_for(version)
        for line_number, line in enumerate(handle, start=2):
            if line.startswith("#") or not line.strip():
                continue
            try:
                yield parse_record(line, schema_version=version)
            except RecordDecodeError as exc:
                raise exc.with_context(
                    source=path.name, line_number=line_number, line=line
                ) from exc


def load_flow_log(path: Union[str, Path]) -> List[FlowRecord]:
    """Read a whole flow log into memory."""
    return list(read_flow_log(path))


def _open_text(path: Path, mode: str) -> IO[str]:
    if path.suffix == ".gz":
        return io.TextIOWrapper(
            gzip.open(path, mode.replace("t", "") + "b"), encoding="utf-8"
        )
    return open(path, mode, encoding="utf-8")

"""Cross-format equivalence: native log, IPFIX and NetFlow v5 must agree.

The same flow records travel three export paths; the byte/packet/endpoint
accounting must be identical wherever the format can carry it, and the
losses must be exactly the documented ones.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from interop.ipfix import export_ipfix, parse_ipfix
from interop.netflow import export_netflow_v5, merge_biflows, parse_netflow_v5
from repro.nettypes.ip import Prefix
from repro.tstat.flow import (
    FlowRecord,
    NameSource,
    RttSummary,
    Transport,
    WebProtocol,
)
from repro.tstat.logs import format_record, parse_record

flow_strategy = st.builds(
    FlowRecord,
    client_id=st.integers(min_value=0, max_value=2**20),  # anonymized ids
    server_ip=st.integers(min_value=2**24, max_value=2**32 - 1),
    client_port=st.integers(min_value=1024, max_value=65535),
    server_port=st.sampled_from([53, 80, 443, 5222, 6881]),
    transport=st.sampled_from([Transport.TCP, Transport.UDP]),
    ts_start=st.floats(min_value=0, max_value=10_000),
    ts_end=st.floats(min_value=10_000, max_value=20_000),
    packets_up=st.integers(min_value=0, max_value=10**6),
    packets_down=st.integers(min_value=0, max_value=10**6),
    bytes_up=st.integers(min_value=0, max_value=10**9),
    bytes_down=st.integers(min_value=0, max_value=10**9),
    protocol=st.sampled_from(list(WebProtocol)),
    server_name=st.one_of(
        st.none(),
        st.from_regex(r"[a-z][a-z0-9-]{0,20}\.[a-z]{2,8}", fullmatch=True),
    ),
    name_source=st.sampled_from(list(NameSource)),
    rtt=st.builds(
        RttSummary,
        samples=st.integers(min_value=0, max_value=100),
        min_ms=st.floats(min_value=0, max_value=500),
        avg_ms=st.floats(min_value=0, max_value=500),
        max_ms=st.floats(min_value=0, max_value=500),
    ),
    vantage=st.sampled_from(["pop1", "pop2"]),
)


class TestTripleExport:
    @given(st.lists(flow_strategy, min_size=1, max_size=10, unique_by=lambda r: (r.client_id, r.client_port)))
    @settings(max_examples=30, deadline=None)
    def test_byte_accounting_agrees_everywhere(self, records):
        # Native log.
        from_log = [parse_record(format_record(record)) for record in records]
        # IPFIX.
        from_ipfix = parse_ipfix(export_ipfix(records))
        # NetFlow v5 (biflows rebuilt with the anonymized-id convention).
        rows = []
        for datagram in export_netflow_v5(records):
            rows.extend(parse_netflow_v5(datagram))
        from_v5 = merge_biflows(rows, [Prefix.parse("0.0.0.0/8")])

        def totals(flows):
            return (
                sum(f.bytes_up for f in flows),
                sum(f.bytes_down for f in flows),
                sum(f.packets_up for f in flows),
                sum(f.packets_down for f in flows),
            )

        assert totals(from_log) == totals(records)
        assert totals(from_ipfix) == totals(records)
        assert totals(from_v5) == totals(records)

    @given(st.lists(flow_strategy, min_size=1, max_size=8, unique_by=lambda r: (r.client_id, r.client_port)))
    @settings(max_examples=30, deadline=None)
    def test_rich_fields_survive_only_rich_formats(self, records):
        from_ipfix = parse_ipfix(export_ipfix(records))
        assert [f.server_name for f in from_ipfix] == [
            record.server_name for record in records
        ]
        assert [f.protocol for f in from_ipfix] == [
            record.protocol for record in records
        ]
        rows = []
        for datagram in export_netflow_v5(records):
            rows.extend(parse_netflow_v5(datagram))
        from_v5 = merge_biflows(rows, [Prefix.parse("0.0.0.0/8")])
        assert all(f.server_name is None for f in from_v5)
        assert all(f.rtt.samples == 0 for f in from_v5)

    @given(st.lists(flow_strategy, min_size=1, max_size=8, unique_by=lambda r: (r.client_id, r.client_port)))
    @settings(max_examples=30, deadline=None)
    def test_endpoints_preserved(self, records):
        from_ipfix = parse_ipfix(export_ipfix(records))
        for original, decoded in zip(records, from_ipfix):
            assert decoded.server_ip == original.server_ip
            assert decoded.client_port == original.client_port
            assert decoded.server_port == original.server_port
            assert decoded.transport is original.transport

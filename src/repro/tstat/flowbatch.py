"""The flow tier's one batch type: flow records as typed columns.

The paper's cluster reduced 247 billion flow records by streaming them
through predefined per-day analytics (Section 2.2).  Here a day of flows
is a :class:`FlowBatch` — the :class:`~repro.dataflow.columnar.ColumnBatch`
of :data:`FLOW_CODEC`, the flow record's declared schema — whether the
generator assembled its columns, a v2 lake chunk stored them, or a probe's
``FlowRecord`` list was turned into them by :meth:`FlowBatch.of`, the one
rows→columns normaliser every stage-1 flow analytic calls first.  So

* generation assembles arrays instead of allocating objects,
* service classification runs **once per distinct server name** instead
  of once per (flow, consumer) pair (:meth:`FlowBatch.service_view`),
* the stage-1 analytics have one body, which reduces whole columns, and
* a :class:`FlowRecord` is built only when somebody iterates the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.dataflow.columnar import ColumnarCodec, ColumnBatch, ColumnSpec
from repro.services.rules import RuleSet
from repro.tstat.flow import (
    FlowRecord,
    NameSource,
    Transport,
    WebProtocol,
    second_level_domain,
)
from repro.tstat.logs import format_record, parse_record

#: Codec for probe flow records: the probe's own log line (v1) and the
#: record's flat row, RTT summary inlined (v2).  Floats carry the log
#: line's precision as their wire precision, so the same records read back
#: field-identical from either lake container.
FLOW_CODEC: ColumnarCodec[FlowRecord] = ColumnarCodec(
    encode=format_record,
    decode=parse_record,
    record=FlowRecord.from_cells,
    columns=[
        ColumnSpec("client_id", "int"),
        ColumnSpec("server_ip", "int"),
        ColumnSpec("client_port", "int"),
        ColumnSpec("server_port", "int"),
        ColumnSpec("transport", "str", enum=Transport),
        ColumnSpec("ts_start", "float", digits=6),
        ColumnSpec("ts_end", "float", digits=6),
        ColumnSpec("packets_up", "int"),
        ColumnSpec("packets_down", "int"),
        ColumnSpec("bytes_up", "int"),
        ColumnSpec("bytes_down", "int"),
        ColumnSpec("protocol", "str", enum=WebProtocol),
        ColumnSpec("server_name", "str", attr="name"),
        ColumnSpec("name_source", "str", enum=NameSource),
        ColumnSpec("rtt_samples", "int", attr="rtt.samples"),
        ColumnSpec("rtt_min_ms", "float", attr="rtt.min_ms", digits=3),
        ColumnSpec("rtt_avg_ms", "float", attr="rtt.avg_ms", digits=3),
        ColumnSpec("rtt_max_ms", "float", attr="rtt.max_ms", digits=3),
        ColumnSpec("vantage", "str"),
    ],
    zone_columns=("vantage", "protocol"),
)

#: The service of a flow no domain rule names: the P2P label's, else Other.
P2P_SERVICE = "Peer-To-Peer"
FALLBACK_SERVICE = "Other"


@dataclass(frozen=True)
class BatchServiceView:
    """One ruleset's classification of a whole batch, computed once.

    ``rules.classify`` ran once per *distinct* server name; the per-flow
    results live in two integer columns over a shared service table:

    * ``flow_codes`` — a flow's service as stage-1 classifies it (domain
      rules, then the P2P label, then ``"Other"``); always a valid index
      into ``services``.
    * ``name_codes`` — pure ``rules.classify(server_name)`` semantics as
      used by the RTT analytics; ``-1`` where no rule matched.
    """

    services: Tuple[str, ...]
    flow_codes: np.ndarray
    name_codes: np.ndarray
    _index: Dict[str, int] = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        self._index.update(
            {service: code for code, service in enumerate(self.services)}
        )

    def code_of(self, service: str) -> int:
        """Dense code of ``service``, or ``-1`` when absent from the batch."""
        return self._index.get(service, -1)

    def flow_mask(self, service: str) -> np.ndarray:
        """Boolean column: flows classified to ``service`` (``flow_codes``)."""
        code = self.code_of(service)
        if code < 0:
            return np.zeros(self.flow_codes.shape, dtype=bool)
        return self.flow_codes == code

    def name_mask(self, service: str) -> np.ndarray:
        """Boolean column: flows whose *domain rules* match ``service``."""
        code = self.code_of(service)
        if code < 0:
            return np.zeros(self.name_codes.shape, dtype=bool)
        return self.name_codes == code


class FlowBatch(ColumnBatch[FlowRecord]):
    """Flow records as :data:`FLOW_CODEC`'s columns, plus what only flows
    have: the per-ruleset classification and the second-level-domain table,
    both reduced once per *distinct* server name (the ``server_name``
    dictionary, where ``None`` — and an empty name — is an unnamed flow).
    """

    __slots__ = ("_views", "_sld_table")

    def __init__(
        self,
        codec: ColumnarCodec[FlowRecord],
        columns: Mapping[str, np.ndarray],
        dictionaries: Mapping[str, Any],
    ) -> None:
        super().__init__(codec, columns, dictionaries)
        #: per-ruleset classification cache: id(rules) → (rules, view).  The
        #: strong reference to the ruleset keeps the id from being recycled.
        self._views: Dict[int, Tuple[RuleSet, BatchServiceView]] = {}
        self._sld_table: Optional[Tuple[Tuple[str, ...], np.ndarray]] = None

    @classmethod
    def of(
        cls,
        records: Iterable[FlowRecord],
        codec: ColumnarCodec[FlowRecord] = FLOW_CODEC,
    ) -> "FlowBatch":
        """``records`` as a flow batch: the one rows→columns normaliser of
        the flow tier.  A flow batch passes through, a lake block of
        :data:`FLOW_CODEC` is adopted array by array, records are flattened."""
        return super().of(records, codec)

    @classmethod
    def classified(
        cls,
        flows: Iterable[FlowRecord],
        rules: RuleSet,
        codes: Optional[BatchServiceView] = None,
    ) -> Tuple["FlowBatch", BatchServiceView]:
        """What a stage-1 analytic starts from: ``flows`` normalised
        (:meth:`of`) and classified under ``rules`` — by the caller's shared
        ``codes`` when given, else computed (and memoized) now."""
        batch = cls.of(flows)
        return batch, codes if codes is not None else batch.service_view(rules)

    @property
    def total_bytes(self) -> np.ndarray:
        return self.columns["bytes_up"] + self.columns["bytes_down"]

    def service_view(self, rules: RuleSet) -> BatchServiceView:
        """Classify the whole batch under ``rules``, memoized per ruleset.

        Domain rules run once per distinct name; a flow no rule names is
        ``"Peer-To-Peer"`` when its protocol is P2P, else ``"Other"`` — one
        vectorized select over the protocol column.
        """
        cached = self._views.get(id(rules))
        if cached is not None and cached[0] is rules:
            return cached[1]
        index: Dict[str, int] = {}
        name_table = np.fromiter(
            (
                -1 if service is None else index.setdefault(service, len(index))
                for service in map(rules.classify, self.dictionaries["server_name"])
            ),
            dtype=np.int64,
        )
        p2p = index.setdefault(P2P_SERVICE, len(index))
        fallback = index.setdefault(FALLBACK_SERVICE, len(index))
        name_codes = name_table[self.columns["server_name"]]
        flow_codes = np.where(
            name_codes >= 0,
            name_codes,
            np.where(self.equals("protocol", WebProtocol.P2P.value), p2p, fallback),
        )
        view = BatchServiceView(
            services=tuple(index), flow_codes=flow_codes, name_codes=name_codes
        )
        self._views[id(rules)] = (rules, view)
        return view

    def sld_table(self) -> Tuple[Tuple[str, ...], np.ndarray]:
        """Second-level domains, reduced once per distinct name.

        Returns ``(slds, sld_of_name)`` where ``sld_of_name[code]`` — the
        ``server_name`` column holds the codes — is an index into ``slds``,
        or ``-1`` for unnamed flows.
        """
        if self._sld_table is None:
            index: Dict[str, int] = {}
            sld_of_name = np.fromiter(
                (
                    index.setdefault(second_level_domain(name), len(index))
                    if name
                    else -1
                    for name in self.dictionaries["server_name"]
                ),
                dtype=np.int64,
            )
            self._sld_table = (tuple(index), sld_of_name)
        return self._sld_table

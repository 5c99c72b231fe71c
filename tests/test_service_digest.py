"""The results digest's text, pinned against a plain object-graph oracle.

:func:`canonical_json` writes the canonical JSON straight from columns and
rows.  Its bytes must be exactly what the original definition gives: the
object graph below (:func:`canonical`), dumped with sorted keys and
compact separators.  Every case compares the text itself, not a hash.
"""

import dataclasses
import datetime
import enum
import hashlib
import json
import math

import numpy as np
import pytest

from repro.analytics.activity import SubscriberDay
from repro.analytics.infrastructure import (
    DOMAIN_BYTES_CODEC,
    SERVER_CODEC,
    AsnBreakdown,
    DomainBytes,
    ServerAddress,
)
from repro.analytics.popularity import SERVICE_STATS_CODEC, DailyServiceStats
from repro.analytics.rtt import RTT_CODEC, RttSample
from repro.core.study import StudyData
from repro.dataflow.columnar import ColumnBatch
from repro.service.errors import ServiceError
from repro.service.results import canonical_json, study_digest
from repro.synthesis.flowgen import HOURLY_CODEC, PROTOCOL_CODEC, HourlyVolume, ProtocolUsage
from repro.synthesis.population import Technology
from repro.tstat.flow import WebProtocol


def canonical(obj: object) -> object:
    """A JSON-encodable form that is a pure function of field values.

    Containers with run-dependent iteration order (dicts keyed by
    tuples, sets of addresses) are sorted by their canonical JSON
    encoding; dataclasses encode as (class name, fields in declaration
    order); enums by (type, member name); dates as ISO strings.  A column
    batch, whose columns are its record's fields, encodes as its records.
    """
    if isinstance(obj, ColumnBatch):  # its records' encoding, from the columns
        cells = []
        for spec, values in zip(obj.codec.columns, obj.cells()):
            if spec.kind == "date" or spec.enum is not None:
                encoded = {cell: canonical(spec.enum(cell) if spec.enum and cell else cell)
                           for cell in dict.fromkeys(values)}
                values = [encoded[cell] for cell in values]
            cells.append(values)
        return [["@" + obj.codec.record.__name__, list(row)] for row in zip(*cells)]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            "@" + type(obj).__name__,
            [
                canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            ],
        ]
    if isinstance(obj, enum.Enum):
        return ["@enum", type(obj).__name__, obj.name]
    if isinstance(obj, (datetime.datetime, datetime.date)):
        return obj.isoformat()
    if isinstance(obj, dict):
        items = [[canonical(key), canonical(value)] for key, value in obj.items()]
        items.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return ["@dict", items]
    if isinstance(obj, (set, frozenset)):
        return [
            "@set",
            sorted(
                (canonical(element) for element in obj),
                key=lambda c: json.dumps(c, sort_keys=True),
            ),
        ]
    if isinstance(obj, (list, tuple)):
        return [canonical(element) for element in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise ServiceError(
        f"cannot canonicalize {type(obj).__name__} for a results digest"
    )


def oracle_text(obj: object) -> str:
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


def assert_oracle_text(obj: object) -> str:
    """``canonical_json(obj)`` is the oracle's text, byte for byte.

    A mismatch names the first differing offset with some context: a
    study's text is megabytes, too long for pytest's own diff."""
    text, expected = canonical_json(obj), oracle_text(obj)
    if text != expected:
        at = next(
            (i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
            min(len(text), len(expected)),
        )
        pytest.fail(
            f"text differs at offset {at} (lengths {len(text)}, {len(expected)}):\n"
            f"  got      {text[max(0, at - 60):at + 60]!r}\n"
            f"  expected {expected[max(0, at - 60):at + 60]!r}"
        )
    return text


D1 = datetime.date(2017, 4, 10)
D2 = datetime.date(2017, 4, 11)
ADSL, FTTH = Technology.ADSL, Technology.FTTH

#: Strings whose JSON text needs escapes, and whose JSON order differs
#: from their str order ("é" is written as a \u escape, which sorts
#: before "z").
ODD_NAMES = ('say "hi"', "back\\slash", "café.example", "zz.example", "")


def edge_study() -> StudyData:
    """Every fast path's edge cases in one hand-built study."""
    return StudyData(
        months=[(2017, 4)],
        subscriber_days={
            D2: [SubscriberDay(D2, 10, FTTH, 5, 1, 2, False)],
            D1: [
                SubscriberDay(D1, 100, ADSL, 2**40, 0, 1, True),
                SubscriberDay(D1, 9, FTTH, 0, 7, 0, False),
            ],
            datetime.date(2017, 4, 12): [],
        },
        service_stats=ColumnBatch.from_rows(  # rows: technology None is a cell
            [
                (D1, "café", 1, 2, 3, 4, 5, None),
                (D1, 'say "hi"', 0, 0, 0, 0, 0, ADSL.value),
                (D2, "café", 9, 10, 100, 1000, 0, None),
            ],
            SERVICE_STATS_CODEC,
        ),
        protocol_rows=ColumnBatch.of(
            [ProtocolUsage(D1, "back\\slash", WebProtocol.QUIC, 10)], PROTOCOL_CODEC
        ),
        hourly=ColumnBatch.of(
            [HourlyVolume(D1, FTTH, 10, 9), HourlyVolume(D1, ADSL, 9, 100)], HOURLY_CODEC
        ),
        servers=ColumnBatch.of(  # D2 is a flow day without a row
            [
                ServerAddress(D1, "facebook", 100, True),
                ServerAddress(D1, "facebook", 9, False),
                ServerAddress(D1, "café", 2**32 - 1, True),
                ServerAddress(D1, 'say "hi"', 10, True),
            ],
            SERVER_CODEC,
        ),
        asn=[
            AsnBreakdown(D1, "facebook", {name: len(name) for name in ODD_NAMES}),
            AsnBreakdown(D2, "facebook", {}),
        ],
        domain_bytes=ColumnBatch.of(  # a zero-byte domain is a row
            [DomainBytes(D1, "youtube", name, len(name)) for name in ODD_NAMES],
            DOMAIN_BYTES_CODEC,
        ),
        rtt=ColumnBatch.of(
            [
                RttSample("youtube", 2017, ms)
                for ms in (1.5, math.nan, math.inf, -math.inf, -0.0, 1e16)
            ]
            + [RttSample("facebook", 2014, 0.1)],
            RTT_CODEC,
        ),
        flow_days=[D1, D2],
        weekly_visitors={
            (2017, 15, "youtube", FTTH): {100, 9, 10},
            (2017, 15, "youtube", ADSL): set(),
            (2017, 9, "café", ADSL): {1},
            (2017, 10, 'say "hi"', ADSL): {2},
        },
    )


@dataclasses.dataclass(frozen=True)
class NoFields:
    pass


class TestCanonicalJson:
    def test_empty_study(self):
        assert_oracle_text(StudyData())

    def test_suite_study(self, study_data):
        assert_oracle_text(study_data)

    def test_edge_study(self):
        data = edge_study()
        text = assert_oracle_text(data)
        assert text.isascii()
        assert study_digest(data) == hashlib.sha256(text.encode("utf-8")).hexdigest()

    @pytest.mark.parametrize(
        "value",
        [
            {9, 10, 100},
            {100: True, 9: False},
            {True: 1, 2: False, "2": None},  # mixed key types: the general order
            [True, 1, 1.0, None, "1"],
            [DailyServiceStats(D1, "x", 1, 1, 1, 1, 1, None),
             DailyServiceStats(D1, "y", 1, 1, 1, 1, 1, FTTH)],
            [FTTH, None, ADSL, FTTH],
            [NoFields(), NoFields()],
            [0.0, -0.0, math.nan],
            {(2017, ADSL): [], (2017, None): {}, ("2017",): ()},
            frozenset({(1, 2), (1, 10)}),
            (),
            {},
        ],
        ids=repr,
    )
    def test_values(self, value):
        assert_oracle_text(value)

    def test_numpy_int_in_a_set_is_refused(self):
        data = StudyData(weekly_visitors={(2017, 15, "x", ADSL): {np.int64(3)}})
        with pytest.raises(ServiceError):
            oracle_text(data)
        with pytest.raises(ServiceError):
            study_digest(data)

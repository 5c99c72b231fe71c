"""Canonical results: digests, summaries, and figure reports for runs.

The acceptance bar for the control plane is *field identity*: a study
submitted over HTTP must produce exactly the :class:`StudyData` that
``repro run`` produces for the same config.  Rather than shipping the
whole object graph over the wire, the service exposes a canonical
digest — a SHA-256 over a deterministic JSON encoding of every
``StudyData`` field — plus a human-usable summary and the rendered
per-figure reports.  Two runs are field-identical iff their digests
match (the encoding is injective up to field equality: dataclass fields
are encoded in declaration order, dict/set iteration order is
canonicalized away).

The encoding is written as text straight from the data as it is stored:
a column batch column by column, a list of records field by field, each
distinct string, date or enum cell encoded once.  Its bytes are pinned
by the test suite against a plain object-graph oracle.
"""

from __future__ import annotations

import dataclasses
import datetime
import enum
import functools
import hashlib
import json
from json.encoder import encode_basestring_ascii as _string
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.study import StudyData
from repro.dataflow.columnar import ColumnBatch
from repro.service.errors import NotFoundError, ServiceError

#: ``float.__repr__`` spellings JSON writes differently.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: Types whose equal values always encode alike: a column holding one of
#: them (and None) encodes each distinct cell once.
_MEMO_TYPES = (str, bool, datetime.date, datetime.datetime)


def canonical_json(obj: object) -> str:
    """The canonical JSON text of ``obj``: a pure function of field values.

    Containers with run-dependent iteration order (dicts keyed by
    tuples, sets of addresses) are sorted by the JSON text of their keys
    (elements), spelled as ``json.dumps(key, sort_keys=True)`` does;
    dataclasses encode as (class name, fields in declaration order); enums
    by (type, member name); dates as ISO strings.  A column batch, whose
    columns are its record's fields, encodes as its records.  The text is
    compact (no spaces between items) and ASCII-only.
    """
    return _ENCODERS.get(type(obj), _other)(obj)


def _float(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def _list(values: Any) -> str:
    return "[" + ",".join(_tokens(list(values))) + "]"


def _date(value: datetime.date) -> str:
    return _string(value.isoformat())


def _sort_keys(tokens: List[str]) -> List[str]:
    """What each token sorts by: its JSON text with ``json.dumps``'
    default separators (``", "``), which only a list spells differently."""
    if not any(token[0] == "[" for token in tokens):
        return tokens
    return [
        json.dumps(json.loads(token), sort_keys=True) if token[0] == "[" else token
        for token in tokens
    ]


def _dict(obj: Dict[Any, Any]) -> str:
    keys = _tokens(list(obj))
    items = sorted(
        zip(_sort_keys(keys), keys, _tokens(list(obj.values()))), key=itemgetter(0)
    )
    return '["@dict",[' + ",".join(f"[{key},{value}]" for _, key, value in items) + "]]"


def _set(obj: Any) -> str:
    tokens = _tokens(list(obj))
    keys = _sort_keys(tokens)
    if keys is tokens:
        tokens.sort()
    else:
        tokens = [token for _, token in sorted(zip(keys, tokens), key=itemgetter(0))]
    return '["@set",[' + ",".join(tokens) + "]]"


def _batch(batch: ColumnBatch) -> str:
    columns = []
    for spec, values in zip(batch.codec.columns, batch.cells()):
        if spec.enum is not None:
            encoded = {
                cell: canonical_json(spec.enum(cell) if cell else cell)
                for cell in dict.fromkeys(values)
            }
            columns.append(list(map(encoded.__getitem__, values)))
        else:
            columns.append(_tokens(values))
    return "[" + ",".join(_rows(batch.codec.record.__name__, columns, len(batch))) + "]"


def _rows(record: str, columns: List[List[str]], count: int) -> List[str]:
    """Each row's ``["@Record",[cells]]`` from its columns' tokens."""
    head = "[" + _string("@" + record) + ",["
    if not columns:
        return [head + "]]"] * count
    return [head + ",".join(cells) + "]]" for cells in zip(*columns)]


@functools.lru_cache(maxsize=None)
def _record_fields(kind: type) -> Optional[Tuple[str, ...]]:
    """A dataclass type's field names in declaration order, else None."""
    if not dataclasses.is_dataclass(kind) or issubclass(kind, ColumnBatch):
        return None
    return tuple(spec.name for spec in dataclasses.fields(kind))


def _tokens(values: List[Any]) -> List[str]:
    """Each value's canonical JSON text, a homogeneous list at a time."""
    kinds = set(map(type, values))
    if len(kinds) == 1:
        (kind,) = kinds
        if kind is int:
            return list(map(int.__repr__, values))
        if kind is float:
            return list(map(_float, values))
        fields = _record_fields(kind)
        if fields is not None:
            columns = [_tokens(list(map(attrgetter(name), values))) for name in fields]
            return _rows(kind.__name__, columns, len(values))
    kinds.discard(type(None))
    if len(kinds) == 1:
        (kind,) = kinds
        if kind in _MEMO_TYPES or issubclass(kind, enum.Enum):
            encoded = {value: canonical_json(value) for value in dict.fromkeys(values)}
            return list(map(encoded.__getitem__, values))
    return list(map(canonical_json, values))


def _other(obj: object) -> str:
    """Any type without an exact-type encoder, tried in a fixed order."""
    if isinstance(obj, ColumnBatch):
        return _batch(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        (text,) = _tokens([obj])
        return text
    if isinstance(obj, enum.Enum):
        return f'["@enum",{_string(type(obj).__name__)},{_string(obj.name)}]'
    if isinstance(obj, (datetime.datetime, datetime.date)):
        return _date(obj)
    if isinstance(obj, dict):
        return _dict(obj)
    if isinstance(obj, (set, frozenset)):
        return _set(obj)
    if isinstance(obj, (list, tuple)):
        return _list(obj)
    if isinstance(obj, int):  # bool has no subclasses: its encoder is exact
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, str):
        return _string(obj)
    raise ServiceError(
        f"cannot canonicalize {type(obj).__name__} for a results digest"
    )


#: Exact type → encoder; every other type goes through :func:`_other`.
_ENCODERS: Dict[type, Callable[[Any], str]] = {
    str: _string,
    int: int.__repr__,
    float: _float,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
    list: _list,
    tuple: _list,
    dict: _dict,
    set: _set,
    frozenset: _set,
    datetime.date: _date,
    datetime.datetime: _date,
}


def study_digest(data: StudyData) -> str:
    """SHA-256 of the canonical JSON text of every StudyData field."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def study_summary(data: StudyData) -> dict:
    """Size-shaped facts a client can sanity-check without the data."""
    days = sorted(data.subscriber_days)
    return {
        "days": len(days),
        "first_day": days[0].isoformat() if days else None,
        "last_day": days[-1].isoformat() if days else None,
        "months": len(data.months),
        "subscriber_day_rows": sum(
            len(rows) for rows in data.subscriber_days.values()
        ),
        "service_stat_cells": len(data.service_stats),
        "protocol_rows": len(data.protocol_rows),
        "hourly_bins": len(data.hourly),
        "server_rows": len(data.servers),
        "asn_rows": len(data.asn),
        "domain_rows": len(data.domain_bytes),
        "rtt_rows": len(data.rtt),
        "flow_days": len(data.flow_days),
    }


def results_payload(
    data: StudyData,
    rendered: "Dict[str, List[str]] | None" = None,
    unrendered: "Dict[str, str] | None" = None,
) -> dict:
    """The ``results.json`` document for a completed run."""
    if rendered is None:
        rendered, unrendered = render_figures(data)
    return {
        "digest": study_digest(data),
        "summary": study_summary(data),
        "figures": sorted(rendered),
        "unrendered": dict(unrendered or {}),
    }


# ----------------------------------------------------------------------
# Figures


def figure_module(name: str) -> Any:
    """The catalogue's module for figure ``name``, else a NotFoundError
    naming the choices."""
    from repro.figures import FIGURES  # on first use: keeps imports lean

    module = FIGURES.get(name)
    if module is None:
        raise NotFoundError(
            f"unknown figure {name!r} (choose from {', '.join(FIGURES)})"
        )
    return module


def figure_report(data: Optional[StudyData], name: str) -> List[str]:
    """Render one figure's text report from a run's StudyData (Table 1
    reads the rule set, not the study: it takes ``data=None``)."""
    module = figure_module(name)
    fig = module.compute() if name == "table1" else module.compute(data)
    return list(module.report(fig))


def render_figures(
    data: Optional[StudyData], names: Optional[Iterable[str]] = None
) -> "tuple[Dict[str, List[str]], Dict[str, str]]":
    """Render each of ``names`` (default: the whole catalogue) that the
    study's coverage allows.

    Figures pin specific months (e.g. figure 4 ratios April 2017 over
    April 2014), so a date-narrowed study legitimately cannot render all
    of them.  Returns ``(rendered, unrendered)`` where ``unrendered``
    maps figure name to the reason its compute refused the data.
    """
    from repro.figures import FIGURES

    rendered: Dict[str, List[str]] = {}
    unrendered: Dict[str, str] = {}
    for name in FIGURES if names is None else names:
        try:
            rendered[name] = figure_report(data, name)
        except (ValueError, KeyError, IndexError, ArithmeticError) as exc:
            unrendered[name] = f"{type(exc).__name__}: {exc}"
    return rendered, unrendered

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
"""

from __future__ import annotations

import dataclasses
import datetime
import enum
import hashlib
import json
from typing import Dict, List

from repro.core.study import StudyData
from repro.dataflow.columnar import ColumnBatch
from repro.service.errors import NotFoundError, ServiceError


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


def study_digest(data: StudyData) -> str:
    """SHA-256 of the canonical encoding of every StudyData field."""
    blob = json.dumps(canonical(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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
        "census_rows": len(data.census),
        "asn_rows": len(data.asn),
        "domain_rows": len(data.domains),
        "rtt_series": len(data.rtt_samples),
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


def figure_modules() -> Dict[str, object]:
    """Figure key → module, mirroring the ``repro study`` catalogue."""
    from repro.figures import (
        fig02_ccdf,
        fig03_volume_trend,
        fig04_hourly_ratio,
        fig05_services,
        fig06_video_p2p,
        fig07_social,
        fig08_protocols,
        fig09_autoplay,
        fig10_rtt,
        fig11_infrastructure,
        table1,
    )

    return {
        "table1": table1,
        "fig02": fig02_ccdf,
        "fig03": fig03_volume_trend,
        "fig04": fig04_hourly_ratio,
        "fig05": fig05_services,
        "fig06": fig06_video_p2p,
        "fig07": fig07_social,
        "fig08": fig08_protocols,
        "fig09": fig09_autoplay,
        "fig10": fig10_rtt,
        "fig11": fig11_infrastructure,
    }


def figure_report(data: StudyData, name: str) -> List[str]:
    """Render one figure's text report from a run's StudyData."""
    modules = figure_modules()
    module = modules.get(name)
    if module is None:
        raise NotFoundError(
            f"unknown figure {name!r} (choose from {', '.join(sorted(modules))})"
        )
    fig = module.compute() if name == "table1" else module.compute(data)
    return list(module.report(fig))


def render_figures(
    data: StudyData,
) -> "tuple[Dict[str, List[str]], Dict[str, str]]":
    """Render every figure that the study's coverage allows.

    Figures pin specific months (e.g. figure 4 ratios April 2017 over
    April 2014), so a date-narrowed study legitimately cannot render all
    of them.  Returns ``(rendered, unrendered)`` where ``unrendered``
    maps figure name to the reason its compute refused the data.
    """
    rendered: Dict[str, List[str]] = {}
    unrendered: Dict[str, str] = {}
    for name in figure_modules():
        try:
            rendered[name] = figure_report(data, name)
        except (ValueError, KeyError, IndexError, ArithmeticError) as exc:
            unrendered[name] = f"{type(exc).__name__}: {exc}"
    return rendered, unrendered

"""RPR001 — no wall-clock reads in deterministic layers.

Invariant (DESIGN.md §6): synthesis, analytics, and figure code is a pure
function of (config, seed, calendar).  A single ``datetime.now()`` or
``time.time()`` makes two runs of the study diverge, which is exactly the
silent-pipeline-drift failure the reproduction guards against.

The telemetry subsystem needs exactly one exception: something has to
read real elapsed time when an operator profiles a run.  The config's
``wallclock_allowlist`` (matched as relative-path suffixes) names the
sanctioned call sites — by default only ``repro/telemetry/clock.py`` —
and this rule skips those files entirely; every other module in scope,
telemetry included, must go through the :class:`~repro.telemetry.clock.
Clock` protocol.  Clock reads are recognized by the same classifier
RPR002 and RPR011 use (:func:`repro.quality.symbols.nondet_kind`).
In synthesis, analytics and figures it also flags reads of the host's
time zone (``.timestamp()``, ``time.mktime``, ``time.localtime``): the
same day would give other bytes on another host.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator

from repro.quality.findings import Finding
from repro.quality.registry import Rule, call_name, register
from repro.quality.symbols import nondet_kind

#: Where host-time-zone reads are flagged too, and the reads besides
#: ``.timestamp()``.
_ZONE_SCOPES = ("synthesis", "analytics", "figures")
_ZONE_READS = {"time.mktime", "time.localtime"}

#: What this rule calls each kind of clock read the shared classifier
#: (:func:`~repro.quality.symbols.nondet_kind`) recognizes.
_OFFENSES = {
    "datetime": "non-deterministic datetime constructor",
    "time-module": "stdlib time module clock",
    "time-name": "clock imported by name",
}


@register
class WallClockRule(Rule):
    rule_id = "RPR001"
    description = "no wall-clock reads outside the telemetry clock"
    invariant = (
        "per-day seeded generation is deterministic: outputs depend only on "
        "(config, seed, calendar), never on when the study runs"
    )

    def applies_to(self, file_ctx) -> bool:
        config = file_ctx.ctx.config
        if any(
            file_ctx.relpath.endswith(entry)
            for entry in config.wallclock_allowlist
        ):
            return False
        return file_ctx.in_scope(config.wallclock_scopes)

    def check(self, file_ctx) -> Iterator[Finding]:
        zone_scope = file_ctx.in_scope(_ZONE_SCOPES)
        for node in file_ctx.nodes(ast.Call):
            name = call_name(node)
            offense = _OFFENSES.get(nondet_kind(name, file_ctx.imports))
            if offense:
                yield self.finding(
                    file_ctx,
                    node,
                    f"wall-clock read `{name}()` — {offense}; derive times "
                    "from the study calendar or the day's seed instead",
                )
            elif zone_scope and _reads_time_zone(node, name, file_ctx.imports):
                yield self.finding(
                    file_ctx,
                    node,
                    f"host-time-zone read `{name or '.timestamp'}()` — the "
                    "same day gives another epoch under another zone; derive "
                    "epoch seconds from the day's ordinal (UTC) instead",
                )


def _reads_time_zone(node: ast.Call, name: str, imports: Dict[str, str]) -> bool:
    """A ``.timestamp()`` call, or one of :data:`_ZONE_READS` however imported."""
    head, _, rest = name.partition(".")
    target = imports.get(head, "").replace(":", ".")
    resolved = ".".join(part for part in (target, rest) if part)
    return getattr(node.func, "attr", "") == "timestamp" or resolved in _ZONE_READS

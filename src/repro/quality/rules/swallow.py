"""RPR007 — no silently swallowed exceptions in the data/compute planes.

Invariant (DESIGN.md §12): corruption must be *routed*, never eaten.  A
``except: pass`` (or ``except Exception: pass``) in ``dataflow/``,
``tstat/``, or ``core/`` turns a torn partition or an undecodable record
into silently wrong ``StudyData`` — the exact failure mode the integrity
tier exists to make loud.  Broad handlers are fine when they *do*
something with the error: re-raise (possibly as a typed error), return a
failure value, record telemetry, or route the record to quarantine.

Detection: a handler whose type is bare, ``Exception``, or
``BaseException`` (alone or in a tuple) and whose body contains neither a
``raise`` nor any call whatsoever is swallowing — with nothing called,
the error cannot have been recorded anywhere.  Narrow handlers
(``except KeyError:``) are out of scope: catching a *specific* expected
condition and moving on is control flow, not swallowing.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.quality.findings import Finding
from repro.quality.registry import Rule, dotted_name, register

_BROAD = {"Exception", "BaseException"}


@register
class SwallowRule(Rule):
    rule_id = "RPR007"
    description = "no silently swallowed broad exceptions in data/compute planes"
    invariant = (
        "errors in the data and compute planes are routed — re-raised, "
        "recorded, or quarantined — never silently discarded"
    )

    def applies_to(self, file_ctx) -> bool:
        return file_ctx.in_scope(file_ctx.ctx.config.swallow_scopes)

    def check(self, file_ctx) -> Iterator[Finding]:
        for node in file_ctx.nodes(ast.ExceptHandler):
            if not _is_broad(node.type):
                continue
            if _handles_error(node):
                continue
            caught = "bare except" if node.type is None else (
                f"except {dotted_name(node.type) or 'Exception'}"
            )
            yield self.finding(
                file_ctx,
                node,
                f"`{caught}` silently swallows the error — re-raise it, "
                "wrap it in a typed error, or record it (telemetry, "
                "quarantine, failure value)",
            )


def _is_broad(node) -> bool:
    """True for ``except:``, ``except Exception``, ``except BaseException``,
    and tuples containing either."""
    if node is None:
        return True
    if isinstance(node, ast.Tuple):
        return any(_is_broad(element) for element in node.elts)
    name = dotted_name(node)
    return name.split(".")[-1] in _BROAD if name else False


def _handles_error(handler: ast.ExceptHandler) -> bool:
    """True when the handler body raises or calls anything at all — the
    minimal evidence that the error was routed rather than eaten."""
    for node in ast.walk(handler):
        if isinstance(node, (ast.Raise, ast.Call)):
            return True
    return False

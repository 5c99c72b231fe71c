"""RPR009 — typed-error contracts on decode and pool entry points.

Invariant (DESIGN.md §10/§12): failure *routing* is part of an API's
type.  Callers of the decode paths (``parse_record``, ``read_flow_log``)
quarantine on :class:`~repro.dataflow.integrity.RecordDecodeError` — a bare
``ValueError`` escaping instead sails straight past every quarantine
``except`` and kills a five-year scan.  Likewise the pool path
(:func:`~repro.core.parallel.execute_study`) promises ``ChunkError`` /
``PoolError`` / argument-validation ``ValueError`` and nothing else.

The rule runs a raise-propagation analysis over the whole-program call
graph: a function's *escape set* is its own uncaught explicit raises
plus everything escaping its callees minus what the ``except`` guards
around each call site catch (with subclass checks against the project +
builtin exception hierarchy).  Every escaping class outside the
contract's allowed families is a finding at the contract function, with
the origin ``module:line`` of the offending ``raise`` in the message.

Example violation::

    # contract: parse_thing -> RecordDecodeError only
    def parse_thing(blob):
        if not blob:
            raise ValueError("empty")   # <- RPR009: untyped escape

Fix guidance: raise (or wrap into) a subclass of the contracted family —
``raise ThingFormatError("empty")`` where ``ThingFormatError`` derives
from ``RecordDecodeError``.  Catch-and-wrap at the boundary is exactly
what ``parse_record`` does with conversion errors.  Dynamic raises the
analysis cannot type are ignored — the contract covers *typed* escapes.

Contracts live in ``LintConfig.error_contracts``; entries whose module
does not exist under the analysis root are skipped (so the repo config
is inert on fixture trees), but a contract naming a *function* that does
not exist in a present module is a configuration error (LintError).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.quality.findings import Finding, LintError
from repro.quality.registry import Rule, register

_MEMO_KEY = "RPR009"


@register
class ErrorContractRule(Rule):
    rule_id = "RPR009"
    description = "only contracted exception families escape decode/pool entry points"
    invariant = (
        "decode paths surface RecordDecodeError subclasses only; the pool "
        "path surfaces ChunkError/PoolError/ValueError only — callers can "
        "quarantine by type"
    )

    def check(self, file_ctx) -> Iterator[Finding]:
        results = self._results(file_ctx.ctx)
        for line, message in results.get(file_ctx.module or "", ()):
            yield Finding(
                path=file_ctx.relpath,
                line=line,
                column=0,
                rule_id=self.rule_id,
                severity=self.severity,
                message=message,
            )

    # ------------------------------------------------------------------

    def _results(self, ctx):
        cached = ctx.memo.get(_MEMO_KEY)
        if cached is not None:
            return cached
        facts = ctx.facts()
        results: dict = {}
        for entry, allowed_names in ctx.config.error_contracts:
            module, _, function = entry.partition(":")
            summary = facts.modules.get(module)
            if summary is None:
                continue  # contract module absent (fixture tree): inert
            info = summary.functions.get(function)
            if info is None:
                raise LintError(
                    f"error contract {entry!r}: no function "
                    f"{function!r} in {module}"
                )
            allowed: List[Tuple[str, str]] = []
            for name in allowed_names:
                allowed_module, _, allowed_class = name.partition(":")
                allowed.append((allowed_module, allowed_class))
            for cid, witness in sorted(facts.escapes((module, function)).items()):
                if any(facts.is_exception_subclass(cid, base) for base in allowed):
                    continue
                origin_module, origin_line = witness
                families = ", ".join(cls for _, cls in allowed)
                results.setdefault(module, []).append(
                    (
                        info.line,
                        f"`{function}()` contracts to raise only "
                        f"[{families}] but `{cid[1]}` (raised at "
                        f"{origin_module}:{origin_line}) can escape — wrap "
                        "it in a contracted subclass at the boundary",
                    )
                )
        ctx.memo[_MEMO_KEY] = results
        return results

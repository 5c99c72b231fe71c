"""RPR011 — non-determinism must not flow into export sinks, even
through helpers.

Invariant (DESIGN.md §5/§13): the paper's five-year longitudinal claims
rest on byte-identical reruns — "parallelism changes wall-clock, never
results".  RPR001/RPR002 ban *direct* wall-clock and unseeded-RNG reads
in scoped code, but a helper laundered through another module defeats a
per-file rule::

    # helpers.py
    def stamp():
        return time.time()          # RPR001 flags this file...

    # export path, different file
    writer.write({"ts": stamp()})   # ...but the flow is the bug

This rule closes the gap interprocedurally: the call graph computes the
set of functions whose *return value* derives from a wall-clock or
unseeded-RNG read (a fixpoint over helper chains), and every file with
export-sink bindings gets a local taint pass — names assigned from a
non-deterministic call (directly or through such a helper) may not
appear in the arguments of a sink write.  The pass is RPR003's
(:meth:`repro.quality.rules.anonymize.Sinks.arguments`) with a different
taint source; calls are classified by the same function as RPR001/RPR002
(:func:`repro.quality.symbols.nondet_kind`).

Example violation::

    from repro.reporting import export
    row = {"generated": helpers.stamp()}   # tainted via helper chain
    export.write_rows(path, [row])         # <- RPR011

Fix guidance: pass time through the telemetry
:class:`~repro.telemetry.clock.Clock` protocol (the sanctioned
``perf_counter`` site) or ship it in the task payload / study config;
seed RNGs from the manifest.  The telemetry clock file itself is
allowlisted (``LintConfig.wallclock_allowlist``), so values threaded
through it are legitimate.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from repro.quality.findings import Finding
from repro.quality.registry import Rule, call_name, dotted_name, register
from repro.quality.rules.anonymize import Sinks, Taint
from repro.quality.symbols import nondet_source

_MEMO_KEY = "RPR011"


@register
class InterproceduralTaintRule(Rule):
    rule_id = "RPR011"
    description = (
        "no wall-clock/RNG derived values reach export sinks, even via helpers"
    )
    invariant = (
        "export payloads are pure functions of the input data and the "
        "study config; time and randomness arrive through the Clock "
        "protocol or the manifest, never ambiently"
    )

    def check(self, file_ctx) -> Iterator[Finding]:
        config = file_ctx.ctx.config
        if any(file_ctx.relpath.endswith(e) for e in config.wallclock_allowlist):
            return
        sinks = Sinks(file_ctx.imports, config.sink_modules)
        if not sinks.bound():
            return
        facts = file_ctx.ctx.facts()
        nondet = self._nondet(file_ctx.ctx)
        module = file_ctx.module or ""

        def taint_of(expr: ast.AST, state: Taint) -> Optional[str]:
            """Why ``expr`` is non-deterministic, or None if it is clean."""
            for node in ast.walk(expr):
                if isinstance(node, ast.Name) and node.id in state.tainted:
                    return state.tainted[node.id]
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                if not name:
                    continue
                direct = nondet_source(name, file_ctx.imports)
                if direct:
                    return direct
                target = facts.resolve_call(module, name)
                if target is not None and target in nondet:
                    return f"`{name}()` — {nondet[target]}"
            return None

        for call, arg, state in sinks.arguments(file_ctx.tree, taint_of):
            reason = taint_of(arg, state)
            if reason is None:
                continue
            label = dotted_name(arg) or type(arg).__name__
            yield self.finding(
                file_ctx,
                arg,
                f"`{label}` passed to export sink `{call_name(call)}` "
                f"carries non-determinism ({reason}) — exported results "
                "would differ between identical runs; thread time through "
                "the Clock protocol or the study config instead",
            )

    def _nondet(self, ctx) -> Dict[Tuple[str, str], str]:
        cached = ctx.memo.get(_MEMO_KEY)
        if cached is None:
            cached = ctx.facts().nondet_functions(
                allowlist=ctx.config.wallclock_allowlist
            )
            ctx.memo[_MEMO_KEY] = cached
        return cached

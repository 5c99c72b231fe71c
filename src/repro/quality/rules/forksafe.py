"""RPR004 — worker-process imports are start-method clean.

Invariant (core/parallel.py): "parallelism changes wall-clock, never
results."  Workers may start via ``fork`` *or* ``spawn`` — the method is
resolved at runtime (:func:`repro.core.pool.resolve_start_method`), so
every module in the transitive import closure of
``core.parallel._run_chunk`` must behave identically under both.  Two
traps are flagged:

* **Mutable module-level containers.**  Under fork the container is
  duplicated into each worker's memory image; mutated in a worker, it
  silently diverges from its siblings and from the parent.  Under spawn
  it is re-initialised per worker instead — a different wrong answer.
  Either way, results start depending on which worker handled which day.
* **Hard-coded start methods.**  A literal ``get_context("fork")`` or
  ``set_start_method("spawn")`` inside the closure pins the whole run to
  one method, breaking the runtime selection contract (and, for
  ``"fork"``, portability to platforms without it).  Pass a resolved
  variable instead.

The closure is computed every run from the same per-module facts as the
call graph (:meth:`repro.quality.callgraph.ProjectFacts.worker_closure`:
each module summary records every import target) — never from a
hard-coded module list — and includes package ``__init__`` modules and
function-local imports, because workers execute those too.  The entry
must name a real function, exactly as for RPR008.

A flagged assignment is accepted only when it is frozen
(``tuple``/``frozenset``/``MappingProxyType``) or carries a
``# repro: noqa[RPR004] -- <justification>`` explaining why sharing is
safe.  A bare noqa without justification does not count.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.quality.findings import Finding
from repro.quality.registry import (
    Rule,
    call_name,
    module_level_statements,
    register,
    target_names,
)

#: Callables producing mutable containers.
_MUTABLE_FACTORIES = {
    "list",
    "dict",
    "set",
    "defaultdict",
    "OrderedDict",
    "Counter",
    "deque",
    "bytearray",
    "ChainMap",
}

#: Callables whose result is safely shareable across forks.
_FREEZING_FACTORIES = {"tuple", "frozenset", "MappingProxyType", "FrozenInstanceError"}

_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)

#: Calls that pin the multiprocessing start method when given a literal.
_START_METHOD_CALLS = {"get_context", "set_start_method"}


@register
class ForkSafeWorkersRule(Rule):
    rule_id = "RPR004"
    description = "worker-import closure: no mutable module state, no pinned start method"
    invariant = (
        "every module a pool worker executes is free of mutable "
        "module-level state and never pins the multiprocessing start "
        "method, so workers cannot diverge from each other or from a "
        "serial run under either fork or spawn"
    )
    requires_justification = True

    def applies_to(self, file_ctx) -> bool:
        return file_ctx.module is not None

    def check(self, file_ctx) -> Iterator[Finding]:
        if file_ctx.module not in file_ctx.ctx.fork_modules():
            return
        for statement in module_level_statements(file_ctx.tree):
            if isinstance(statement, ast.Assign):
                targets = statement.targets
                value = statement.value
            elif isinstance(statement, ast.AnnAssign) and statement.value:
                targets = [statement.target]
                value = statement.value
            else:
                continue
            names = target_names(*targets)
            if not names or all(_is_dunder(name) for name in names):
                continue
            offense = _mutability(value)
            if offense:
                label = ", ".join(names)
                yield self.finding(
                    file_ctx,
                    statement,
                    f"module-level mutable {offense} `{label}` in fork-worker "
                    f"import closure of `{file_ctx.ctx.config.fork_entry}`; "
                    "freeze it (tuple/frozenset/MappingProxyType) or add "
                    "`# repro: noqa[RPR004] -- <why sharing is safe>`",
                )
        yield from self._pinned_start_methods(file_ctx)

    def _pinned_start_methods(self, file_ctx) -> Iterator[Finding]:
        """Flag literal-argument get_context/set_start_method calls."""
        for node in file_ctx.nodes(ast.Call):
            name = call_name(node).split(".")[-1]
            if name not in _START_METHOD_CALLS:
                continue
            method = _literal_start_method(node)
            if method is None:
                continue
            yield self.finding(
                file_ctx,
                node,
                f"`{name}({method!r})` pins the start method inside the "
                f"worker-import closure of `{file_ctx.ctx.config.fork_entry}`; "
                "resolve it at runtime (repro.core.pool.resolve_start_method) "
                "and pass the result instead",
            )


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _literal_start_method(call: ast.Call) -> Optional[str]:
    """The literal method string a start-method call pins, or ``None``."""
    candidates = list(call.args[:1])
    candidates.extend(
        keyword.value for keyword in call.keywords if keyword.arg == "method"
    )
    for candidate in candidates:
        if isinstance(candidate, ast.Constant) and isinstance(
            candidate.value, str
        ):
            return candidate.value
    return None


def _mutability(value: ast.expr) -> str:
    """Human label of the mutable container ``value`` builds, or ``""``."""
    if isinstance(value, ast.Dict) or isinstance(value, ast.DictComp):
        return "dict"
    if isinstance(value, ast.List) or isinstance(value, ast.ListComp):
        return "list"
    if isinstance(value, ast.Set) or isinstance(value, ast.SetComp):
        return "set"
    if isinstance(value, ast.Call):
        name = call_name(value).split(".")[-1]
        if name in _FREEZING_FACTORIES:
            return ""
        if name in _MUTABLE_FACTORIES:
            return f"{name}()"
    return ""

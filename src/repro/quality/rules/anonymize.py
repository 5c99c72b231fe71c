"""RPR003 — raw client addresses never cross the export boundary.

Invariant (paper §2.1): subscriber IP addresses are anonymized *at the
probe*; everything downstream — flow logs, CSV exports — sees pseudonyms
only.  This rule is a lightweight taint analysis: expressions that look
like raw client addresses (``client_ip``, ``raw_addr``, ``subscriber_ip``
names or attributes) may not appear as arguments to the write APIs of the
sink modules (``repro.reporting.export``, ``repro.tstat.logs``) unless
they pass through an anonymizer first.

Sanitization is recognized two ways: the value is the result of a call
whose name mentions ``anonymize``/``anonymizer`` (covers bound
``TableAnonymizer`` instances and ``self._anonymize``), or the variable
was reassigned from such a call earlier in the same function.

The walk itself — sink calls found through the file's import map, taint
carried through assignments in source order, writer instances tracked,
each nested function starting from its enclosing scope's state — is
:meth:`Sinks.arguments`, which RPR011 shares; the two rules differ only in
what starts the taint and in their message.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Sequence, Set, Tuple

from repro.quality.findings import Finding
from repro.quality.registry import Rule, call_name, dotted_name, register, scope_walk

#: Identifiers that denote an un-anonymized subscriber address.
_RAW_IP_RE = re.compile(
    r"(?:^|_)(?:raw|client|subscriber|src|customer)_?(?:ip|addr|address)"
    r"(?:es|s)?(?:$|_)"
)

_SANITIZER_RE = re.compile(r"anonym", re.IGNORECASE)

_WRITE_METHODS = ("write", "write_all", "writerow", "writerows")


def _is_raw_identifier(identifier: str) -> bool:
    return bool(_RAW_IP_RE.search(identifier.lower()))


def _is_sanitizer_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and bool(
        _SANITIZER_RE.search(call_name(node) or "")
    )


@dataclass
class Taint:
    """One scope's state in the sink walk."""

    #: name -> why it is tainted
    tainted: Dict[str, str] = field(default_factory=dict)
    #: names rebound from a sanitizer call
    cleansed: Set[str] = field(default_factory=set)
    #: names bound to sink-writer instances
    writers: Set[str] = field(default_factory=set)

    def copy(self) -> "Taint":
        return Taint(dict(self.tainted), set(self.cleansed), set(self.writers))


#: ``taint_of(expression, state)``: why the expression is tainted, or None.
TaintOf = Callable[[ast.AST, Taint], Optional[str]]


class Sinks:
    """The export sinks as one file sees them through its import map."""

    def __init__(self, imports: Dict[str, str], sink_modules: Sequence[str]) -> None:
        self._imports = imports
        self._prefixes = tuple(f"{module}." for module in sink_modules)

    def bound(self) -> bool:
        """Whether any import binds a sink module, a name from one, or a
        package above one — else no call in the file can reach a sink."""
        return any(
            path.startswith(self._prefixes)
            or any(prefix.startswith(f"{path}.") for prefix in self._prefixes)
            for path in (target.replace(":", ".") for target in self._imports.values())
        )

    def arguments(
        self,
        tree: ast.Module,
        taint_of: TaintOf,
        cleanses: Callable[[ast.AST], bool] = lambda value: False,
    ) -> Iterator[Tuple[ast.Call, ast.expr, Taint]]:
        """Every argument of every sink call, with the taint state there.

        Each scope is walked once, in source order: an assignment taints
        its name targets when ``taint_of`` says the value is tainted and
        cleans them otherwise (``cleanses`` cleans them for good); a nested
        function starts from a copy of its enclosing scope's state where
        it is defined.
        """

        def assign(node: ast.Assign, state: Taint) -> None:
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if not targets:
                return
            reason = None
            if cleanses(node.value):
                state.cleansed.update(targets)
            else:
                reason = taint_of(node.value, state)
            for target in targets:
                if reason is None:
                    state.tainted.pop(target, None)
                else:
                    # Taint propagates through plain assignment: rows built
                    # from a raw address stay raw under any other name.
                    state.tainted[target] = reason
            if isinstance(node.value, ast.Call) and self._is_writer(node.value):
                state.writers.update(targets)

        def walk(scope: ast.AST, state: Taint):
            events = sorted(
                (node for node in scope_walk(scope) if isinstance(node, _EVENTS)),
                key=lambda node: (node.lineno, node.col_offset),
            )
            for node in events:
                if isinstance(node, ast.Assign):
                    assign(node, state)
                elif isinstance(node, ast.Call):
                    if self._is_sink_call(node, state.writers):
                        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                            yield node, arg, state
                else:  # a nested function
                    yield from walk(node, state.copy())

        return walk(tree, Taint())

    def _sink_path(self, call: ast.Call) -> str:
        """The callee's absolute dotted path if it lies in a sink module."""
        head, _, rest = call_name(call).partition(".")
        target = self._imports.get(head)
        if target is None:
            return ""
        path = target.replace(":", ".") + (f".{rest}" if rest else "")
        return path if path.startswith(self._prefixes) else ""

    def _is_writer(self, call: ast.Call) -> bool:
        """``FlowLogWriter(path)``: constructs a sink class."""
        return self._sink_path(call).rpartition(".")[2][:1].isupper()

    def _is_sink_call(self, call: ast.Call, writers: Set[str]) -> bool:
        if self._sink_path(call):
            return True
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in _WRITE_METHODS:
            return False
        # writer.write(record) on a tracked instance, or the chained
        # FlowLogWriter(path).write(record).
        receiver = func.value
        if isinstance(receiver, ast.Name):
            return receiver.id in writers
        return isinstance(receiver, ast.Call) and self._is_writer(receiver)


#: What the sink walk visits: assignments, calls, nested function scopes.
_EVENTS = (ast.Assign, ast.Call, ast.FunctionDef, ast.AsyncFunctionDef)


@register
class AnonymizeBeforeExportRule(Rule):
    rule_id = "RPR003"
    description = "raw client addresses must be anonymized before export sinks"
    invariant = (
        "client identity leaves the probe only as a stable pseudonym "
        "(prefix-preserving or table anonymizer); export/log writers never "
        "see a raw address"
    )

    def check(self, file_ctx) -> Iterator[Finding]:
        sinks = Sinks(file_ctx.imports, file_ctx.ctx.config.sink_modules)
        if not sinks.bound():
            return
        for call, arg, state in sinks.arguments(
            file_ctx.tree, _raw_address, cleanses=_is_sanitizer_call
        ):
            for raw in _tainted_subexpressions(arg, state):
                label = dotted_name(raw) or ast.dump(raw)[:40]
                yield self.finding(
                    file_ctx,
                    raw,
                    f"raw client address `{label}` reaches export sink "
                    f"`{call_name(call)}` without passing through "
                    "nettypes.anonymize",
                )


def _raw_address(expression: ast.AST, state: Taint) -> Optional[str]:
    raw = next(_tainted_subexpressions(expression, state), None)
    return None if raw is None else "raw client address"


def _tainted_subexpressions(expression: ast.AST, state: Taint) -> Iterator[ast.AST]:
    """Raw-address names/attributes (or names carrying propagated taint)
    in ``expression`` that are not inside a sanitizer call."""
    stack = [expression]
    while stack:
        node = stack.pop()
        if _is_sanitizer_call(node):
            continue  # everything below is cleansed
        if isinstance(node, ast.Name):
            if node.id in state.cleansed:
                continue
            if _is_raw_identifier(node.id) or node.id in state.tainted:
                yield node
            continue
        if isinstance(node, ast.Attribute):
            if _is_raw_identifier(node.attr):
                yield node
                continue
        stack.extend(ast.iter_child_nodes(node))

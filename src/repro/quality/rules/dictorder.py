"""RPR006 — iteration over sets must be sorted before it shapes output.

Invariant: the reproduction's outputs are byte-identical across runs and
interpreters.  Python ``set`` iteration order depends on insertion
history and per-process hash randomization; feeding it into a
reduce-by-key, a list, or serialized output makes run-to-run diffs
possible even with identical inputs.  Wrapping the set in ``sorted()``
(or deduplicating in insertion order instead) restores determinism.

Detection is scope-local: expressions that syntactically build a set
(literals, comprehensions, ``set()``/``frozenset()`` calls) and local
names assigned from them are tracked; a finding fires when such a value
is iterated by a ``for`` loop or comprehension, or materialized via
``list``/``tuple``/``enumerate``/``iter``/``"".join``, without a
``sorted()`` in between.  Membership tests, ``len()``, and ``.update()``
never iterate and are not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.quality.findings import Finding
from repro.quality.registry import Rule, function_scopes, register, scope_walk

_SET_CALLS = {"set", "frozenset"}
#: Callables that materialize their argument's iteration order.
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "iter"}


@register
class DictOrderStabilityRule(Rule):
    rule_id = "RPR006"
    description = "set iteration feeding aggregation/output must be sorted()"
    invariant = (
        "no output or reduce-by-key depends on set iteration order; every "
        "such traversal is sorted or insertion-ordered"
    )

    def check(self, file_ctx) -> Iterator[Finding]:
        for scope in function_scopes(file_ctx.tree):
            yield from self._check_scope(file_ctx, scope)

    def _check_scope(self, file_ctx, scope: ast.AST) -> Iterator[Finding]:
        set_names = self._collect_set_names(scope)
        for node in scope_walk(scope):
            if isinstance(node, ast.For):
                if self._is_set_valued(node.iter, set_names):
                    yield self._report(file_ctx, node.iter, "for-loop")
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                # SetComp is exempt: its output is itself unordered, so the
                # iteration order of the source set cannot leak through it.
                for generator in node.generators:
                    if self._is_set_valued(generator.iter, set_names):
                        yield self._report(
                            file_ctx, generator.iter, "comprehension"
                        )
            elif isinstance(node, ast.Call):
                yield from self._check_call(file_ctx, node, set_names)

    def _check_call(
        self, file_ctx, node: ast.Call, set_names: Set[str]
    ) -> Iterator[Finding]:
        func = node.func
        name = ""
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            name = "join"
        if name not in _ORDER_SENSITIVE_CALLS and name != "join":
            return
        for arg in node.args:
            if self._is_set_valued(arg, set_names):
                yield self._report(file_ctx, arg, f"{name}()")

    def _report(self, file_ctx, node: ast.AST, consumer: str) -> Finding:
        return self.finding(
            file_ctx,
            node,
            f"set iterated by {consumer} in arbitrary hash order; wrap it in "
            "sorted() or deduplicate in insertion order",
        )

    # ------------------------------------------------------------------

    def _collect_set_names(self, scope: ast.AST) -> Set[str]:
        """Local names whose last syntactic binding builds a set."""
        bindings: List[Tuple[int, int, str, bool]] = []
        for node in scope_walk(scope):
            if isinstance(node, ast.Assign):
                value_is_set = self._builds_set(node.value)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bindings.append(
                            (node.lineno, node.col_offset, target.id, value_is_set)
                        )
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    bindings.append(
                        (
                            node.lineno,
                            node.col_offset,
                            node.target.id,
                            self._builds_set(node.value),
                        )
                    )
        names: Set[str] = set()
        for _, _, name, is_set in sorted(bindings):
            if is_set:
                names.add(name)
            else:
                names.discard(name)
        return names

    @staticmethod
    def _builds_set(value: ast.expr) -> bool:
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            return value.func.id in _SET_CALLS
        return False

    def _is_set_valued(self, expression: ast.expr, set_names: Set[str]) -> bool:
        if isinstance(expression, ast.Name):
            return expression.id in set_names
        return self._builds_set(expression)

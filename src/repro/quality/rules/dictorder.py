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
from repro.quality.registry import Rule, register, scope_walk

_SET_CALLS = {"set", "frozenset"}
#: Callables that materialize their argument's iteration order; ``join``
#: counts as a method too (``"".join``).
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "iter", "join"}


@register
class DictOrderStabilityRule(Rule):
    rule_id = "RPR006"
    description = "set iteration feeding aggregation/output must be sorted()"
    invariant = (
        "no output or reduce-by-key depends on set iteration order; every "
        "such traversal is sorted or insertion-ordered"
    )

    def check(self, file_ctx) -> Iterator[Finding]:
        scopes = [
            file_ctx.tree,
            *file_ctx.nodes(ast.FunctionDef),
            *file_ctx.nodes(ast.AsyncFunctionDef),
        ]
        for scope in scopes:
            yield from self._check_scope(file_ctx, scope)

    def _check_scope(self, file_ctx, scope: ast.AST) -> Iterator[Finding]:
        """One pass over the scope collects its name bindings and the
        expressions iterated in order; an iterated expression is reported
        when it builds a set or names a local whose last binding did."""
        bindings: List[Tuple[int, int, str, bool]] = []
        iterated: List[Tuple[ast.expr, str]] = []
        for node in scope_walk(scope):
            if isinstance(node, ast.Assign):
                is_set = _builds_set(node.value)
                bindings.extend(
                    (node.lineno, node.col_offset, target.id, is_set)
                    for target in node.targets
                    if isinstance(target, ast.Name)
                )
            elif (
                isinstance(node, ast.AnnAssign)
                and node.value is not None
                and isinstance(node.target, ast.Name)
            ):
                bindings.append(
                    (node.lineno, node.col_offset, node.target.id, _builds_set(node.value))
                )
            elif isinstance(node, ast.For):
                iterated.append((node.iter, "for-loop"))
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                # SetComp is exempt: its output is itself unordered, so the
                # iteration order of the source set cannot leak through it.
                iterated.extend((generator.iter, "comprehension") for generator in node.generators)
            elif isinstance(node, ast.Call):
                name = _order_sensitive_call(node)
                if name:
                    iterated.extend((arg, f"{name}()") for arg in node.args)
        set_names: Set[str] = set()
        for _, _, name, is_set in sorted(bindings):
            if is_set:
                set_names.add(name)
            else:
                set_names.discard(name)
        for expression, consumer in iterated:
            if _builds_set(expression) or (
                isinstance(expression, ast.Name) and expression.id in set_names
            ):
                yield self.finding(
                    file_ctx,
                    expression,
                    f"set iterated by {consumer} in arbitrary hash order; wrap it in "
                    "sorted() or deduplicate in insertion order",
                )


def _order_sensitive_call(node: ast.Call) -> str:
    """The name of a call that materializes its arguments' iteration
    order, else ``""``."""
    func = node.func
    if isinstance(func, ast.Name) and func.id in _ORDER_SENSITIVE_CALLS:
        return func.id
    if isinstance(func, ast.Attribute) and func.attr == "join":
        return "join"
    return ""


def _builds_set(value: ast.expr) -> bool:
    if isinstance(value, (ast.Set, ast.SetComp)):
        return True
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in _SET_CALLS
    return False

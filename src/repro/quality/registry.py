"""Rule base class and registry.

Rules are small classes: an id, a severity, the invariant they protect,
and a ``check`` over one parsed file.  They register themselves with the
:func:`register` decorator so the engine, the CLI ``--select`` filter,
and the documentation all draw from one catalogue.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Type

from repro.quality.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.quality.engine import FileContext


class Rule:
    """One invariant checker; subclasses override :meth:`check`."""

    rule_id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    #: The design-level invariant this rule protects (used in docs/reports).
    invariant: str = ""
    #: When True, a ``# repro: noqa[...]`` for this rule only counts if it
    #: carries a written justification.
    requires_justification: bool = False

    def applies_to(self, file_ctx: "FileContext") -> bool:
        return True

    def check(self, file_ctx: "FileContext") -> Iterator[Finding]:
        raise NotImplementedError

    # Helper for subclasses -------------------------------------------------
    def finding(
        self, file_ctx: "FileContext", node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=file_ctx.relpath,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global catalogue."""
    if not rule_class.rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    existing = _REGISTRY.get(rule_class.rule_id)
    if existing is not None and existing is not rule_class:
        raise ValueError(f"duplicate rule id {rule_class.rule_id}")
    _REGISTRY[rule_class.rule_id] = rule_class
    return rule_class


def registered_rules() -> Dict[str, Type[Rule]]:
    """The catalogue (id → class), loading the built-in rules on demand."""
    # Imported here so registering is a side effect of first use, not of
    # importing repro.quality.registry (which the rules themselves import).
    from repro.quality import rules as _builtin  # noqa: F401

    return dict(_REGISTRY)


def make_rules(select: Iterable[str] = ()) -> List[Rule]:
    """Instantiate rules; ``select`` narrows to the given ids."""
    catalogue = registered_rules()
    wanted = [rule_id.upper() for rule_id in select] or sorted(catalogue)
    unknown = [rule_id for rule_id in wanted if rule_id not in catalogue]
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(unknown)}")
    return [catalogue[rule_id]() for rule_id in wanted]


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for an attribute/name chain, or ``""`` if not one."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def call_name(node: ast.Call) -> str:
    """Dotted name of a call's callee (``""`` for computed callees)."""
    return dotted_name(node.func)


def module_level_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Top-level statements, descending into module-level if/try blocks
    (their bodies still execute at import time)."""

    def expand(statements: Iterable[ast.stmt]) -> Iterator[ast.stmt]:
        for statement in statements:
            yield statement
            if isinstance(statement, ast.If):
                yield from expand(statement.body)
                yield from expand(statement.orelse)
            elif isinstance(statement, ast.Try):
                yield from expand(statement.body)
                yield from expand(statement.orelse)
                yield from expand(statement.finalbody)
                for handler in statement.handlers:
                    yield from expand(handler.body)

    return expand(tree.body)


def scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """The nodes of one scope: like ``ast.walk``, but a nested function
    definition is yielded without its body (lambdas stay part of the
    enclosing scope)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def target_names(*targets: ast.AST) -> List[str]:
    """Names the assignment targets bind, in order: ``a, (b, c) = ...``
    binds ``a``, ``b``, ``c``; attribute and subscript targets bind none."""
    names: List[str] = []
    for target in targets:
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            names.extend(target_names(*target.elts))
    return names


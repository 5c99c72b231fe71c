"""RPR010 — acquired resources are settled on every path.

Invariant (DESIGN.md §7/§13): a five-year scan opens millions of flow
logs and spawns thousands of workers; a handle leaked "only on the error
path" is a handle leaked in production.  Pipe ends are the sharpest
case: the pool detects worker death by pipe EOF, and EOF only arrives if
the parent has closed its copy of the child end — a leaked
``Connection`` is not just an fd, it is a crash that goes *unnoticed*.

The rule tracks names bound from a configured resource factory
(``LintConfig.resource_factories``: ``open`` → ``close``, ``Pipe`` →
``close``, ``SupervisedPool`` → ``stop``, ...) through the acquiring
function and requires each to be *settled*:

* managed — ``with resource:`` (exception-safe by construction);
* released — ``resource.close()`` / ``resource.stop()``, which must be
  exception-safe when anything that can raise runs first: in a
  ``finally``, in an ``except`` cleanup, or with no intervening calls;
* handed off — returned, yielded, stored into an attribute/subscript,
  aliased, or passed to another call (ownership moves; the receiver
  settles it).  Method calls *on* the resource are use, not hand-off.

Example violation (the exception edge)::

    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(args=(child_conn,))   # can raise ->
    process.start()                             #   both ends leak
    child_conn.close()
    self._workers[parent_conn] = process

Fix guidance: bracket the risky region so cleanup runs on the error
path::

    parent_conn, child_conn = ctx.Pipe(duplex=False)
    try:
        process = ctx.Process(args=(child_conn,))
        process.start()
    except BaseException:
        parent_conn.close()
        child_conn.close()
        raise

or use ``with``/``contextlib.ExitStack`` where the resource's lifetime
ends inside the function.  The analysis is lexical per function:
hand-off is trusted (cross-function ownership is the owner's contract),
and a call that both receives the resource and raises on the same line
is treated as completing the hand-off.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.quality.findings import Finding
from repro.quality.registry import Rule, call_name, register, target_names


@dataclass
class _Resource:
    name: str
    factory: str
    closer: str
    line: int
    #: (line, in_finally, in_handler) for each ``name.closer()`` site.
    closes: List[Tuple[int, bool, bool]] = field(default_factory=list)
    #: ``with name:`` sites (exception-safe by construction).
    managed: List[int] = field(default_factory=list)
    #: Lines where ownership left this function (return/yield/store/arg).
    escapes: List[int] = field(default_factory=list)


class _FunctionScan:
    """One pass over a function body collecting resource events."""

    def __init__(self, factories: Dict[str, str]) -> None:
        self.factories = factories
        self.resources: Dict[str, _Resource] = {}
        #: Lines of calls that may raise between acquisition and settle.
        self.risky_calls: List[int] = []

    # -- statements ----------------------------------------------------

    def scan(self, body: List[ast.stmt]) -> None:
        self._stmts(body, in_finally=False, in_handler=False)

    def _stmts(
        self, body: List[ast.stmt], in_finally: bool, in_handler: bool
    ) -> None:
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # nested scopes are scanned separately
            if isinstance(stmt, ast.Try):
                self._stmts(stmt.body, in_finally, in_handler)
                for handler in stmt.handlers:
                    self._stmts(handler.body, in_finally, True)
                self._stmts(stmt.orelse, in_finally, in_handler)
                self._stmts(stmt.finalbody, True, in_handler)
                continue
            if isinstance(stmt, ast.Assign):
                self._assign(stmt, in_finally, in_handler)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Name) and expr.id in self.resources:
                        self.resources[expr.id].managed.append(stmt.lineno)
                    else:
                        self._expr(expr, in_finally, in_handler)
                self._stmts(stmt.body, in_finally, in_handler)
                continue
            for name in self._escaping_names(stmt):
                self.resources[name].escapes.append(stmt.lineno)
            for value in ast.iter_child_nodes(stmt):
                if isinstance(value, ast.expr):
                    self._expr(value, in_finally, in_handler)
            for _, value in ast.iter_fields(stmt):
                if (
                    isinstance(value, list)
                    and value
                    and isinstance(value[0], ast.stmt)
                ):
                    self._stmts(value, in_finally, in_handler)

    def _assign(
        self, stmt: ast.Assign, in_finally: bool, in_handler: bool
    ) -> None:
        value = stmt.value
        factory = self._factory_of(value)
        if factory is not None:
            assert isinstance(value, ast.Call)
            # Factory-call arguments may still hand off earlier resources.
            for root in list(value.args) + [kw.value for kw in value.keywords]:
                self._expr(root, in_finally, in_handler)
            for name in target_names(*stmt.targets):
                self.resources[name] = _Resource(
                    name=name,
                    factory=factory,
                    closer=self.factories[factory],
                    line=stmt.lineno,
                )
            return
        # Ownership transfers: direct alias (`g = f`), packing
        # (`pair = (a, b)`), storage into an attribute or subscript
        # (`self.f = f`), or use as a subscript key
        # (`self._workers[conn] = process`).
        handoff = set()
        for element in self._direct_names(value):
            if element in self.resources:
                handoff.add(element)
        for target in stmt.targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                for node in ast.walk(target):
                    if (
                        isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)
                        and node.id in self.resources
                    ):
                        handoff.add(node.id)
        for name in sorted(handoff):
            self.resources[name].escapes.append(stmt.lineno)
        self._expr(value, in_finally, in_handler)

    # -- expressions ---------------------------------------------------

    def _expr(self, node: ast.AST, in_finally: bool, in_handler: bool) -> None:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            close_of = self._close_call(sub)
            if close_of is not None:
                close_of.closes.append((sub.lineno, in_finally, in_handler))
                continue
            self.risky_calls.append(sub.lineno)
            # A resource passed as an argument is handed off (recorded at
            # the call's line: a call that raises never completed the
            # hand-off, so earlier risky lines still count).  The
            # *receiver* of a method call (`f.read()`) is use, not
            # hand-off.
            roots = list(sub.args) + [kw.value for kw in sub.keywords]
            if not (
                isinstance(sub.func, ast.Attribute)
                and isinstance(sub.func.value, ast.Name)
            ):
                roots.append(sub.func)
            for root in roots:
                for arg in self._names_outside_nested_calls(root):
                    if arg.id in self.resources:
                        self.resources[arg.id].escapes.append(sub.lineno)

    @staticmethod
    def _names_outside_nested_calls(root: ast.AST) -> Iterator[ast.Name]:
        """Loaded names in ``root``, pruned at nested calls — a name fed
        through another call (``transform(handle.read())``) is that inner
        call's business (it is visited as its own ``sub``), not a direct
        hand-off to this one."""
        stack = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Call):
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node
                continue
            stack.extend(ast.iter_child_nodes(node))

    def _escaping_names(self, stmt: ast.stmt) -> List[str]:
        if isinstance(stmt, (ast.Return, ast.Raise)):
            roots: List[ast.AST] = [stmt]
        elif isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, (ast.Yield, ast.YieldFrom)
        ):
            roots = [stmt.value]
        else:
            return []
        return [
            node.id
            for root in roots
            for node in ast.walk(root)
            if isinstance(node, ast.Name) and node.id in self.resources
        ]

    @staticmethod
    def _direct_names(value: ast.expr) -> List[str]:
        """Names the value *is* (alias/packing), not names it merely uses."""
        if isinstance(value, ast.Name):
            return [value.id]
        if isinstance(value, (ast.Tuple, ast.List)):
            return [
                element.id
                for element in value.elts
                if isinstance(element, ast.Name)
            ]
        return []

    def _factory_of(self, value: ast.expr) -> Optional[str]:
        if not isinstance(value, ast.Call):
            return None
        name = call_name(value)
        if not name:
            return None
        last = name.rsplit(".", 1)[-1]
        return last if last in self.factories else None

    def _close_call(self, node: ast.Call) -> Optional[_Resource]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        if not isinstance(func.value, ast.Name):
            return None
        resource = self.resources.get(func.value.id)
        if resource is not None and func.attr == resource.closer:
            return resource
        return None


@register
class ResourceLeakRule(Rule):
    rule_id = "RPR010"
    description = "resources are closed or handed off on every path"
    invariant = (
        "every acquired handle (file, pipe end, pool) is with-managed, "
        "released on success *and* error paths, or explicitly handed off"
    )

    def check(self, file_ctx) -> Iterator[Finding]:
        factories = dict(file_ctx.ctx.config.resource_factories)
        if not factories:
            return
        functions = [
            *file_ctx.nodes(ast.FunctionDef),
            *file_ctx.nodes(ast.AsyncFunctionDef),
        ]
        for node in functions:
            scan = _FunctionScan(factories)
            scan.scan(node.body)
            for resource in scan.resources.values():
                finding = self._judge(file_ctx, node.name, resource, scan)
                if finding is not None:
                    yield finding

    def _judge(self, file_ctx, func_name, resource, scan) -> Optional[Finding]:
        if resource.managed:
            return None  # with-statement: settled and exception-safe
        settles = [line for line, _, _ in resource.closes] + resource.escapes
        if not settles:
            return Finding(
                path=file_ctx.relpath,
                line=resource.line,
                column=0,
                rule_id=self.rule_id,
                severity=self.severity,
                message=(
                    f"`{resource.name}` acquired from "
                    f"`{resource.factory}()` in `{func_name}()` is never "
                    f"closed on any path — manage it with `with`, call "
                    f"`.{resource.closer}()` in a `finally`, or hand it "
                    "off to an owner that does"
                ),
            )
        protected = any(
            in_finally or in_handler
            for _, in_finally, in_handler in resource.closes
        )
        if protected:
            return None
        first_settle = min(settles)
        risky = [
            line
            for line in scan.risky_calls
            if resource.line < line < first_settle
        ]
        if not risky:
            return None
        return Finding(
            path=file_ctx.relpath,
            line=resource.line,
            column=0,
            rule_id=self.rule_id,
            severity=self.severity,
            message=(
                f"`{resource.name}` from `{resource.factory}()` in "
                f"`{func_name}()` leaks on the exception edge: the call "
                f"on line {risky[0]} can raise before the resource is "
                f"settled on line {first_settle} — release it in a "
                "`finally` or an `except` cleanup that re-raises"
            ),
        )

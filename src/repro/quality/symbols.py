"""Per-module symbol summaries: the whole-program analysis' unit of fact.

One :class:`ModuleSummary` condenses everything the interprocedural rules
(RPR008–RPR011) need to know about a module — without keeping its AST
alive:

* every function (nested and methods included, qualified ``Outer.inner``
  style) with its call sites, explicit raise sites, module-global reads
  and writes, and whether its return value carries non-deterministic
  taint (wall-clock or unseeded RNG reads);
* call and raise sites carry their *guard stack*: the exception type
  names of every ``except`` clause lexically protecting them, so the
  call-graph layer can subtract caught exception families when it
  propagates escapes;
* classes with their base-class names (the project side of the exception
  hierarchy);
* the import map (local name → module or module symbol), which is how
  the call graph resolves dotted call names across files;
* module-level state: global names bound at import time and the calls
  the module makes while being imported (both feed RPR008's
  "written-at-import-time is safe" exemption).

Summaries are **pure functions of the file's bytes** — no configuration,
no file-system context — which is what makes them cacheable by content
hash (:mod:`repro.quality.cache`).  They serialize to plain JSON dicts
via :meth:`ModuleSummary.to_dict` / :meth:`ModuleSummary.from_dict`;
:data:`ANALYSIS_VERSION` is bumped whenever the summary shape or the
extraction semantics change, invalidating every cached fact at once.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.quality.registry import dotted_name

#: Bump to invalidate all cached facts when extraction semantics change.
ANALYSIS_VERSION = 2

#: Method names that mutate their receiver in place — a call to one of
#: these on a module-global name counts as a write to that global, unless
#: an ``import`` statement bound the name: that is a module, and
#: ``np.append(a, b)`` is a function call, not a mutation of ``np``.
_MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
    "sort",
    "reverse",
}

#: ``random.<fn>`` names that do NOT read hidden global RNG state.
_RNG_ALLOWED = {"Random", "SystemRandom", "getstate", "seed"}

#: ``numpy.random.<fn>`` names that are seeded-plumbing, not draws.
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "Philox",
    "SFC64",
}

#: ``time.<fn>`` / ``datetime.<method>`` reads of a run-dependent clock.
_CLOCK_FUNCS = {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter"}
_CLOCK_METHODS = {"now": ("datetime",), "utcnow": ("datetime",), "today": ("datetime", "date")}


@dataclass
class CallSite:
    """One call expression inside a function body."""

    name: str  # dotted callee name, locals rewritten to ``Cls.method``
    line: int
    guards: Tuple[str, ...] = ()  # exception type names protecting the call

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "line": self.line, "guards": list(self.guards)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CallSite":
        return cls(
            name=str(data["name"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            guards=tuple(str(g) for g in data.get("guards", ())),  # type: ignore[union-attr]
        )


@dataclass
class RaiseSite:
    """One explicit ``raise`` inside a function body.

    ``type_name`` is the raised exception's dotted name (``""`` for
    dynamic raises the analysis cannot type).  A bare ``raise`` or a
    re-raise of the handler's bound name inside an ``except T as e``
    block instead records the handler's caught types in
    ``reraise_of`` — the call-graph layer substitutes whatever the
    handler caught.
    """

    type_name: str
    line: int
    guards: Tuple[str, ...] = ()
    reraise_of: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "type": self.type_name,
            "line": self.line,
            "guards": list(self.guards),
            "reraise_of": list(self.reraise_of),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RaiseSite":
        return cls(
            type_name=str(data.get("type", "")),
            line=int(data["line"]),  # type: ignore[arg-type]
            guards=tuple(str(g) for g in data.get("guards", ())),  # type: ignore[union-attr]
            reraise_of=tuple(str(g) for g in data.get("reraise_of", ())),  # type: ignore[union-attr]
        )


@dataclass
class GlobalAccess:
    """A read or write of a module-level name from inside a function."""

    name: str
    line: int
    kind: str  # "read" | "rebind" | "mutate"

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "line": self.line, "kind": self.kind}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "GlobalAccess":
        return cls(
            name=str(data["name"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            kind=str(data["kind"]),
        )


@dataclass
class FunctionInfo:
    """Summary of one function or method body."""

    qualname: str  # "f", "Outer.inner", "Cls.method"
    line: int
    calls: List[CallSite] = field(default_factory=list)
    raises: List[RaiseSite] = field(default_factory=list)
    global_reads: List[GlobalAccess] = field(default_factory=list)
    global_writes: List[GlobalAccess] = field(default_factory=list)
    #: Direct wall-clock / unseeded-RNG reads feeding the return value.
    nondet_return: bool = False
    #: The nondet source call that taints the return, for diagnostics.
    nondet_reason: str = ""
    #: Callee names whose results flow into the return value — if one of
    #: them resolves to a nondet-returning function, so is this one.
    return_calls: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "qualname": self.qualname,
            "line": self.line,
            "calls": [c.to_dict() for c in self.calls],
            "raises": [r.to_dict() for r in self.raises],
            "global_reads": [g.to_dict() for g in self.global_reads],
            "global_writes": [g.to_dict() for g in self.global_writes],
            "nondet_return": self.nondet_return,
            "nondet_reason": self.nondet_reason,
            "return_calls": list(self.return_calls),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FunctionInfo":
        return cls(
            qualname=str(data["qualname"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            calls=[CallSite.from_dict(c) for c in data.get("calls", ())],  # type: ignore[union-attr]
            raises=[RaiseSite.from_dict(r) for r in data.get("raises", ())],  # type: ignore[union-attr]
            global_reads=[
                GlobalAccess.from_dict(g) for g in data.get("global_reads", ())  # type: ignore[union-attr]
            ],
            global_writes=[
                GlobalAccess.from_dict(g) for g in data.get("global_writes", ())  # type: ignore[union-attr]
            ],
            nondet_return=bool(data.get("nondet_return", False)),
            nondet_reason=str(data.get("nondet_reason", "")),
            return_calls=tuple(str(n) for n in data.get("return_calls", ())),  # type: ignore[union-attr]
        )


@dataclass
class ModuleSummary:
    """Everything the call-graph layer keeps about one module."""

    module: str
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, Tuple[str, ...]] = field(default_factory=dict)  # name -> bases
    #: local name -> "pkg.mod" (module import) or "pkg.mod:symbol".
    imports: Dict[str, str] = field(default_factory=dict)
    #: Names bound by module-level statements (import-time state).
    module_globals: Tuple[str, ...] = ()
    #: Call names executed at import time (module-level statements).
    module_calls: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "module": self.module,
            "functions": {q: f.to_dict() for q, f in sorted(self.functions.items())},
            "classes": {n: list(b) for n, b in sorted(self.classes.items())},
            "imports": dict(sorted(self.imports.items())),
            "module_globals": sorted(self.module_globals),
            "module_calls": sorted(self.module_calls),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ModuleSummary":
        return cls(
            module=str(data["module"]),
            functions={
                str(q): FunctionInfo.from_dict(f)
                for q, f in data.get("functions", {}).items()  # type: ignore[union-attr]
            },
            classes={
                str(n): tuple(str(b) for b in bases)
                for n, bases in data.get("classes", {}).items()  # type: ignore[union-attr]
            },
            imports={
                str(k): str(v) for k, v in data.get("imports", {}).items()  # type: ignore[union-attr]
            },
            module_globals=tuple(str(n) for n in data.get("module_globals", ())),  # type: ignore[union-attr]
            module_calls=tuple(str(n) for n in data.get("module_calls", ())),  # type: ignore[union-attr]
        )


# ----------------------------------------------------------------------
# extraction


def summarize_module(module: str, tree: ast.Module) -> ModuleSummary:
    """Extract a :class:`ModuleSummary` from a parsed module."""
    summary = ModuleSummary(module=module)
    summary.imports = _import_map(tree)
    module_globals: Set[str] = set()
    imported_modules: Set[str] = set()
    module_calls: Set[str] = set()
    for statement in _import_time_statements(tree.body):
        _collect_bound_names(statement, module_globals)
        if isinstance(statement, ast.Import):
            _collect_bound_names(statement, imported_modules)
        for node in ast.walk(statement):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                break  # function bodies don't run at import time
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name:
                    module_calls.add(name)
    summary.module_globals = tuple(sorted(module_globals))
    summary.module_calls = tuple(sorted(module_calls))
    for qualname, node, class_name in _walk_functions(tree):
        summary.functions[qualname] = _summarize_function(
            qualname, node, module_globals, imported_modules, class_name
        )
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bases = tuple(
                name for name in (dotted_name(base) for base in node.bases) if name
            )
            summary.classes[node.name] = bases
    # Direct non-determinism: a return fed by a wall-clock/RNG call in
    # this very module.  Helper-chain taint is the call graph's fixpoint.
    for info in summary.functions.values():
        for callee in info.return_calls:
            reason = nondet_source(callee, summary.imports)
            if reason:
                info.nondet_return = True
                info.nondet_reason = reason
                break
    return summary


def _import_time_statements(body: Sequence[ast.stmt]):
    """Top-level statements, descending into if/try (they run on import)."""
    for statement in body:
        yield statement
        if isinstance(statement, ast.If):
            yield from _import_time_statements(statement.body)
            yield from _import_time_statements(statement.orelse)
        elif isinstance(statement, ast.Try):
            yield from _import_time_statements(statement.body)
            yield from _import_time_statements(statement.orelse)
            yield from _import_time_statements(statement.finalbody)
            for handler in statement.handlers:
                yield from _import_time_statements(handler.body)


def _collect_bound_names(statement: ast.stmt, into: Set[str]) -> None:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        into.add(statement.name)
        return
    if isinstance(statement, ast.Assign):
        for target in statement.targets:
            _target_names(target, into)
    elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        _target_names(statement.target, into)
    elif isinstance(statement, (ast.Import, ast.ImportFrom)):
        for alias in statement.names:
            if alias.name == "*":
                continue
            into.add(alias.asname or alias.name.split(".")[0])


def _target_names(target: ast.AST, into: Set[str]) -> None:
    if isinstance(target, ast.Name):
        into.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _target_names(element, into)


def _import_map(tree: ast.Module) -> Dict[str, str]:
    """Local name → imported module (``a.b``) or symbol (``a.b:c``)."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imports[bound] = alias.name if alias.asname else alias.name.split(".")[0]
                if alias.asname:
                    imports[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = f"{node.module}:{alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.level:
            # Relative imports are resolved by the call-graph layer, which
            # knows the module's package; mark them with the level prefix.
            source = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = f"{source}:{alias.name}"
    return imports


def _walk_functions(tree: ast.Module):
    """Yield (qualname, node, enclosing_class_name) for every function."""

    def visit(nodes, prefix: str, class_name: Optional[str]):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}"
                yield qualname, node, class_name
                yield from visit(node.body, f"{qualname}.", class_name)
            elif isinstance(node, ast.ClassDef):
                yield from visit(node.body, f"{prefix}{node.name}.", node.name)
            elif isinstance(node, (ast.If, ast.Try)):
                yield from visit(ast.iter_child_nodes(node), prefix, class_name)

    yield from visit(tree.body, "", None)


class _GuardedWalker:
    """Walks one function body tracking the enclosing ``except`` guards."""

    def __init__(self) -> None:
        self.calls: List[Tuple[ast.Call, Tuple[str, ...]]] = []
        self.raises: List[Tuple[ast.Raise, Tuple[str, ...], Tuple[str, ...]]] = []

    def walk(self, body: Sequence[ast.stmt]) -> None:
        self._walk(body, guards=(), handler_ctx=())

    def _walk(
        self,
        nodes,
        guards: Tuple[str, ...],
        handler_ctx: Tuple[Tuple[str, Tuple[str, ...]], ...],
    ) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested scopes are summarized separately
            if isinstance(node, ast.Try):
                inner = guards + tuple(
                    name
                    for handler in node.handlers
                    for name in _handler_type_names(handler)
                )
                self._walk(node.body, inner, handler_ctx)
                # else/finally and the handlers themselves are NOT
                # protected by this try's handlers.
                self._walk(node.orelse, guards, handler_ctx)
                self._walk(node.finalbody, guards, handler_ctx)
                for handler in node.handlers:
                    caught = tuple(_handler_type_names(handler))
                    bound = handler.name or ""
                    self._walk(
                        handler.body,
                        guards,
                        handler_ctx + ((bound, caught),),
                    )
                continue
            if isinstance(node, ast.Raise):
                self._record_raise(node, guards, handler_ctx)
            for _, value in ast.iter_fields(node):
                if isinstance(value, list):
                    statements = [v for v in value if isinstance(v, ast.stmt)]
                    if statements:
                        self._walk(statements, guards, handler_ctx)
                    for element in value:
                        if isinstance(element, ast.AST) and not isinstance(
                            element, ast.stmt
                        ):
                            self._walk_expr(element, guards)
                elif isinstance(value, ast.AST):
                    self._walk_expr(value, guards)

    def _walk_expr(self, node: ast.AST, guards: Tuple[str, ...]) -> None:
        stack: List[ast.AST] = [node]
        while stack:
            sub = stack.pop()
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # pruned: nested scopes get their own summary
            if isinstance(sub, ast.Call):
                self.calls.append((sub, guards))
            stack.extend(ast.iter_child_nodes(sub))

    def _record_raise(self, node: ast.Raise, guards, handler_ctx) -> None:
        if node.exc is None:
            # Bare ``raise``: re-raises whatever the innermost handler caught.
            caught = handler_ctx[-1][1] if handler_ctx else ()
            self.raises.append((node, guards, caught))
            return
        root = node.exc
        while isinstance(root, (ast.Call, ast.Attribute)):
            root = root.func if isinstance(root, ast.Call) else root.value
        if isinstance(root, ast.Name):
            for bound, caught in reversed(handler_ctx):
                if bound and root.id == bound:
                    # ``raise e`` / ``raise e.with_context(...)``: the
                    # escaping types are whatever the handler caught.
                    self.raises.append((node, guards, caught))
                    return
        self.raises.append((node, guards, ()))


def _handler_type_names(handler: ast.ExceptHandler) -> List[str]:
    if handler.type is None:
        return ["*"]
    if isinstance(handler.type, ast.Tuple):
        return [dotted_name(el) or "*" for el in handler.type.elts]
    return [dotted_name(handler.type) or "*"]


def _summarize_function(
    qualname: str,
    node,
    module_globals: Set[str],
    imported_modules: Set[str],
    class_name: Optional[str],
) -> FunctionInfo:
    info = FunctionInfo(qualname=qualname, line=node.lineno)
    local_names = _local_bindings(node)
    declared_global = {
        name
        for stmt in ast.walk(node)
        if isinstance(stmt, ast.Global)
        for name in stmt.names
    }
    receiver_types = _local_constructors(node)
    if class_name:
        receiver_types.setdefault("self", class_name)

    walker = _GuardedWalker()
    walker.walk(node.body)
    for call, guards in walker.calls:
        name = dotted_name(call.func)
        if not name:
            continue
        parts = name.split(".")
        if parts[0] in receiver_types and len(parts) > 1:
            name = ".".join([receiver_types[parts[0]], *parts[1:]])
        info.calls.append(CallSite(name=name, line=call.lineno, guards=guards))
    for raise_node, guards, reraise_of in walker.raises:
        type_name = ""
        if raise_node.exc is not None and not reraise_of:
            exc = raise_node.exc
            if isinstance(exc, ast.Call):
                type_name = dotted_name(exc.func)
            else:
                type_name = dotted_name(exc)
        info.raises.append(
            RaiseSite(
                type_name=type_name,
                line=raise_node.lineno,
                guards=guards,
                reraise_of=reraise_of,
            )
        )

    _collect_global_accesses(
        node, module_globals, imported_modules, local_names, declared_global, info
    )
    _analyze_return_taint(node, info)
    return info


def _local_bindings(node) -> Set[str]:
    """Names bound locally in the function (so not module-global reads)."""
    bound: Set[str] = set()
    args = node.args
    for arg in [
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        *([args.vararg] if args.vararg else []),
        *([args.kwarg] if args.kwarg else []),
    ]:
        bound.add(arg.arg)
    for sub in ast.walk(node):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if sub is not node:
                bound.add(sub.name)
        elif isinstance(sub, ast.Assign):
            for target in sub.targets:
                _target_names(target, bound)
        elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
            _target_names(sub.target, bound)
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            _target_names(sub.target, bound)
        elif isinstance(sub, (ast.With, ast.AsyncWith)):
            for item in sub.items:
                if item.optional_vars is not None:
                    _target_names(item.optional_vars, bound)
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            bound.add(sub.name)
        elif isinstance(sub, ast.comprehension):
            _target_names(sub.target, bound)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                if alias.name != "*":
                    bound.add(alias.asname or alias.name.split(".")[0])
    return bound


def _local_constructors(node) -> Dict[str, str]:
    """``name -> ClassName`` for locals assigned from a constructor call,
    so ``pool.submit`` resolves as ``SupervisedPool.submit``."""
    ctors: Dict[str, str] = {}
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Assign) or not isinstance(sub.value, ast.Call):
            continue
        callee = dotted_name(sub.value.func)
        if not callee or not callee.split(".")[-1][:1].isupper():
            continue
        for target in sub.targets:
            if isinstance(target, ast.Name):
                ctors[target.id] = callee.split(".")[-1]
    return ctors


def _collect_global_accesses(
    node,
    module_globals: Set[str],
    imported_modules: Set[str],
    local_names: Set[str],
    declared_global: Set[str],
    info: FunctionInfo,
) -> None:
    visible_globals = (module_globals | declared_global) - (
        local_names - declared_global
    )
    containers = visible_globals - imported_modules
    for sub in ast.walk(node):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub is not node:
            continue
        if isinstance(sub, ast.Assign):
            for target in sub.targets:
                _global_write_targets(target, declared_global, visible_globals, info)
        elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
            _global_write_targets(sub.target, declared_global, visible_globals, info)
        elif isinstance(sub, ast.Delete):
            for target in sub.targets:
                _global_write_targets(target, declared_global, visible_globals, info)
        elif isinstance(sub, ast.Call):
            func = sub.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in containers
            ):
                info.global_writes.append(
                    GlobalAccess(name=func.value.id, line=sub.lineno, kind="mutate")
                )
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if sub.id in visible_globals:
                info.global_reads.append(
                    GlobalAccess(name=sub.id, line=sub.lineno, kind="read")
                )


def _global_write_targets(
    target: ast.AST,
    declared_global: Set[str],
    visible_globals: Set[str],
    info: FunctionInfo,
) -> None:
    if isinstance(target, ast.Name):
        if target.id in declared_global:
            info.global_writes.append(
                GlobalAccess(name=target.id, line=target.lineno, kind="rebind")
            )
    elif isinstance(target, ast.Subscript):
        base = target.value
        if isinstance(base, ast.Name) and base.id in visible_globals:
            info.global_writes.append(
                GlobalAccess(name=base.id, line=target.lineno, kind="mutate")
            )
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _global_write_targets(element, declared_global, visible_globals, info)


# ----------------------------------------------------------------------
# non-determinism taint (feeds RPR011)


def nondet_source(name: str, imports: Dict[str, str]) -> str:
    """If ``name`` is a wall-clock or unseeded-RNG call, say which; ``""``
    otherwise.  Resolution uses the module's import map, so aliases
    (``import time as t``) are seen through."""
    parts = name.split(".")
    head, tail = parts[0], parts[-1]
    target = imports.get(head, "")
    if tail in _CLOCK_METHODS and len(parts) >= 2:
        if parts[-2] in _CLOCK_METHODS[tail]:
            return f"wall-clock read `{name}()`"
    if target == "time" and len(parts) == 2 and tail in _CLOCK_FUNCS:
        return f"wall-clock read `{name}()`"
    if target.startswith("time:") and target.split(":")[1] in _CLOCK_FUNCS:
        return f"wall-clock read `{name}()`"
    if target == "random" and len(parts) == 2 and tail not in _RNG_ALLOWED:
        return f"unseeded RNG draw `{name}()`"
    if (
        target.startswith("random:")
        and len(parts) == 1
        and target.split(":")[1] not in _RNG_ALLOWED
    ):
        return f"unseeded RNG draw `{name}()`"
    if (
        target == "numpy"
        and len(parts) == 3
        and parts[1] == "random"
        and parts[2] not in _NP_RANDOM_ALLOWED
    ):
        return f"unseeded RNG draw `{name}()`"
    if (
        target in ("numpy.random", "numpy:random")
        and len(parts) == 2
        and parts[1] not in _NP_RANDOM_ALLOWED
    ):
        return f"unseeded RNG draw `{name}()`"
    if name in ("os.urandom", "uuid.uuid1", "uuid.uuid4") and target in ("os", "uuid"):
        return f"non-deterministic source `{name}()`"
    return ""


def _scope_walk(node):
    """``ast.walk`` pruned at nested function/lambda boundaries."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        sub = stack.pop()
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield sub
        stack.extend(ast.iter_child_nodes(sub))


def _analyze_return_taint(node, info: FunctionInfo) -> None:
    """Record which callee results feed the function's return value.

    The pass is local and coarse: a name assigned *anywhere* in the
    function from a call feeds the return if that name is returned.
    Whether any of those callees is a non-deterministic source is decided
    later — by :func:`summarize_module` for direct sources (it holds the
    import map) and by the call graph's fixpoint for helper chains.
    """
    assigned_from: Dict[str, List[str]] = {}
    for sub in _scope_walk(node):
        if isinstance(sub, ast.Assign):
            calls = [
                dotted_name(c.func)
                for c in ast.walk(sub.value)
                if isinstance(c, ast.Call) and dotted_name(c.func)
            ]
            if not calls:
                continue
            for target in sub.targets:
                if isinstance(target, ast.Name):
                    assigned_from.setdefault(target.id, []).extend(calls)
    return_calls: List[str] = []
    for sub in _scope_walk(node):
        if not isinstance(sub, (ast.Return, ast.Yield)) or sub.value is None:
            continue
        for inner in ast.walk(sub.value):
            if isinstance(inner, ast.Call):
                name = dotted_name(inner.func)
                if name:
                    return_calls.append(name)
            elif isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load):
                return_calls.extend(assigned_from.get(inner.id, ()))
    info.return_calls = tuple(dict.fromkeys(return_calls))

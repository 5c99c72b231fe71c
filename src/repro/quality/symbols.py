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
  the call graph resolves dotted call names across files, and every
  import target (function-local imports included), from which the call
  graph derives the fork worker's import closure (RPR004);
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
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.quality.registry import dotted_name

#: Bump to invalidate all cached facts when extraction semantics change.
ANALYSIS_VERSION = 4

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
    #: The import map, function-local imports included: local name ->
    #: module (``import a.b as m`` binds ``m`` to ``a.b``; ``import a.b``
    #: binds ``a``) or ``module:symbol`` (``from a import b``).  Relative
    #: sources keep their leading dots; the call-graph layer resolves them
    #: against the importing module's package.
    imports: Dict[str, str] = field(default_factory=dict)
    #: Every import target, sorted: ``import a.b.c`` -> ``a.b.c``,
    #: ``from a import b`` -> ``a:b``, ``from a import *`` -> ``a:*``.
    import_targets: Tuple[str, ...] = ()
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
            "import_targets": list(self.import_targets),
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
            import_targets=tuple(str(t) for t in data.get("import_targets", ())),  # type: ignore[union-attr]
            module_globals=tuple(str(n) for n in data.get("module_globals", ())),  # type: ignore[union-attr]
            module_calls=tuple(str(n) for n in data.get("module_calls", ())),  # type: ignore[union-attr]
        )


# ----------------------------------------------------------------------
# extraction
#
# One scope rule serves every walk below: a nested ``def``, ``class`` or
# ``lambda`` body is a scope of its own and is never entered from the
# enclosing one, while its decorators, default values, base classes and
# class keywords run in — and belong to — the enclosing scope.


def summarize_module(module: str, tree: ast.Module) -> ModuleSummary:
    """Extract a :class:`ModuleSummary` from a parsed module.

    Each scope — the module, every class body, every function body — is
    walked once by :class:`_ScopeWalk`, so each node is visited once.
    Class bodies run when their enclosing scope does: at module level,
    their calls are import-time calls.
    """
    summary = ModuleSummary(module=module)
    module_walk = _ScopeWalk(tree)
    module_globals = module_walk.bound
    imported_modules = {
        alias.asname or alias.name.split(".")[0]
        for statement in module_walk.imports
        if isinstance(statement, ast.Import)
        for alias in statement.names
    }
    imports: Dict[str, str] = {}
    import_targets: Set[str] = set()
    module_calls: Set[str] = set()

    def visit(walk: _ScopeWalk, qualname: str, class_name: Optional[str], at_import: bool) -> None:
        for statement in walk.imports:
            _read_import(statement, imports, import_targets)
        if at_import:
            module_calls.update(filter(None, (dotted_name(call.func) for call, _ in walk.calls)))
        prefix = f"{qualname}." if qualname else ""
        for nested in walk.nested:
            nested_walk = _ScopeWalk(nested)
            name = prefix + nested.name
            if isinstance(nested, ast.ClassDef):
                summary.classes[nested.name] = tuple(filter(None, map(dotted_name, nested.bases)))
                visit(nested_walk, name, nested.name, at_import)
            else:
                summary.functions[name] = nested_walk.function_info(
                    nested, name, class_name, module_globals, imported_modules
                )
                visit(nested_walk, name, class_name, False)

    visit(module_walk, "", None, True)
    summary.imports = imports
    summary.import_targets = tuple(sorted(import_targets))
    summary.module_globals = tuple(sorted(module_globals))
    summary.module_calls = tuple(sorted(module_calls))
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


def _read_import(statement: ast.stmt, names: Dict[str, str], targets: Set[str]) -> None:
    if isinstance(statement, ast.Import):
        for alias in statement.names:
            targets.add(alias.name)
            if alias.asname:
                names[alias.asname] = alias.name
            else:
                head = alias.name.split(".")[0]
                names[head] = head
    elif isinstance(statement, ast.ImportFrom):
        source = "." * statement.level + (statement.module or "")
        for alias in statement.names:
            target = f"{source}:{alias.name}"
            targets.add(target)
            if alias.name != "*":
                names[alias.asname or alias.name] = target


_Scope = Union[ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef]
#: The type names of the ``except`` clauses protecting a node.
_Guards = Tuple[str, ...]
#: The enclosing handlers, innermost last: (bound name, caught types).
_Handlers = Tuple[Tuple[str, Tuple[str, ...]], ...]
#: Lists collecting the calls and names inside a value being assigned or
#: returned.
_Feeds = Tuple[List[ast.expr], ...]

#: ``ast.TryStar`` (``except*``) exists from Python 3.11 on.
_TRY = tuple(getattr(ast, name) for name in ("Try", "TryStar") if hasattr(ast, name))


class _ScopeWalk:
    """One pass over one scope, in source order, collecting all its
    summary needs: call and raise sites with the ``except`` guards around
    them, the names it binds, loads, assigns, and declares ``global``,
    the values it assigns from calls and returns, its imports, and the
    nested ``def`` and ``class`` nodes it defines — listed, not entered."""

    def __init__(self, scope: _Scope) -> None:
        self.nested: List[Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]] = []
        self.imports: List[ast.stmt] = []
        self.calls: List[Tuple[ast.Call, _Guards]] = []
        self.raises: List[Tuple[ast.Raise, _Guards, Tuple[str, ...]]] = []
        self.bound: Set[str] = set()
        self.declared_global: Set[str] = set()
        self.loads: List[ast.Name] = []
        #: Assignment and ``del`` targets: the candidate global writes.
        self.targets: List[ast.expr] = []
        #: ``name -> ClassName`` for locals assigned from a constructor
        #: call, so ``pool.submit`` resolves as ``SupervisedPool.submit``.
        self.constructed: Dict[str, str] = {}
        #: name -> callees whose results were assigned to it.
        self.assigned_from: Dict[str, List[str]] = {}
        #: The calls and names inside returned or yielded values.
        self.returned: List[ast.expr] = []
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None:
                    self.bound.add(arg.arg)
        for statement in scope.body:
            self._visit(statement, (), (), ())

    def _visit(self, node: ast.AST, guards: _Guards, handlers: _Handlers, feeds: _Feeds) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            self.bound.add(node.name)
            self.nested.append(node)
            outer = list(node.decorator_list)
            if isinstance(node, ast.ClassDef):
                outer += [*node.bases, *(keyword.value for keyword in node.keywords)]
            else:
                outer += _defaults(node.args)
            for child in outer:
                self._visit(child, guards, handlers, feeds)
            return
        if isinstance(node, ast.Lambda):
            for child in _defaults(node.args):
                self._visit(child, guards, handlers, feeds)
            return
        if isinstance(node, _TRY):
            self._try(node, guards, handlers)
            return
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                self.loads.append(node)
                for feed in feeds:
                    feed.append(node)
            else:
                self.bound.add(node.id)
            return
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            self.imports.append(node)
            self.bound.update(
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
                if alias.name != "*"
            )
            return
        if isinstance(node, ast.Global):
            self.declared_global.update(node.names)
            return
        if isinstance(node, ast.Assign):
            self._assign(node, guards, handlers)
            return
        if isinstance(node, ast.Call):
            self.calls.append((node, guards))
            for feed in feeds:
                feed.append(node)
        elif isinstance(node, ast.Raise):
            self._record_raise(node, guards, handlers)
        elif isinstance(node, (ast.Return, ast.Yield)) and node.value is not None:
            feeds = (*feeds, self.returned)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            self.targets.append(node.target)
        elif isinstance(node, ast.Delete):
            self.targets.extend(node.targets)
        for child in ast.iter_child_nodes(node):
            self._visit(child, guards, handlers, feeds)

    def _try(self, node: ast.Try, guards: _Guards, handlers: _Handlers) -> None:
        caught = [tuple(_handler_type_names(handler)) for handler in node.handlers]
        inner = guards + tuple(name for names in caught for name in names)
        for statement in node.body:
            self._visit(statement, inner, handlers, ())
        # else/finally and the handlers themselves are NOT protected by
        # this try's handlers.
        for statement in [*node.orelse, *node.finalbody]:
            self._visit(statement, guards, handlers, ())
        for handler, types in zip(node.handlers, caught):
            if handler.name:
                self.bound.add(handler.name)
            if handler.type is not None:
                self._visit(handler.type, guards, handlers, ())
            context = handlers + ((handler.name or "", types),)
            for statement in handler.body:
                self._visit(statement, guards, context, ())

    def _assign(self, node: ast.Assign, guards: _Guards, handlers: _Handlers) -> None:
        self.targets.extend(node.targets)
        for target in node.targets:
            self._visit(target, guards, handlers, ())
        names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        value: List[ast.expr] = []
        self._visit(node.value, guards, handlers, (value,))
        callees = [dotted_name(call.func) for call in value if isinstance(call, ast.Call)]
        callees = list(filter(None, callees))
        constructor = ""
        if isinstance(node.value, ast.Call):
            constructor = dotted_name(node.value.func).rpartition(".")[2]
        for name in names:
            if callees:
                self.assigned_from.setdefault(name, []).extend(callees)
            if constructor[:1].isupper():
                self.constructed[name] = constructor

    def _record_raise(self, node: ast.Raise, guards: _Guards, handlers: _Handlers) -> None:
        if node.exc is None:
            # Bare ``raise``: re-raises whatever the innermost handler caught.
            caught = handlers[-1][1] if handlers else ()
            self.raises.append((node, guards, caught))
            return
        root = node.exc
        while isinstance(root, (ast.Call, ast.Attribute)):
            root = root.func if isinstance(root, ast.Call) else root.value
        if isinstance(root, ast.Name):
            for bound, caught in reversed(handlers):
                if bound and root.id == bound:
                    # ``raise e`` / ``raise e.with_context(...)``: the
                    # escaping types are whatever the handler caught.
                    self.raises.append((node, guards, caught))
                    return
        self.raises.append((node, guards, ()))

    def function_info(
        self,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        qualname: str,
        class_name: Optional[str],
        module_globals: Set[str],
        imported_modules: Set[str],
    ) -> FunctionInfo:
        """The walked function's summary; ``self`` resolves to
        ``class_name`` and module-level names are globals unless bound
        locally without a ``global`` declaration."""
        info = FunctionInfo(qualname=qualname, line=node.lineno)
        receivers = dict(self.constructed)
        if class_name:
            receivers.setdefault("self", class_name)
        for call, guards in self.calls:
            name = dotted_name(call.func)
            if not name:
                continue
            head, _, rest = name.partition(".")
            if rest and head in receivers:
                name = f"{receivers[head]}.{rest}"
            info.calls.append(CallSite(name=name, line=call.lineno, guards=guards))
        for raise_node, guards, reraise_of in self.raises:
            type_name = ""
            if raise_node.exc is not None and not reraise_of:
                exc = raise_node.exc
                type_name = dotted_name(exc.func if isinstance(exc, ast.Call) else exc)
            info.raises.append(
                RaiseSite(
                    type_name=type_name,
                    line=raise_node.lineno,
                    guards=guards,
                    reraise_of=reraise_of,
                )
            )
        declared = self.declared_global
        visible = (module_globals | declared) - (self.bound - declared)
        for target in self.targets:
            _global_write_targets(target, declared, visible, info)
        containers = visible - imported_modules
        for call, _ in self.calls:
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in containers
            ):
                info.global_writes.append(
                    GlobalAccess(name=func.value.id, line=call.lineno, kind="mutate")
                )
        info.global_reads = [
            GlobalAccess(name=name.id, line=name.lineno, kind="read")
            for name in self.loads
            if name.id in visible
        ]
        # A name assigned *anywhere* in the function from a call feeds the
        # return if that name is returned; whether a callee is a
        # non-deterministic source is decided later, by summarize_module
        # for direct sources and by the call graph's fixpoint for helpers.
        returned: List[str] = []
        for value in self.returned:
            if isinstance(value, ast.Call):
                name = dotted_name(value.func)
                if name:
                    returned.append(name)
            elif isinstance(value, ast.Name):
                returned.extend(self.assigned_from.get(value.id, ()))
        info.return_calls = tuple(dict.fromkeys(returned))
        return info


def _defaults(args: ast.arguments) -> List[ast.expr]:
    return [*args.defaults, *(default for default in args.kw_defaults if default is not None)]


def _handler_type_names(handler: ast.ExceptHandler) -> List[str]:
    if handler.type is None:
        return ["*"]
    if isinstance(handler.type, ast.Tuple):
        return [dotted_name(el) or "*" for el in handler.type.elts]
    return [dotted_name(handler.type) or "*"]


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


def nondet_kind(name: str, imports: Dict[str, str]) -> str:
    """Which kind of wall-clock or unseeded-RNG source a call of ``name``
    is — a key of :data:`NONDET_KINDS` — or ``""``.  Resolution uses the
    module's import map, so aliases (``import time as t``) are seen
    through.  RPR001, RPR002 and RPR011 all classify calls with it."""
    parts = name.split(".")
    head, tail = parts[0], parts[-1]
    target = imports.get(head, "")
    symbol = target.partition(":")[2] if len(parts) == 1 else ""
    if tail in _CLOCK_METHODS and len(parts) >= 2:
        if parts[-2] in _CLOCK_METHODS[tail]:
            return "datetime"
    if target == "time" and len(parts) == 2 and tail in _CLOCK_FUNCS:
        return "time-module"
    if target.startswith("time:") and symbol in _CLOCK_FUNCS:
        return "time-name"
    if target == "random" and len(parts) == 2 and tail not in _RNG_ALLOWED:
        return "random-module"
    if target.startswith("random:") and symbol and symbol not in _RNG_ALLOWED:
        return "random-name"
    if (
        target == "numpy"
        and len(parts) == 3
        and parts[1] == "random"
        and parts[2] not in _NP_RANDOM_ALLOWED
    ) or (
        target in ("numpy.random", "numpy:random")
        and len(parts) == 2
        and parts[1] not in _NP_RANDOM_ALLOWED
    ):
        return "numpy-global"
    if name in ("os.urandom", "uuid.uuid1", "uuid.uuid4") and target in ("os", "uuid"):
        return "entropy"
    return ""


#: How RPR011 names each kind of source in a diagnosis.
NONDET_KINDS = {
    "datetime": "wall-clock read",
    "time-module": "wall-clock read",
    "time-name": "wall-clock read",
    "random-module": "unseeded RNG draw",
    "random-name": "unseeded RNG draw",
    "numpy-global": "unseeded RNG draw",
    "entropy": "non-deterministic source",
}


def nondet_source(name: str, imports: Dict[str, str]) -> str:
    """If ``name`` is a wall-clock or unseeded-RNG call, say which; ``""``
    otherwise."""
    kind = nondet_kind(name, imports)
    return f"{NONDET_KINDS[kind]} `{name}()`" if kind else ""

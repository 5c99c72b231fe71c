"""The whole-program layer: module summaries → a resolved call graph.

:class:`ProjectFacts` indexes every :class:`~repro.quality.symbols.
ModuleSummary` under the analysis root and answers the questions the
interprocedural rules ask:

* **name resolution** — a dotted call name in one module resolved to the
  function that actually runs, through the import map (module aliases,
  ``from`` imports, relative imports), local classes (``self.method``
  and locally-constructed instances arrive pre-rewritten to
  ``Cls.method`` by the extractor), and base-class method lookup;
* **reachability** — the set of functions transitively callable from a
  set of roots (RPR008's worker side is everything reachable from the
  fork entry; its import-time side is everything reachable from
  module-level call sites);
* **the import closure** — the modules a fork worker executes: the
  entry's module, its package ``__init__`` modules, and every project
  module they import, transitively, imports inside functions included
  (RPR004's scope);
* **exception escape sets** — a fixpoint over the graph: a function's
  escapes are its own uncaught explicit raises plus every callee escape
  not subtracted by the ``except`` guards around the call site, with
  subclass checks against the project + builtin exception hierarchy
  (RPR009).  Dynamic raises the extractor could not type are dropped —
  the contract rule reasons about *typed* escapes only;
* **non-determinism taint** — which functions return wall-clock or
  unseeded-RNG derived values, propagated through helper chains
  (RPR011).

Everything here is derived from per-module summaries, which the engine
reads from the facts cache when it is warm; this module reads no file.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.quality.findings import LintError
from repro.quality.symbols import FunctionInfo, ModuleSummary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.quality.engine import FileContext

#: (module, qualname) — one function in the project.
FuncId = Tuple[str, str]
#: (module, class name) — one exception class; module "builtins" for stdlib.
ClassId = Tuple[str, str]

#: The builtin exception tree (child → parent), as far as the rules need.
_BUILTIN_PARENT: Dict[str, str] = {
    "Exception": "BaseException",
    "ArithmeticError": "Exception",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "BufferError": "Exception",
    "EOFError": "Exception",
    "ImportError": "Exception",
    "LookupError": "Exception",
    "MemoryError": "Exception",
    "NameError": "Exception",
    "OSError": "Exception",
    "ReferenceError": "Exception",
    "RuntimeError": "Exception",
    "StopIteration": "Exception",
    "StopAsyncIteration": "Exception",
    "SyntaxError": "Exception",
    "SystemError": "Exception",
    "TypeError": "Exception",
    "ValueError": "Exception",
    "Warning": "Exception",
    "FloatingPointError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "ZeroDivisionError": "ArithmeticError",
    "ModuleNotFoundError": "ImportError",
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "UnboundLocalError": "NameError",
    "BlockingIOError": "OSError",
    "ChildProcessError": "OSError",
    "ConnectionError": "OSError",
    "BrokenPipeError": "ConnectionError",
    "ConnectionAbortedError": "ConnectionError",
    "ConnectionRefusedError": "ConnectionError",
    "ConnectionResetError": "ConnectionError",
    "FileExistsError": "OSError",
    "FileNotFoundError": "OSError",
    "InterruptedError": "OSError",
    "IsADirectoryError": "OSError",
    "NotADirectoryError": "OSError",
    "PermissionError": "OSError",
    "ProcessLookupError": "OSError",
    "TimeoutError": "OSError",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "GeneratorExit": "BaseException",
    "KeyboardInterrupt": "BaseException",
    "SystemExit": "BaseException",
}


def path_module(relpath: str) -> str:
    """The dotted module a ``.py`` file implements, from its POSIX path
    relative to the analysis root (``a/b.py`` and ``a/b/__init__.py``
    both give ``a.b``); ``""`` for the root's own ``__init__.py``."""
    parts = relpath[: -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def absolute_module(package: str, source: str) -> Optional[str]:
    """An import source made absolute: a relative one (leading dots)
    resolves against ``package``, the importing module's package —
    ``None`` when it climbs above the root."""
    rest = source.lstrip(".")
    level = len(source) - len(rest)
    if not level:
        return source
    base = package.split(".") if package else []
    if level > len(base):
        return None
    base = base[: len(base) - (level - 1)]
    return ".".join(base + ([rest] if rest else []))


class ProjectFacts:
    """Index over every module summary under one analysis root."""

    def __init__(
        self,
        summaries: Dict[str, ModuleSummary],
        packages: Set[str],
        relpaths: Dict[str, str],
    ) -> None:
        self.modules = summaries
        self._packages = packages
        self._relpaths = relpaths
        self._escapes: Optional[Dict[FuncId, Dict[ClassId, Tuple[str, int]]]] = None
        self._subclass_memo: Dict[Tuple[ClassId, ClassId], bool] = {}
        self._resolve_memo: Dict[Tuple[str, str], Optional[FuncId]] = {}

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(cls, files: Iterable["FileContext"]) -> "ProjectFacts":
        """Index the summaries of a program's files.  A file that does not
        parse has no facts: its own analysis reports the syntax error."""
        summaries: Dict[str, ModuleSummary] = {}
        packages: Set[str] = set()
        relpaths: Dict[str, str] = {}
        for file_ctx in files:
            if not file_ctx.module:
                continue
            try:
                summaries[file_ctx.module] = file_ctx.summary
            except SyntaxError:
                continue
            relpaths[file_ctx.module] = file_ctx.relpath
            if file_ctx.path.name == "__init__.py":
                packages.add(file_ctx.module)
        return cls(summaries, packages, relpaths)

    def module_relpath(self, module: str) -> str:
        return self._relpaths.get(module, "")

    # ------------------------------------------------------------------
    # name resolution

    def _package_of(self, module: str) -> str:
        return module if module in self._packages else module.rpartition(".")[0]

    def _resolve_import(self, module: str, local: str):
        """``("mod", target)`` / ``("sym", module, symbol)`` / ``None``."""
        summary = self.modules.get(module)
        if summary is None:
            return None
        target = summary.imports.get(local)
        if target is None:
            return None
        if ":" not in target:
            return ("mod", target) if target in self.modules else None
        source, _, symbol = target.partition(":")
        source = absolute_module(self._package_of(module), source)
        if source is None:
            return None
        submodule = f"{source}.{symbol}"
        if submodule in self.modules:
            return ("mod", submodule)
        if source in self.modules:
            return ("sym", source, symbol)
        return None

    def resolve_class(self, module: str, name: str) -> Optional[ClassId]:
        """The class a type name refers to inside ``module``."""
        parts = name.split(".")
        summary = self.modules.get(module)
        if summary is None:
            return None
        if len(parts) == 1:
            if name in summary.classes:
                return (module, name)
            imported = self._resolve_import(module, name)
            if imported is not None and imported[0] == "sym":
                _, source, symbol = imported
                if symbol in self.modules[source].classes:
                    return (source, symbol)
            if name in _BUILTIN_PARENT or name == "BaseException":
                return ("builtins", name)
            return None
        imported = self._resolve_import(module, parts[0])
        if imported is not None and imported[0] == "mod" and len(parts) == 2:
            target = imported[1]
            if parts[1] in self.modules[target].classes:
                return (target, parts[1])
        # datetime.date-style externals fall through.
        if parts[-1] in _BUILTIN_PARENT:
            return ("builtins", parts[-1])
        return None

    def is_exception_subclass(self, cid: ClassId, base: ClassId) -> bool:
        """True when ``cid`` is ``base`` or inherits from it."""
        key = (cid, base)
        memo = self._subclass_memo.get(key)
        if memo is not None:
            return memo
        self._subclass_memo[key] = False  # cycle guard
        result = self._is_subclass(cid, base)
        self._subclass_memo[key] = result
        return result

    def _is_subclass(self, cid: ClassId, base: ClassId) -> bool:
        if cid == base:
            return True
        module, name = cid
        if module == "builtins":
            parent = _BUILTIN_PARENT.get(name)
            return parent is not None and self.is_exception_subclass(
                ("builtins", parent), base
            )
        bases = self.modules.get(module, ModuleSummary(module)).classes.get(name, ())
        for base_name in bases:
            parent = self.resolve_class(module, base_name)
            if parent is not None and self.is_exception_subclass(parent, base):
                return True
        return False

    def resolve_call(self, module: str, name: str) -> Optional[FuncId]:
        """The project function a call name in ``module`` lands on."""
        key = (module, name)
        if key in self._resolve_memo:
            return self._resolve_memo[key]
        self._resolve_memo[key] = None  # cycle guard for inherited lookups
        result = self._resolve_call(module, name)
        self._resolve_memo[key] = result
        return result

    def _resolve_call(self, module: str, name: str) -> Optional[FuncId]:
        summary = self.modules.get(module)
        if summary is None:
            return None
        parts = name.split(".")
        head = parts[0]
        if len(parts) == 1:
            if name in summary.functions:
                return (module, name)
            if name in summary.classes:
                return self._constructor((module, name))
            imported = self._resolve_import(module, name)
            if imported is not None and imported[0] == "sym":
                _, source, symbol = imported
                return self._resolve_call_in(source, symbol)
            return None
        if head in summary.classes:
            return self._method_on_class((module, head), parts[1:])
        imported = self._resolve_import(module, head)
        if imported is not None:
            if imported[0] == "mod":
                target = imported[1]
                return self._resolve_call_in(target, ".".join(parts[1:]))
            _, source, symbol = imported
            if symbol in self.modules[source].classes:
                return self._method_on_class((source, symbol), parts[1:])
        return None

    def _resolve_call_in(self, module: str, name: str) -> Optional[FuncId]:
        summary = self.modules.get(module)
        if summary is None:
            return None
        parts = name.split(".")
        if len(parts) == 1:
            if name in summary.functions:
                return (module, name)
            if name in summary.classes:
                return self._constructor((module, name))
            return None
        if parts[0] in summary.classes:
            return self._method_on_class((module, parts[0]), parts[1:])
        return None

    def _constructor(self, cid: ClassId) -> Optional[FuncId]:
        return self._method_on_class(cid, ["__init__"])

    def _method_on_class(
        self, cid: ClassId, method_parts: Sequence[str]
    ) -> Optional[FuncId]:
        module, cls = cid
        summary = self.modules.get(module)
        if summary is None or cls not in summary.classes:
            return None
        qualname = ".".join([cls, *method_parts])
        if qualname in summary.functions:
            return (module, qualname)
        for base_name in summary.classes[cls]:
            parent = self.resolve_class(module, base_name)
            if parent is None or parent[0] == "builtins":
                continue
            found = self._method_on_class(parent, method_parts)
            if found is not None:
                return found
        return None

    # ------------------------------------------------------------------
    # reachability

    def reachable(self, roots: Iterable[FuncId]) -> Set[FuncId]:
        """Functions transitively callable from ``roots``."""
        seen: Set[FuncId] = set()
        stack = [fid for fid in roots if self._function(fid) is not None]
        while stack:
            fid = stack.pop()
            if fid in seen:
                continue
            seen.add(fid)
            info = self._function(fid)
            if info is None:
                continue
            for call in info.calls:
                target = self.resolve_call(fid[0], call.name)
                if target is not None and target not in seen:
                    stack.append(target)
        return seen

    def entry_function(self, entry: str) -> Optional[FuncId]:
        """``module:function`` → a FuncId, if the function exists."""
        module, _, function = entry.partition(":")
        info = self.modules.get(module)
        if info is not None and function in info.functions:
            return (module, function)
        return None

    def worker_closure(self, entry: str) -> Set[str]:
        """The import closure of the fork entry's module.  Raises
        :class:`LintError` unless ``entry`` (``module:function``) names a
        real function — the rule is anchored to code, not to a stale
        configuration string."""
        fid = self.entry_function(entry)
        if fid is None:
            raise LintError(
                f"fork entry {entry!r} names no function under the analysis root"
            )
        return self.import_closure(fid[0])

    def import_closure(self, module: str) -> Set[str]:
        """``module``, its package ancestors, and every project module
        they import, transitively — what executing ``module`` runs."""
        seen: Set[str] = set()
        stack = self._executed(module)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._imported_by(current) - seen)
        return seen

    def _executed(self, module: str) -> List[str]:
        """``module`` and every package ``__init__`` run to reach it, as
        far as they are project modules."""
        parts = module.split(".")
        names = (".".join(parts[:n]) for n in range(1, len(parts) + 1))
        return [name for name in names if name in self.modules]

    def _imported_by(self, module: str) -> Set[str]:
        """Project modules one module's import statements execute: a
        ``from a import b`` runs ``a`` and, if it is a module, ``a.b``."""
        package = self._package_of(module)
        found: Set[str] = set()
        for target in self.modules[module].import_targets:
            source, _, symbol = target.partition(":")
            resolved = absolute_module(package, source)
            if not resolved:
                continue
            found.update(self._executed(resolved))
            if f"{resolved}.{symbol}" in self.modules:
                found.add(f"{resolved}.{symbol}")
        return found

    def import_time_roots(self, modules: Iterable[str]) -> List[FuncId]:
        """Functions invoked by module-level statements of ``modules``."""
        roots: List[FuncId] = []
        for module in modules:
            summary = self.modules.get(module)
            if summary is None:
                continue
            for name in summary.module_calls:
                target = self.resolve_call(module, name)
                if target is not None:
                    roots.append(target)
        return roots

    def _function(self, fid: FuncId) -> Optional[FunctionInfo]:
        summary = self.modules.get(fid[0])
        return summary.functions.get(fid[1]) if summary else None

    # ------------------------------------------------------------------
    # exception escape analysis

    def escapes(self, fid: FuncId) -> Dict[ClassId, Tuple[str, int]]:
        """Exception classes escaping ``fid`` → (origin module, line)."""
        if self._escapes is None:
            self._escapes = self._escape_fixpoint()
        return self._escapes.get(fid, {})

    def _escape_fixpoint(self) -> Dict[FuncId, Dict[ClassId, Tuple[str, int]]]:
        escapes: Dict[FuncId, Dict[ClassId, Tuple[str, int]]] = {}
        functions: List[Tuple[FuncId, FunctionInfo]] = [
            ((module, qualname), info)
            for module, summary in self.modules.items()
            for qualname, info in summary.functions.items()
        ]
        for fid, info in functions:
            escapes[fid] = self._direct_escapes(fid[0], info)
        changed = True
        while changed:
            changed = False
            for fid, info in functions:
                current = escapes[fid]
                for call in info.calls:
                    target = self.resolve_call(fid[0], call.name)
                    if target is None:
                        continue
                    for cid, witness in escapes.get(target, {}).items():
                        if cid in current:
                            continue
                        if self._caught(cid, call.guards, fid[0]):
                            continue
                        current[cid] = witness
                        changed = True
        return escapes

    def _direct_escapes(
        self, module: str, info: FunctionInfo
    ) -> Dict[ClassId, Tuple[str, int]]:
        out: Dict[ClassId, Tuple[str, int]] = {}
        for site in info.raises:
            names = site.reraise_of if site.reraise_of else (site.type_name,)
            for name in names:
                if not name or name == "*":
                    continue
                if site.reraise_of and name in ("BaseException", "Exception"):
                    # A bare ``raise`` in a catch-all handler passes
                    # through whatever the protected block raised; the
                    # typed escapes of those calls are already tracked
                    # at their own sites, so the catch-all itself adds
                    # no *typed* escape.
                    continue
                cid = self.resolve_class(module, name)
                if cid is None:
                    continue
                if self._caught(cid, site.guards, module):
                    continue
                out.setdefault(cid, (module, site.line))
        return out

    def _caught(
        self, cid: ClassId, guards: Tuple[str, ...], module: str
    ) -> bool:
        for guard in guards:
            if guard == "*":
                return True
            gid = self.resolve_class(module, guard)
            if gid is not None and self.is_exception_subclass(cid, gid):
                return True
        return False

    # ------------------------------------------------------------------
    # non-determinism taint

    def nondet_functions(
        self, allowlist: Tuple[str, ...] = ()
    ) -> Dict[FuncId, str]:
        """Functions whose return value derives from a wall-clock or
        unseeded-RNG read, with the reason — helper chains included.
        Files matching an ``allowlist`` suffix (the sanctioned telemetry
        clock) are not sources."""
        tainted: Dict[FuncId, str] = {}
        for module, summary in self.modules.items():
            relpath = self.module_relpath(module)
            if any(relpath.endswith(entry) for entry in allowlist):
                continue
            for qualname, info in summary.functions.items():
                if info.nondet_return:
                    tainted[(module, qualname)] = info.nondet_reason
        changed = True
        while changed:
            changed = False
            for module, summary in self.modules.items():
                for qualname, info in summary.functions.items():
                    fid = (module, qualname)
                    if fid in tainted:
                        continue
                    for callee in info.return_calls:
                        target = self.resolve_call(module, callee)
                        if target is not None and target in tainted:
                            tainted[fid] = (
                                f"returns the result of `{callee}()` — "
                                + tainted[target]
                            )
                            changed = True
                            break
        return tainted


"""The analysis engine: files → ASTs → rules → reported findings.

One :class:`Analyzer` run lists the program once and keeps one
:class:`FileContext` per file: the file is read once (its bytes' SHA and
source), parsed at most once, summarized at most once, and walked at most
once, and that one read serves the rules, the whole-program facts and
both cache tiers.  The run filters the raw findings through in-source
suppressions (``# repro: noqa[...]``) and renders the survivors as text
or JSON.

Whole-program facts — the symbol tables, the call graph, and the
fork-worker import closure derived from them — live on the run-wide
:class:`LintContext` and are built lazily, so a ``--select RPR001`` run
summarizes only the files it checks and never builds the call graph.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type, TypeVar, Union

from repro.quality.callgraph import ProjectFacts, path_module
from repro.quality.findings import Finding, LintError, Severity, sort_findings
from repro.quality.registry import Rule, make_rules
from repro.quality.suppressions import SuppressionError, parse_suppressions
from repro.quality.symbols import ANALYSIS_VERSION, ModuleSummary, summarize_module

if False:  # pragma: no cover - import for type checkers only
    from repro.quality.cache import LintCache


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """What to analyze and how the repo-specific rules are anchored."""

    src_root: Path
    #: Top-level package under ``src_root`` analyzed by default.
    package: str = "repro"
    #: ``module:function`` whose import closure defines the fork-worker
    #: memory image (RPR004).  Verified against the AST, never hard-coded.
    fork_entry: str = "repro.core.parallel:_run_chunk"
    #: Path fragments scoping the wall-clock ban (RPR001).
    wallclock_scopes: Tuple[str, ...] = (
        "synthesis",
        "analytics",
        "figures",
        "core",
        "dataflow",
        "tstat",
        "telemetry",
        "service",
    )
    #: Files exempt from the wall-clock ban (RPR001), as relative-path
    #: suffixes.  The telemetry clock is the single sanctioned
    #: ``perf_counter`` site: everything else reads time through its
    #: :class:`~repro.telemetry.clock.Clock` protocol.
    wallclock_allowlist: Tuple[str, ...] = ("repro/telemetry/clock.py",)
    #: Path fragments scoping the float-accumulation rule (RPR005).
    floatsum_scopes: Tuple[str, ...] = ("figures", "analytics", "core")
    #: Modules whose write APIs are anonymization sinks (RPR003).
    sink_modules: Tuple[str, ...] = ("repro.reporting.export", "repro.tstat.logs")
    #: Path fragments scoping the silent-exception-swallow rule (RPR007):
    #: the data and compute planes — plus telemetry (a swallowed error
    #: there silently zeroes an operator's metrics) and the linter itself
    #: (dogfooding: the gatekeeper meets its own bar).
    swallow_scopes: Tuple[str, ...] = (
        "dataflow",
        "tstat",
        "core",
        "telemetry",
        "quality",
        "service",
    )
    #: Typed-error contracts (RPR009): ``module:function`` entry points
    #: mapped to the exception families allowed to escape them.  Decode
    #: paths surface only :class:`~repro.dataflow.integrity.
    #: RecordDecodeError` subclasses; the pool path surfaces only
    #: :class:`~repro.core.parallel.ChunkError`, the typed
    #: :class:`~repro.core.pool.PoolError` family, and argument
    #: validation ``ValueError``.  Entries whose module is absent under
    #: the analysis root are skipped (fixture trees).
    error_contracts: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
        (
            "repro.tstat.logs:parse_record",
            ("repro.dataflow.integrity:RecordDecodeError",),
        ),
        (
            "repro.tstat.logs:read_flow_log",
            ("repro.dataflow.integrity:RecordDecodeError",),
        ),
        (
            "repro.core.parallel:execute_study",
            (
                "repro.core.parallel:ChunkError",
                "repro.core.parallel:RunCancelled",
                "repro.core.pool:PoolError",
                "builtins:ValueError",
            ),
        ),
        # The control plane's HTTP boundary: everything a request can
        # surface is a ServiceError subclass (the server maps ApiError to
        # its status code and anything else to a typed 500) — a naked
        # ValueError here would turn a bad request into a traceback.
        (
            "repro.service.api:handle_request",
            ("repro.service.errors:ServiceError",),
        ),
    )
    #: Resource factories (RPR010): a call whose last name component
    #: matches must be settled — ``with``-managed, released by the named
    #: method on every path, or handed off — before the function exits.
    resource_factories: Tuple[Tuple[str, str], ...] = (
        ("open", "close"),
        ("Pipe", "close"),
        ("TextIOWrapper", "close"),
        ("GzipFile", "close"),
        ("SupervisedPool", "stop"),
        # The service client opens one HTTP connection per request; every
        # edge (bad status, torn read, timeout) must close the socket.
        ("HTTPConnection", "close"),
    )
    select: Tuple[str, ...] = ()

    def program_root(self) -> Path:
        """The tree analyzed by default and summarized whole:
        ``src_root/package``, or ``src_root`` when that is no directory."""
        base = self.src_root / self.package
        return base if base.is_dir() else self.src_root


def default_config() -> LintConfig:
    """Configuration for the repo's own ``src/`` tree."""
    package_dir = Path(__file__).resolve().parent.parent
    return LintConfig(src_root=package_dir.parent)


class LintContext:
    """Run-wide state shared by all files of one analysis."""

    def __init__(
        self, config: LintConfig, cache: Optional["LintCache"] = None
    ) -> None:
        self.config = config
        self.cache = cache
        self._fork_closure: Optional[Set[str]] = None
        self._facts: Optional[ProjectFacts] = None
        self._program: Optional[Dict[Path, "FileContext"]] = None
        #: Scratch space for rules that precompute whole-program results
        #: once and attribute findings per file (RPR008/RPR009), keyed by
        #: rule id.
        self.memo: Dict[str, object] = {}

    def fork_modules(self) -> Set[str]:
        """Modules a fork worker executes (lazy; raises LintError if the
        configured entry point does not resolve to a real function)."""
        if self._fork_closure is None:
            self._fork_closure = self.facts().worker_closure(self.config.fork_entry)
        return self._fork_closure

    def facts(self) -> ProjectFacts:
        """The whole-program fact store (symbol tables + call graph),
        built lazily from the program's files — a warm facts cache
        deserializes their summaries instead of parsing them."""
        if self._facts is None:
            self._facts = ProjectFacts.build(self.program())
        return self._facts

    def program(self) -> List["FileContext"]:
        """Every file under :meth:`LintConfig.program_root`, listed once
        per run; each file is read on first use."""
        return list(self._files().values())

    def file(self, path: Path) -> "FileContext":
        """The run's context for ``path``: the program's own when the
        file lies in the program, so it is read only once."""
        return self._files().get(path.resolve()) or FileContext(self, path)

    def _files(self) -> Dict[Path, "FileContext"]:
        if self._program is None:
            self._program = {
                path.resolve(): FileContext(self, path)
                for path in sorted(self.config.program_root().rglob("*.py"))
            }
        return self._program


_Node = TypeVar("_Node", bound=ast.AST)


class FileContext:
    """One file, read once, plus everything rules need to inspect it.

    The bytes are read, hashed, decoded, parsed, summarized and walked
    lazily, each at most once: a warm cache hit needs only the hash.
    """

    def __init__(self, ctx: LintContext, path: Path) -> None:
        self.ctx = ctx
        self.path = path
        #: The dotted module name, ``None`` outside the analysis root.
        self.module: Optional[str] = None
        try:
            relative = path.resolve().relative_to(ctx.config.src_root.resolve())
            self.relpath = relative.as_posix()
            self.module = path_module(self.relpath) or None
        except ValueError:
            self.relpath = path.as_posix()

    @functools.cached_property
    def _bytes(self) -> bytes:
        return self.path.read_bytes()

    @functools.cached_property
    def sha(self) -> str:
        """SHA-256 of the file's bytes: the key of both cache tiers."""
        return hashlib.sha256(self._bytes).hexdigest()

    @functools.cached_property
    def source(self) -> str:
        return self._bytes.decode("utf-8")

    @functools.cached_property
    def tree(self) -> ast.Module:
        return ast.parse(self.source, filename=str(self.path))

    @functools.cached_property
    def summary(self) -> ModuleSummary:
        """The file's symbol summary: from the facts cache when the bytes
        are unchanged, else extracted from :attr:`tree` and stored."""
        cache = self.ctx.cache
        if cache is not None:
            data = cache.facts_for(self.relpath, self.sha)
            if data is not None:
                return ModuleSummary.from_dict(data)
        summary = summarize_module(self.module or "", self.tree)
        if cache is not None:
            cache.store_facts(self.relpath, self.sha, summary.to_dict())
        return summary

    @property
    def imports(self) -> Dict[str, str]:
        """The file's import map, from the read that produced its
        :attr:`summary`."""
        return self.summary.imports

    @functools.cached_property
    def _nodes(self) -> Dict[type, List[ast.AST]]:
        nodes: Dict[type, List[ast.AST]] = {}
        for node in ast.walk(self.tree):
            nodes.setdefault(type(node), []).append(node)
        return nodes

    def nodes(self, kind: Type[_Node]) -> List[_Node]:
        """The file's ``kind`` nodes in ``ast.walk`` order, from the one
        walk of its tree that every rule shares."""
        return self._nodes.get(kind, [])  # type: ignore[return-value]

    def in_scope(self, scopes: Sequence[str]) -> bool:
        """True when the file's relative path crosses any scope fragment."""
        parts = set(Path(self.relpath).parts)
        return any(scope in parts for scope in scopes)


class Analyzer:
    """Runs the registered rules over a source tree."""

    def __init__(
        self,
        config: Optional[LintConfig] = None,
        rules: Optional[Sequence[Rule]] = None,
        cache: Optional["LintCache"] = None,
    ) -> None:
        self.config = config or default_config()
        self.rules: List[Rule] = (
            list(rules) if rules is not None else make_rules(self.config.select)
        )
        self.cache = cache
        self.context = LintContext(self.config, cache=cache)

    # ------------------------------------------------------------------

    def target_files(
        self, paths: Optional[Iterable[Union[str, Path]]] = None
    ) -> List[Path]:
        if paths is None:
            return [file_ctx.path for file_ctx in self.context.program()]
        files: List[Path] = []
        for entry in paths:
            entry = Path(entry)
            if entry.is_dir():
                files.extend(sorted(entry.rglob("*.py")))
            elif entry.is_file():
                files.append(entry)
            else:
                raise LintError(f"no such file or directory: {entry}")
        return files

    def analyze(
        self, paths: Optional[Iterable[Union[str, Path]]] = None
    ) -> List[Finding]:
        """All non-suppressed findings over the target files, sorted.

        With a cache attached, each file's findings are reused when
        neither the file nor the project digest (any analyzed file, the
        configuration, the rule set) changed — a fully warm run hashes
        files and renders, running zero rules.
        """
        digest = ""
        if self.cache is not None:
            digest = project_digest(self.context.program(), self._fingerprint())
        findings: List[Finding] = []
        for path in self.target_files(paths):
            findings.extend(self._cached_findings(path, digest))
        if self.cache is not None:
            self.cache.save()
        return sort_findings(findings)

    def _cached_findings(self, path: Path, digest: str) -> List[Finding]:
        if self.cache is None:
            return self.analyze_file(path)
        file_ctx = self.context.file(path)
        cached = self.cache.findings_for(file_ctx.relpath, file_ctx.sha, digest)
        if cached is not None:
            return [Finding.from_dict(entry) for entry in cached]
        fresh = self.analyze_file(path)
        self.cache.store_findings(
            file_ctx.relpath, file_ctx.sha, digest, [finding.to_dict() for finding in fresh]
        )
        return fresh

    def _fingerprint(self) -> str:
        """Configuration + rule-set identity folded into the cache key."""
        rule_ids = ",".join(sorted(rule.rule_id for rule in self.rules))
        return f"{self.config!r}|{rule_ids}"

    def analyze_file(self, path: Union[str, Path]) -> List[Finding]:
        path = Path(path)
        file_ctx = self.context.file(path)
        try:
            file_ctx.tree  # parsed here, so a syntax error is this file's finding
        except SyntaxError as exc:
            return [
                Finding(
                    path=str(path),
                    line=exc.lineno or 1,
                    column=(exc.offset or 1) - 1,
                    rule_id="RPR000",
                    severity=Severity.ERROR,
                    message=f"syntax error: {exc.msg}",
                )
            ]
        raw: List[Finding] = []
        for rule in self.rules:
            if not rule.applies_to(file_ctx):
                continue
            raw.extend(rule.check(file_ctx))
        try:
            return self._apply_suppressions(file_ctx, raw)
        except SuppressionError as exc:
            # A malformed directive is itself a finding: reporting it at
            # the offending line beats silently not suppressing.
            raw.append(
                Finding(
                    path=file_ctx.relpath,
                    line=exc.line,
                    column=0,
                    rule_id="RPR000",
                    severity=Severity.ERROR,
                    message=f"malformed suppression: {exc}",
                )
            )
            return raw

    def _apply_suppressions(
        self, file_ctx: FileContext, findings: List[Finding]
    ) -> List[Finding]:
        directives = parse_suppressions(file_ctx.source)
        if not directives:
            return findings
        by_id = {rule.rule_id: rule for rule in self.rules}
        kept: List[Finding] = []
        for finding in findings:
            directive = directives.get(finding.line)
            rule = by_id.get(finding.rule_id)
            requires_reason = rule.requires_justification if rule else False
            if directive and directive.covers(
                finding.rule_id, require_reason=requires_reason
            ):
                continue
            kept.append(finding)
        return kept


def project_digest(files: Iterable[FileContext], fingerprint: str) -> str:
    """A hash of every program file's content plus the run fingerprint
    (config + rule ids) — the cache key for whole-program findings."""
    digest = hashlib.sha256()
    digest.update(f"analysis:{ANALYSIS_VERSION}\n".encode())
    digest.update(fingerprint.encode())
    for file_ctx in files:
        digest.update(f"{file_ctx.relpath}:{file_ctx.sha}\n".encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# One-call entry points used by the CLI and the tests.


def run_lint(
    paths: Optional[Iterable[Union[str, Path]]] = None,
    config: Optional[LintConfig] = None,
    cache: Optional[Union[str, Path]] = None,
) -> List[Finding]:
    from repro.quality.cache import open_cache

    analyzer = Analyzer(config=config, cache=open_cache(cache))
    return analyzer.analyze(paths)


def render_text(findings: Sequence[Finding]) -> str:
    if not findings:
        return "repro lint: clean (0 findings)"
    lines = [finding.render() for finding in findings]
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    lines.append(
        f"repro lint: {len(findings)} finding(s) "
        f"({errors} error(s), {warnings} warning(s))"
    )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    payload = {
        "findings": [finding.to_dict() for finding in findings],
        "summary": {
            "total": len(findings),
            "errors": sum(1 for f in findings if f.severity is Severity.ERROR),
            "warnings": sum(
                1 for f in findings if f.severity is Severity.WARNING
            ),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)

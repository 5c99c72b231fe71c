"""The analysis engine: files → ASTs → rules → reported findings.

One :class:`Analyzer` run parses each target file once, hands the shared
:class:`FileContext` (tree, import map, module name) to every applicable
rule, filters the raw findings through in-source suppressions
(``# repro: noqa[...]``) and the optional baseline, and renders the
survivors as text or JSON.

Whole-program facts — the symbol tables, the call graph, and the
fork-worker import closure derived from them — live on the run-wide
:class:`LintContext` and are built lazily, so a ``--select RPR001`` run
never summarizes the project.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.quality.baseline import load_baseline, subtract_baseline
from repro.quality.callgraph import ProjectFacts, file_sha, path_module, project_digest
from repro.quality.findings import Finding, LintError, Severity, sort_findings
from repro.quality.registry import Rule, make_rules
from repro.quality.suppressions import (
    Suppression,
    SuppressionError,
    parse_suppressions,
)
from repro.quality.symbols import read_imports

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
        built lazily and fed from the incremental cache when one is
        attached — a warm run deserializes summaries instead of parsing."""
        if self._facts is None:
            self._facts = ProjectFacts.build(
                self.config.src_root, self.config.package, cache=self.cache
            )
        return self._facts


class FileContext:
    """One parsed file plus everything rules need to inspect it."""

    def __init__(
        self,
        ctx: LintContext,
        path: Path,
        source: str,
        tree: ast.Module,
    ) -> None:
        self.ctx = ctx
        self.path = path
        self.source = source
        self.tree = tree
        #: The dotted module name, ``None`` outside the analysis root.
        self.module: Optional[str] = None
        try:
            relative = path.resolve().relative_to(ctx.config.src_root.resolve())
            self.relpath = relative.as_posix()
            self.module = path_module(self.relpath) or None
        except ValueError:
            self.relpath = path.as_posix()
        self._suppressions: Optional[Dict[int, Suppression]] = None

    @functools.cached_property
    def imports(self) -> Dict[str, str]:
        """The file's import map (:func:`~repro.quality.symbols.
        read_imports`), read once for every rule."""
        return read_imports(self.tree)[0]

    def suppressions(self) -> Dict[int, Suppression]:
        if self._suppressions is None:
            self._suppressions = parse_suppressions(self.source)
        return self._suppressions

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
            base = self.config.src_root / self.config.package
            if not base.is_dir():
                base = self.config.src_root
            return sorted(base.rglob("*.py"))
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
        files = self.target_files(paths)
        if self.cache is None:
            findings: List[Finding] = []
            for path in files:
                findings.extend(self.analyze_file(path))
            return sort_findings(findings)
        digest = project_digest(
            self.config.src_root, self.config.package, self._fingerprint()
        )
        findings = []
        for path in files:
            relpath = self._relpath(path)
            sha = file_sha(path)
            cached = self.cache.findings_for(relpath, sha, digest)
            if cached is not None:
                findings.extend(Finding.from_dict(entry) for entry in cached)
                continue
            fresh = self.analyze_file(path)
            self.cache.store_findings(
                relpath, sha, digest, [finding.to_dict() for finding in fresh]
            )
            findings.extend(fresh)
        self.cache.save()
        return sort_findings(findings)

    def _fingerprint(self) -> str:
        """Configuration + rule-set identity folded into the cache key."""
        rule_ids = ",".join(sorted(rule.rule_id for rule in self.rules))
        return f"{self.config!r}|{rule_ids}"

    def _relpath(self, path: Path) -> str:
        try:
            return (
                path.resolve()
                .relative_to(self.config.src_root.resolve())
                .as_posix()
            )
        except ValueError:
            return path.as_posix()

    def analyze_file(self, path: Union[str, Path]) -> List[Finding]:
        path = Path(path)
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
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
        file_ctx = FileContext(self.context, path, source, tree)
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
        directives = file_ctx.suppressions()
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


# ----------------------------------------------------------------------
# One-call entry points used by the CLI and the tests.


def run_lint(
    paths: Optional[Iterable[Union[str, Path]]] = None,
    config: Optional[LintConfig] = None,
    baseline: Optional[Union[str, Path]] = None,
    cache: Optional[Union[str, Path]] = None,
) -> List[Finding]:
    from repro.quality.cache import open_cache

    analyzer = Analyzer(config=config, cache=open_cache(cache))
    findings = analyzer.analyze(paths)
    if baseline is not None:
        findings = subtract_baseline(findings, load_baseline(baseline))
    return findings


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

"""repro.quality — the repo-specific static invariant checker.

``repro lint`` walks the source tree's ASTs and enforces the invariants
the test suite can only spot-check: determinism of the seeded synthesis
(RPR001/RPR002), anonymization before export (RPR003), fork-safety of the
worker import closure (RPR004), and order-stable aggregation
(RPR005/RPR006).  On top of the per-file rules sits a whole-program
layer — per-module symbol tables folded into a resolved call graph —
powering the interprocedural rules: cross-process races (RPR008),
typed-error contracts (RPR009), resource leaks (RPR010), and
non-determinism taint through helper chains (RPR011) — and giving RPR004
its worker import closure.  A run reads and parses each file once, and
the rules, the call graph and the cache all use that read
(:class:`FileContext`).  Every rule reads a file's imports through
one import map (:attr:`FileContext.imports`); RPR001, RPR002 and RPR011
share one nondeterminism classifier, RPR003 and RPR011 one sink-taint
walk.  Per-module facts are content-hash cached
(:mod:`repro.quality.cache`), so warm runs skip parsing entirely.  See DESIGN.md "Quality gates" and "Whole-program
analysis" for the rule ↔ invariant ↔ paper-section mapping.

Programmatic use::

    from repro.quality import Analyzer, default_config

    findings = Analyzer(default_config()).analyze()
    assert not findings
"""

from repro.quality.cache import CacheStats, LintCache, open_cache
from repro.quality.callgraph import ProjectFacts
from repro.quality.engine import (
    Analyzer,
    FileContext,
    LintConfig,
    LintContext,
    default_config,
    project_digest,
    render_json,
    render_text,
    run_lint,
)
from repro.quality.findings import Finding, LintError, Severity, sort_findings
from repro.quality.registry import Rule, make_rules, register, registered_rules
from repro.quality.sarif import findings_from_sarif, render_sarif, sarif_document
from repro.quality.suppressions import SuppressionError, parse_suppressions
from repro.quality.symbols import ANALYSIS_VERSION, ModuleSummary, summarize_module

__all__ = [
    "ANALYSIS_VERSION",
    "Analyzer",
    "CacheStats",
    "FileContext",
    "Finding",
    "LintCache",
    "LintConfig",
    "LintContext",
    "LintError",
    "ModuleSummary",
    "ProjectFacts",
    "Rule",
    "Severity",
    "SuppressionError",
    "default_config",
    "findings_from_sarif",
    "make_rules",
    "open_cache",
    "parse_suppressions",
    "project_digest",
    "register",
    "registered_rules",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
    "sarif_document",
    "sort_findings",
    "summarize_module",
]

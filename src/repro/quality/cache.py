"""The incremental lint cache: warm runs skip parsing and analysis.

Two tiers, both keyed by content:

* **facts** — one :class:`~repro.quality.symbols.ModuleSummary` per
  module, keyed by the file's SHA-256.  Summaries are pure functions of
  the file bytes, so editing one module invalidates exactly one entry;
  the call graph is rebuilt from summaries (cheap) while unchanged
  modules are never re-parsed.
* **findings** — the per-file finding list, keyed by the file's SHA-256
  *and* a project digest covering every analyzed file, the configuration,
  the selected rules, and :data:`~repro.quality.symbols.ANALYSIS_VERSION`.
  Interprocedural rules make any file's findings a function of the whole
  program, so a single edit anywhere re-runs the rules — but against
  cached facts, and a fully warm run re-runs nothing.

The store is one JSON file written atomically
(:func:`repro.core.fsio.write_and_replace`), so a killed run can never
leave a torn cache; a cache that fails to load for any reason is treated as cold, never as an error.
Byte-identical findings warm vs cold is asserted in CI (the
``lint-cache`` job) and in the tier-1 suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core import fsio
from repro.quality.symbols import ANALYSIS_VERSION

_CACHE_VERSION = 1


@dataclass
class CacheStats:
    """What one analysis run reused vs recomputed (for tests and CI)."""

    facts_reused: int = 0
    facts_computed: int = 0
    findings_reused: int = 0
    findings_computed: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "facts_reused": self.facts_reused,
            "facts_computed": self.facts_computed,
            "findings_reused": self.findings_reused,
            "findings_computed": self.findings_computed,
        }


@dataclass
class LintCache:
    """On-disk facts + findings store, loaded leniently, saved atomically."""

    path: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.path = Path(self.path)
        self._facts: Dict[str, Dict[str, object]] = {}
        self._findings: Dict[str, Dict[str, object]] = {}
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
            if (
                payload.get("cache_version") != _CACHE_VERSION
                or payload.get("analysis_version") != ANALYSIS_VERSION
            ):
                return  # stale schema: start cold
            facts = payload.get("facts", {})
            findings = payload.get("findings", {})
            if isinstance(facts, dict) and isinstance(findings, dict):
                self._facts = facts
                self._findings = findings
        except (OSError, ValueError, TypeError, AttributeError):
            # Unreadable or corrupt caches are cold caches, never errors:
            # the worst outcome of a torn cache must be a slow run.
            return

    # ------------------------------------------------------------------
    # facts tier (per-module summaries, content-addressed)

    def facts_for(self, relpath: str, sha: str) -> Optional[Dict[str, object]]:
        entry = self._facts.get(relpath)
        if isinstance(entry, dict) and entry.get("sha") == sha:
            self.stats.facts_reused += 1
            summary = entry.get("summary")
            return summary if isinstance(summary, dict) else None
        return None

    def store_facts(
        self, relpath: str, sha: str, summary: Dict[str, object]
    ) -> None:
        self.stats.facts_computed += 1
        self._facts[relpath] = {"sha": sha, "summary": summary}
        self._dirty = True

    # ------------------------------------------------------------------
    # findings tier (per-file, keyed by file sha + whole-program digest)

    def findings_for(
        self, relpath: str, sha: str, project_digest: str
    ) -> Optional[List[Dict[str, object]]]:
        entry = self._findings.get(relpath)
        if (
            isinstance(entry, dict)
            and entry.get("sha") == sha
            and entry.get("project") == project_digest
            and isinstance(entry.get("findings"), list)
        ):
            self.stats.findings_reused += 1
            return entry["findings"]  # type: ignore[return-value]
        return None

    def store_findings(
        self,
        relpath: str,
        sha: str,
        project_digest: str,
        findings: List[Dict[str, object]],
    ) -> None:
        self.stats.findings_computed += 1
        self._findings[relpath] = {
            "sha": sha,
            "project": project_digest,
            "findings": findings,
        }
        self._dirty = True

    # ------------------------------------------------------------------

    def save(self) -> None:
        """Atomic write: a concurrent reader sees the old cache or the
        new one, never a torn file."""
        if not self._dirty:
            return
        payload = {
            "cache_version": _CACHE_VERSION,
            "analysis_version": ANALYSIS_VERSION,
            "facts": self._facts,
            "findings": self._findings,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fsio.write_and_replace(
            self.path,
            json.dumps(payload, sort_keys=True).encode("utf-8"),
            surface=fsio.SURFACE_LINT_CACHE,
        )
        self._dirty = False


def open_cache(path: Optional[Union[str, Path]]) -> Optional[LintCache]:
    """``LintCache`` at ``path``, or ``None`` when caching is off."""
    return LintCache(Path(path)) if path is not None else None

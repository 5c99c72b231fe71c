"""The incremental lint cache: warm runs are byte-identical to cold
runs, reuse is precise (one edited file recomputes exactly one module's
facts), and a corrupt cache degrades to a cold run, never to an error.
"""

import json
import shutil
from pathlib import Path

from repro.quality import (
    ANALYSIS_VERSION,
    Analyzer,
    LintConfig,
    open_cache,
    render_json,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint" / "cases"

# A small project with known findings from every interprocedural rule:
# RPR008 (1), RPR009 (2), RPR010 (3), RPR011 (2) -> 8 findings total.
PROJECT_FILES = (
    "racepkg/__init__.py",
    "racepkg/config.py",
    "racepkg/pool.py",
    "contractpkg/__init__.py",
    "contractpkg/errors.py",
    "contractpkg/helpers.py",
    "contractpkg/good.py",
    "contractpkg/bad.py",
    "core/rpr010_violation.py",
    "core/rpr010_clean.py",
    "rpr011_helpers.py",
    "rpr011_violation.py",
    "rpr011_clean.py",
)

CONTRACTS = (
    ("contractpkg.good:parse_good", ("contractpkg.errors:DecodeError",)),
    ("contractpkg.bad:parse_bad", ("contractpkg.errors:DecodeError",)),
)


def make_project(tmp_path: Path) -> Path:
    root = tmp_path / "proj"
    for rel in PROJECT_FILES:
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(FIXTURES / rel, target)
    return root


def run(root: Path, cache_path: Path):
    """One analysis run with a fresh cache handle; returns (findings, stats)."""
    config = LintConfig(
        src_root=root,
        package="",
        fork_entry="racepkg.pool:_run_chunk",
        error_contracts=CONTRACTS,
        select=("RPR008", "RPR009", "RPR010", "RPR011"),
    )
    cache = open_cache(cache_path)
    findings = Analyzer(config, cache=cache).analyze()
    return findings, cache.stats


class TestWarmRuns:
    def test_warm_output_byte_identical_and_rule_free(self, tmp_path):
        root = make_project(tmp_path)
        cache_path = tmp_path / "lint.cache.json"

        cold_findings, cold_stats = run(root, cache_path)
        warm_findings, warm_stats = run(root, cache_path)

        assert len(cold_findings) == 8  # every rule contributed
        assert render_json(warm_findings) == render_json(cold_findings)

        n = len(PROJECT_FILES)
        assert cold_stats.findings_computed == n
        assert cold_stats.findings_reused == 0
        assert cold_stats.facts_computed == n  # every module summarized

        assert warm_stats.findings_reused == n
        assert warm_stats.findings_computed == 0
        # The findings tier short-circuits before the facts tier: a fully
        # warm run never builds ProjectFacts at all.
        assert warm_stats.facts_computed == 0
        assert warm_stats.facts_reused == 0

    def test_single_edit_recomputes_one_module_of_facts(self, tmp_path):
        root = make_project(tmp_path)
        cache_path = tmp_path / "lint.cache.json"
        cold_findings, _ = run(root, cache_path)

        target = root / "contractpkg" / "good.py"
        target.write_text(
            target.read_text(encoding="utf-8") + "\n# touched\n",
            encoding="utf-8",
        )
        findings, stats = run(root, cache_path)

        n = len(PROJECT_FILES)
        # Facts are content-addressed per module: only the edited file's
        # summary recomputes.  Findings are keyed by the whole-program
        # digest (interprocedural rules), so they all recompute — against
        # cached facts.
        assert stats.facts_computed == 1
        assert stats.facts_reused == n - 1
        assert stats.findings_computed == n
        assert stats.findings_reused == 0
        # A trailing comment changes no findings.
        assert render_json(findings) == render_json(cold_findings)

    def test_select_change_invalidates_findings(self, tmp_path):
        root = make_project(tmp_path)
        cache_path = tmp_path / "lint.cache.json"
        run(root, cache_path)

        config = LintConfig(
            src_root=root,
            package="",
            fork_entry="racepkg.pool:_run_chunk",
            error_contracts=CONTRACTS,
            select=("RPR008", "RPR009"),  # different rule set, same files
        )
        cache = open_cache(cache_path)
        Analyzer(config, cache=cache).analyze()
        assert cache.stats.findings_reused == 0
        assert cache.stats.findings_computed == len(PROJECT_FILES)


class TestCacheRobustness:
    def test_corrupt_cache_is_cold_not_fatal(self, tmp_path):
        root = make_project(tmp_path)
        cache_path = tmp_path / "lint.cache.json"
        cold_findings, _ = run(root, cache_path)

        cache_path.write_text("{not json", encoding="utf-8")
        findings, stats = run(root, cache_path)
        assert render_json(findings) == render_json(cold_findings)
        assert stats.findings_reused == 0

        # The save repaired the file: the next run is warm again.
        json.loads(cache_path.read_text(encoding="utf-8"))
        _, warm_stats = run(root, cache_path)
        assert warm_stats.findings_reused == len(PROJECT_FILES)

    def test_stale_analysis_version_is_cold(self, tmp_path):
        root = make_project(tmp_path)
        cache_path = tmp_path / "lint.cache.json"
        run(root, cache_path)

        payload = json.loads(cache_path.read_text(encoding="utf-8"))
        assert payload["analysis_version"] == ANALYSIS_VERSION
        payload["analysis_version"] = "0"
        cache_path.write_text(json.dumps(payload), encoding="utf-8")

        _, stats = run(root, cache_path)
        assert stats.findings_reused == 0
        assert stats.facts_reused == 0

    def test_cacheless_run_matches_cached_run(self, tmp_path):
        root = make_project(tmp_path)
        config = LintConfig(
            src_root=root,
            package="",
            fork_entry="racepkg.pool:_run_chunk",
            error_contracts=CONTRACTS,
            select=("RPR008", "RPR009", "RPR010", "RPR011"),
        )
        plain = Analyzer(config).analyze()
        cached, _ = run(root, tmp_path / "lint.cache.json")
        assert render_json(plain) == render_json(cached)


class TestWorkerClosureFromCachedFacts:
    def test_import_added_to_closure_module_is_seen_warm(self, tmp_path):
        """RPR004's closure comes from the cached module facts: an edit
        that makes a closure module import one with mutable state flags
        that state on the warm run exactly as on a cold one."""
        root = tmp_path / "proj"
        shutil.copytree(FIXTURES / "forkpkg", root / "forkpkg")
        config = LintConfig(
            src_root=root,
            package="",
            fork_entry="forkpkg.pool:_run_chunk",
            select=("RPR004",),
        )
        cache_path = tmp_path / "lint.cache.json"
        before = Analyzer(config, cache=open_cache(cache_path)).analyze()
        assert "forkpkg/unreachable.py" not in {f.path for f in before}

        # A function-local import inside a closure module.
        lazy = root / "forkpkg" / "lazy.py"
        lazy.write_text(
            lazy.read_text(encoding="utf-8")
            + "\n\ndef scratch():\n"
            "    from forkpkg import unreachable\n\n"
            "    return unreachable.SCRATCH\n",
            encoding="utf-8",
        )
        cache = open_cache(cache_path)
        warm = Analyzer(config, cache=cache).analyze()
        assert cache.stats.facts_computed == 1  # only lazy.py re-summarized
        assert cache.stats.facts_reused == len(list(root.rglob("*.py"))) - 1

        cold = Analyzer(config).analyze()
        assert render_json(warm) == render_json(cold)
        [added] = [f for f in warm if f.path == "forkpkg/unreachable.py"]
        assert added.line == 8
        assert "`SCRATCH`" in added.message

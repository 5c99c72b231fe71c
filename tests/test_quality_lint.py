"""Tier-1 gate: the repo's own source tree passes ``repro lint``.

The whole-tree checks read one analysis of ``src/``, the session's
``src_lint`` fixture; the CLI cases rerun it warm from its cache.

Also pins the analyzer's public behavior: CLI exit codes, JSON output
round-tripping, and — crucially — that the fork-safety rule's import
closure is computed from the import targets the module summaries record,
walked from ``core.parallel._run_chunk``, not from a hard-coded module
list.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.quality import (
    Analyzer,
    FileContext,
    default_config,
    render_json,
    render_text,
)
from repro.quality.callgraph import path_module

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"
ENTRY = "repro.core.parallel:_run_chunk"


class TestSourceTreeIsClean:
    def test_zero_findings_over_src(self, src_lint):
        findings = src_lint.findings
        assert findings == [], "\n" + render_text(findings)

    def test_default_config_points_at_this_repo(self):
        config = default_config()
        assert (config.src_root / "repro" / "core" / "parallel.py").is_file()

    def test_cli_lint_exits_zero_on_src(self, src_lint, capsys):
        assert main(["lint", "--cache", src_lint.cache]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_lint_json_round_trips(self, src_lint, capsys):
        assert main(["lint", "--format", "json", "--cache", src_lint.cache]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["total"] == 0
        assert payload["findings"] == []


class TestForkClosureIsReal:
    """RPR004's module set is derived by walking the module summaries'
    import targets from the entry."""

    @pytest.fixture(scope="class")
    def facts(self, src_lint):
        return src_lint.facts

    def test_entry_function_must_exist(self, facts):
        with pytest.raises(ValueError):
            facts.worker_closure("repro.core.parallel:_no_such_function")
        with pytest.raises(ValueError):
            facts.worker_closure("repro.no_such_module:_run_chunk")

    def test_closure_contains_what_workers_execute(self, facts):
        closure = facts.worker_closure(ENTRY)
        # The worker rebuilds a LongitudinalStudy, which generates synthetic
        # days and aggregates them — all of that must be in the closure.
        for module in (
            "repro.core.parallel",
            "repro.core.study",
            "repro.synthesis.flowgen",
            "repro.synthesis.population",
            "repro.services.rules",
            "repro.services.thresholds",
            "repro.routing.asns",
            "repro.analytics.timeseries",
        ):
            assert module in closure, module
        # Package __init__ modules execute on import; they count too.
        assert "repro" in closure
        assert "repro.synthesis" in closure

    def test_closure_covers_what_importing_the_entry_runs(self, facts):
        """Every project module the interpreter loads for the entry
        module is in the static closure (which also holds the imports
        inside functions, run later by the worker)."""
        loaded = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.core.parallel; "
                "print(' '.join(m for m in sys.modules if m.startswith('repro')))",
            ],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(SRC_ROOT)},
        ).stdout.split()
        assert "repro.core.parallel" in loaded
        assert set(loaded) <= facts.worker_closure(ENTRY)

    def test_closure_excludes_non_worker_layers(self, facts):
        closure = facts.worker_closure(ENTRY)
        # Figures, the CLI, and the linter itself are driver-side only.
        for module in (
            "repro.cli",
            "repro.figures.fig02_ccdf",
            "repro.quality.engine",
        ):
            assert module not in closure, module

    def test_closure_tracks_graph_changes_not_a_list(self, facts):
        """The same walker applied to a different entry gives a different
        closure — i.e. the result is a function of the graph, not a
        constant baked into the rule."""
        study_closure = facts.import_closure("repro.core.study")
        parallel_closure = facts.import_closure("repro.core.parallel")
        assert "repro.core.parallel" not in study_closure
        assert study_closure < parallel_closure

    def test_module_path_round_trip(self, facts):
        # One path -> module function serves ProjectFacts and FileContext.
        relpath = facts.module_relpath("repro.core.parallel")
        assert relpath == "repro/core/parallel.py"
        assert path_module(relpath) == "repro.core.parallel"
        init = facts.module_relpath("repro.synthesis")
        assert init == "repro/synthesis/__init__.py"
        assert path_module(init) == "repro.synthesis"
        context = Analyzer(default_config()).context
        file_ctx = FileContext(context, SRC_ROOT / relpath)
        assert file_ctx.module == "repro.core.parallel"


class TestRendering:
    def test_render_text_clean(self):
        assert "clean" in render_text([])

    def test_render_json_always_valid(self):
        payload = json.loads(render_json([]))
        assert payload["summary"] == {"errors": 0, "total": 0, "warnings": 0}

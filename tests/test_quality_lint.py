"""Tier-1 gate: the repo's own source tree passes ``repro lint``.

Also pins the analyzer's public behavior: CLI exit codes, JSON output
round-tripping, and — crucially — that the fork-safety rule's import
closure is computed from the real AST import graph rooted at
``core.parallel._run_chunk``, not from a hard-coded module list.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.quality import (
    Analyzer,
    default_config,
    fork_closure,
    render_json,
    render_text,
)
from repro.quality.importgraph import ImportGraph

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


class TestSourceTreeIsClean:
    def test_zero_findings_over_src(self):
        findings = Analyzer(default_config()).analyze()
        assert findings == [], "\n" + render_text(findings)

    def test_default_config_points_at_this_repo(self):
        config = default_config()
        assert (config.src_root / "repro" / "core" / "parallel.py").is_file()

    def test_cli_lint_exits_zero_on_src(self, capsys):
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_lint_json_round_trips(self, capsys):
        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["total"] == 0
        assert payload["findings"] == []


class TestForkClosureIsReal:
    """RPR004's module set is derived by walking imports from the entry."""

    def test_entry_function_must_exist(self):
        with pytest.raises(ValueError):
            fork_closure(SRC_ROOT, "repro.core.parallel:_no_such_function")
        with pytest.raises(ValueError):
            fork_closure(SRC_ROOT, "repro.no_such_module:_run_chunk")

    def test_closure_contains_what_workers_execute(self):
        closure = fork_closure(SRC_ROOT, "repro.core.parallel:_run_chunk")
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

    def test_closure_excludes_non_worker_layers(self):
        closure = fork_closure(SRC_ROOT, "repro.core.parallel:_run_chunk")
        # Figures, the CLI, and the linter itself are driver-side only.
        for module in (
            "repro.cli",
            "repro.figures.fig02_ccdf",
            "repro.quality.engine",
        ):
            assert module not in closure, module

    def test_closure_tracks_graph_changes_not_a_list(self):
        """The same walker applied to a different entry gives a different
        closure — i.e. the result is a function of the graph, not a
        constant baked into the rule."""
        study_closure = ImportGraph(SRC_ROOT).closure("repro.core.study")
        parallel_closure = ImportGraph(SRC_ROOT).closure("repro.core.parallel")
        assert "repro.core.parallel" not in study_closure
        assert study_closure < parallel_closure

    def test_module_path_round_trip(self):
        graph = ImportGraph(SRC_ROOT)
        path = graph.module_path("repro.core.parallel")
        assert path is not None and path.name == "parallel.py"
        assert graph.path_module(path) == "repro.core.parallel"
        init = graph.module_path("repro.synthesis")
        assert init is not None and init.name == "__init__.py"
        assert graph.path_module(init) == "repro.synthesis"


class TestRendering:
    def test_render_text_clean(self):
        assert "clean" in render_text([])

    def test_render_json_always_valid(self):
        payload = json.loads(render_json([]))
        assert payload["summary"] == {"errors": 0, "total": 0, "warnings": 0}

"""Per-rule fixture tests: one violating and one clean example per rule,
plus suppression (``# repro: noqa[...]``) behavior."""

import ast
import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.quality import Analyzer, LintConfig
from repro.quality.symbols import nondet_source, summarize_module

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint" / "cases"


def fixture_config(**overrides) -> LintConfig:
    options = dict(
        src_root=FIXTURES,
        package="",
        fork_entry="forkpkg.pool:_run_chunk",
    )
    options.update(overrides)
    return LintConfig(**options)


def run_rule(rule_id, *relative_paths, **config_overrides):
    config = fixture_config(select=(rule_id,), **config_overrides)
    paths = [FIXTURES / rel for rel in relative_paths]
    return Analyzer(config).analyze(paths)


class TestRpr001WallClock:
    def test_violation(self):
        findings = run_rule("RPR001", "synthesis/rpr001_violation.py")
        assert {f.rule_id for f in findings} == {"RPR001"}
        assert len(findings) == 3
        assert all(f.path == "synthesis/rpr001_violation.py" for f in findings)
        assert sorted(f.line for f in findings) == [8, 9, 10]

    def test_clean(self):
        assert run_rule("RPR001", "synthesis/rpr001_clean.py") == []

    def test_host_time_zone_reads(self):
        # .timestamp(), time.mktime and time.localtime (also imported by
        # name) read the host's zone: another host, other bytes.
        findings = run_rule("RPR001", "synthesis/rpr001_local_time.py")
        assert [(f.line, f.column) for f in findings] == [(9, 11), (13, 11), (17, 11), (17, 45)]
        assert all("host-time-zone read" in f.message for f in findings)

    def test_host_time_zone_reads_outside_the_data_layers(self):
        # In core/ a zone read is no finding: an operator's log may show local time.
        assert run_rule("RPR001", "core/rpr001_local_time.py") == []

    def test_out_of_scope_module_ignored(self):
        # The same calls outside the scoped directories are allowed
        # (drivers may timestamp their own logs).
        findings = run_rule("RPR001", "rpr002_violation.py")
        assert findings == []

    def test_core_scope_covered(self):
        # The widened scope: core/ task timing must use the Clock protocol.
        findings = run_rule("RPR001", "core/rpr001_violation.py")
        assert sorted(f.line for f in findings) == [11, 12]

    def test_allowlisted_clock_module_is_clean(self):
        findings = run_rule(
            "RPR001",
            "telemetry/clock.py",
            wallclock_allowlist=("telemetry/clock.py",),
        )
        assert findings == []

    def test_allowlist_matches_exact_suffix_only(self):
        # The default allowlist names repro/telemetry/clock.py; a fixture
        # at telemetry/clock.py is NOT that suffix, so the reads flag.
        findings = run_rule("RPR001", "telemetry/clock.py")
        assert len(findings) == 2

    def test_telemetry_outside_clock_still_banned(self):
        # The allowlist is per-file, not per-package: other telemetry
        # modules may not read the clock directly.
        findings = run_rule(
            "RPR001",
            "telemetry/rpr001_violation.py",
            wallclock_allowlist=("telemetry/clock.py",),
        )
        assert [f.line for f in findings] == [11]
        assert "clock imported by name" in findings[0].message


class TestRpr002SeededRng:
    def test_violation(self):
        findings = run_rule("RPR002", "rpr002_violation.py")
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "random.random" in messages
        assert "np.random.normal" in messages

    def test_clean(self):
        assert run_rule("RPR002", "rpr002_clean.py") == []

    def test_sources_shared_with_rpr011(self):
        # `import numpy.random`, uuid and os.urandom are sources to the
        # classifier RPR002 shares with RPR011.
        findings = run_rule("RPR002", "rpr002_more_sources.py")
        names = ("numpy.random.normal", "uuid.uuid4", "os.urandom")
        assert [(f.line, f.message.split("()")[0]) for f in findings] == [
            (11, f"`{names[0]}"),
            (15, f"`{names[1]}"),
            (19, f"`{names[2]}"),
        ]
        assert "legacy global generator" in findings[0].message
        assert all("operating-system entropy" in f.message for f in findings[1:])
        source = (FIXTURES / "rpr002_more_sources.py").read_text()
        imports = summarize_module("m", ast.parse(source)).imports
        assert all(nondet_source(name, imports) for name in names)


class TestRpr003Anonymize:
    def test_violation(self):
        findings = run_rule("RPR003", "rpr003_violation.py")
        # attribute access, bare name, propagated taint, writer method —
        # each reported once.
        assert [(f.line, f.column) for f in findings] == [
            (12, 10),
            (17, 47),
            (23, 45),
            (28, 17),
        ]

    def test_module_scope_taint_reaches_function_bodies(self, tmp_path):
        # A writer or a tainted name bound at module scope is still seen by
        # the function that uses it: a function's walk starts from its
        # enclosing scope's state.
        source = tmp_path / "export_job.py"
        source.write_text(
            "from repro.tstat.logs import FlowLogWriter\n"
            "LOG = FlowLogWriter('flows.log')\n"
            "ROWS = [record.client_ip for record in RECORDS]\n"
            "def flush(address):\n"
            "    LOG.write(ROWS)\n"
            "    LOG.write(address)\n",
            encoding="utf-8",
        )
        config = fixture_config(src_root=tmp_path, select=("RPR003",))
        findings = Analyzer(config).analyze([source])
        assert [(f.line, f.column) for f in findings] == [(5, 14)]

    def test_clean(self):
        assert run_rule("RPR003", "rpr003_clean.py") == []


class TestRpr004ForkSafety:
    def test_violations_inside_closure(self):
        findings = run_rule("RPR004", "forkpkg")
        by_name = {}
        for finding in findings:
            by_name.setdefault(Path(finding.path).name, []).append(finding)
        # state.py: CACHE, RESULTS, and the justification-less noqa.
        assert len(by_name["state.py"]) == 3
        # lazy.py is only imported inside the worker function body.
        assert len(by_name["lazy.py"]) == 1
        # spawnctx.py: get_context("fork") and get_context(method="spawn");
        # the variable-argument set_start_method(method) stays clean.
        assert len(by_name["spawnctx.py"]) == 2
        assert set(by_name) == {"state.py", "lazy.py", "spawnctx.py"}

    def test_pinned_start_method_message(self):
        findings = run_rule("RPR004", "forkpkg/spawnctx.py")
        assert len(findings) == 2
        assert all("pins the start method" in f.message for f in findings)
        assert {f.line for f in findings} == {10, 15}

    def test_frozen_and_justified_are_clean(self):
        findings = run_rule("RPR004", "forkpkg/frozen.py")
        assert findings == []

    def test_unreachable_module_not_flagged(self):
        """Proof the rule walks the import graph: the same mutable dict is
        flagged in the closure and ignored outside it."""
        findings = run_rule("RPR004", "forkpkg/unreachable.py")
        assert findings == []

    def test_bad_entry_is_an_error(self):
        config = fixture_config(
            select=("RPR004",), fork_entry="forkpkg.pool:does_not_exist"
        )
        with pytest.raises(ValueError):
            Analyzer(config).analyze([FIXTURES / "forkpkg"])

    def test_bare_noqa_does_not_suppress(self):
        findings = run_rule("RPR004", "forkpkg/state.py")
        assert any(f.line == 5 for f in findings), (
            "noqa[RPR004] without justification must not count"
        )


class TestRpr005FloatAccumulation:
    def test_violation(self):
        findings = run_rule("RPR005", "figures/rpr005_violation.py")
        assert len(findings) == 2
        reasons = " ".join(f.message for f in findings)
        assert "division" in reasons
        assert "float start" in reasons

    def test_clean(self):
        assert run_rule("RPR005", "figures/rpr005_clean.py") == []

    def test_out_of_scope_ignored(self):
        # The float-sum ban applies to figures/analytics/core reductions only.
        findings = run_rule("RPR005", "rpr006_violation.py")
        assert findings == []

    def test_annotated_float_summand(self):
        # ``xs: List[float]`` then ``sum(xs)`` is flagged — but only inside
        # the annotating scope; class-field annotations don't leak into
        # methods, and other functions' locals stay clean.
        findings = run_rule("RPR005", "figures/rpr005_annotated.py")
        assert [f.line for f in findings] == [11]
        assert "annotated" in findings[0].message

    def test_core_scope_covered(self):
        # The StudyData.weekly_reach shape: core/ is in scope since the
        # weekly sets are filled per-worker and merged in partial order.
        findings = run_rule("RPR005", "core/rpr005_violation.py")
        assert [f.line for f in findings] == [10]


class TestRpr006DictOrder:
    def test_violation(self):
        findings = run_rule("RPR006", "rpr006_violation.py")
        assert len(findings) == 3
        consumers = " ".join(f.message for f in findings)
        assert "for-loop" in consumers
        assert "list()" in consumers
        assert "comprehension" in consumers

    def test_clean(self):
        assert run_rule("RPR006", "rpr006_clean.py") == []


class TestRpr007Swallow:
    def test_violation(self):
        findings = run_rule("RPR007", "dataflow/rpr007_violation.py")
        assert {f.rule_id for f in findings} == {"RPR007"}
        assert sorted(f.line for f in findings) == [9, 17, 24]
        messages = " ".join(f.message for f in findings)
        assert "Exception" in messages

    def test_clean(self):
        # Broad handlers that re-raise or call out (telemetry, logging)
        # are legitimate; narrow handlers are always fine.
        assert run_rule("RPR007", "dataflow/rpr007_clean.py") == []

    def test_out_of_scope_module_ignored(self):
        # Presentation-layer code may swallow; only the data/compute
        # planes (dataflow, tstat, core) are covered.
        assert run_rule("RPR007", "rpr007_out_of_scope.py") == []

    def test_telemetry_scope_dogfood(self):
        # RPR007's scope now covers telemetry/: an observability layer
        # that swallows its own failures hides exactly the evidence it
        # exists to record.
        findings = run_rule("RPR007", "telemetry/rpr007_violation.py")
        assert [f.line for f in findings] == [8]

    def test_quality_scope_dogfood(self):
        # ...and quality/ itself: the linter is a gate, and a gate that
        # swallows errors waves violations through.
        findings = run_rule("RPR007", "quality/rpr007_violation.py")
        assert [f.line for f in findings] == [8]


class TestSuppressions:
    def test_noqa_suppresses_only_named_rule_on_that_line(self):
        findings = run_rule("RPR002", "noqa_cases.py")
        lines = sorted(f.line for f in findings)
        # line 7 suppressed; line 11 names RPR001 (wrong rule); line 15 bare.
        assert lines == [11, 15]


class TestCliOnFixtures:
    def test_nonzero_exit_with_precise_location(self, capsys):
        target = FIXTURES / "rpr002_violation.py"
        code = main(["lint", str(target), "--select", "RPR002"])
        out = capsys.readouterr().out
        assert code == 1
        assert "rpr002_violation.py:9" in out
        assert "RPR002" in out

    def test_json_output_round_trips(self, capsys):
        target = FIXTURES / "rpr002_violation.py"
        code = main(
            ["lint", str(target), "--select", "RPR002", "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["summary"]["total"] == 2
        assert all(f["rule"] == "RPR002" for f in payload["findings"])

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main(["lint", "--select", "NOPE"]) == 2
        assert "unknown rule" in capsys.readouterr().err


class TestFixtureConfigIsolation:
    def test_fixture_analyzer_never_reads_repo_src(self):
        config = fixture_config(select=("RPR004",))
        analyzer = Analyzer(config)
        files = analyzer.target_files([FIXTURES / "forkpkg"])
        assert all(FIXTURES in path.parents for path in files)

    def test_dataclass_replace_keeps_frozen_config(self):
        config = fixture_config()
        replaced = dataclasses.replace(config, select=("RPR001",))
        assert replaced.select == ("RPR001",)
        assert config.select == ()

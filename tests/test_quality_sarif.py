"""SARIF 2.1.0 output: required fields, lossless round-trip, and the
CLI surface (`--format sarif`, `--explain`)."""

import json

import pytest

from repro.cli import main
from repro.quality import (
    Finding,
    Severity,
    findings_from_sarif,
    render_sarif,
    sarif_document,
)

FINDINGS = [
    Finding(
        path="repro/core/pool.py",
        line=42,
        column=4,
        rule_id="RPR010",
        severity=Severity.ERROR,
        message="`conn` leaks on the exception edge",
    ),
    Finding(
        path="repro/tstat/logs.py",
        line=7,
        column=0,
        rule_id="RPR009",
        severity=Severity.ERROR,
        message="`decode()` contracts to raise only [DecodeError]",
    ),
    Finding(
        path="repro/cli.py",
        line=3,
        column=1,
        rule_id="RPR000",
        severity=Severity.ERROR,
        message="malformed suppression",
    ),
]


class TestSarifDocument:
    def test_required_2_1_0_fields(self):
        doc = sarif_document(FINDINGS)
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        assert len(doc["runs"]) == 1
        run = doc["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert driver["informationUri"]

        results = run["results"]
        assert len(results) == len(FINDINGS)
        first = results[0]
        assert first["ruleId"] == "RPR010"
        assert first["level"] == "error"
        assert first["message"]["text"]
        location = first["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "repro/core/pool.py"
        assert location["region"]["startLine"] == 42
        # SARIF columns are 1-based; Finding columns are 0-based.
        assert location["region"]["startColumn"] == 5

    def test_rules_array_covers_exactly_the_used_ids(self):
        doc = sarif_document(FINDINGS)
        driver = doc["runs"][0]["tool"]["driver"]
        ids = [rule["id"] for rule in driver["rules"]]
        assert ids == sorted({f.rule_id for f in FINDINGS})
        by_id = {rule["id"]: rule for rule in driver["rules"]}
        # Registered rules carry their description and invariant.
        rpr010 = by_id["RPR010"]
        assert rpr010["shortDescription"]["text"]
        assert rpr010["fullDescription"]["text"]
        # RPR000 is the engine's own id (malformed suppressions), not a
        # registered rule: present, but bare.
        assert "RPR000" in by_id

    def test_empty_findings_is_a_valid_empty_run(self):
        doc = sarif_document([])
        assert doc["runs"][0]["results"] == []
        assert doc["runs"][0]["tool"]["driver"]["rules"] == []

    def test_round_trip_is_lossless(self):
        doc = json.loads(render_sarif(FINDINGS))
        assert findings_from_sarif(doc) == FINDINGS

    def test_render_is_deterministic(self):
        assert render_sarif(FINDINGS) == render_sarif(list(FINDINGS))


class TestCliSurface:
    def test_lint_sarif_on_clean_tree(self, src_lint, capsys):
        assert main(["lint", "--format", "sarif", "--cache", src_lint.cache]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"] == []

    def test_lint_with_cache_twice(self, tmp_path, capsys):
        cache = tmp_path / "lint.cache.json"
        assert main(["lint", "--cache", str(cache)]) == 0
        cold = capsys.readouterr().out
        assert main(["lint", "--cache", str(cache)]) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        json.loads(cache.read_text(encoding="utf-8"))

    @pytest.mark.parametrize(
        "rule_id", ["RPR008", "RPR009", "RPR010", "RPR011"]
    )
    def test_explain_known_rule(self, rule_id, capsys):
        assert main(["lint", "--explain", rule_id]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{rule_id}:")
        assert "invariant:" in out

    def test_explain_includes_fix_guidance_docstring(self, capsys):
        assert main(["lint", "--explain", "RPR010"]) == 0
        out = capsys.readouterr().out
        assert "Fix guidance" in out

    def test_explain_unknown_rule_exits_2(self, capsys):
        assert main(["lint", "--explain", "RPR999"]) == 2
        err = capsys.readouterr().err
        assert "RPR999" in err
        assert "RPR010" in err  # lists the known ids

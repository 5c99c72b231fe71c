"""Golden of every lint finding over the fixture tree, rule by rule.

``tests/golden/lint_findings.json`` holds (path, line, column, message)
for each rule's findings over ``tests/fixtures/lint/cases``.  A rule's
findings may change only on purpose; a deliberate change regenerates the
golden with::

    PYTHONPATH=src python -c "import json, tests.test_quality_golden as g; \\
        print(json.dumps(g.all_findings(), indent=1))" \\
        > tests/golden/lint_findings.json
"""

import json
from pathlib import Path

from repro.quality import Analyzer, LintConfig, registered_rules

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint" / "cases"
GOLDEN = Path(__file__).resolve().parent / "golden" / "lint_findings.json"

#: The typed-error contracts ``test_quality_interproc`` runs RPR009 with.
CONTRACTS = (
    ("contractpkg.good:parse_good", ("contractpkg.errors:DecodeError",)),
    ("contractpkg.bad:parse_bad", ("contractpkg.errors:DecodeError",)),
)

#: The fork entries the fixture tests anchor RPR004 and RPR008 at.
FORK_ENTRIES = (
    "forkpkg.pool:_run_chunk",
    "racepkg.pool:_run_chunk",
    "racepkg.history:_run_chunk",
)
FORK_RULES = ("RPR004", "RPR008")


def rule_findings(rule_id, fork_entry=FORK_ENTRIES[0]):
    config = LintConfig(
        src_root=FIXTURES,
        package="",
        fork_entry=fork_entry,
        error_contracts=CONTRACTS,
        select=(rule_id,),
    )
    return [
        [f.path, f.line, f.column, f.message]
        for f in Analyzer(config).analyze([FIXTURES])
    ]


def all_findings():
    """Findings keyed by rule id, or ``"<rule id> <fork entry>"`` for the
    rules anchored at the fork entry."""
    found = {}
    for rule_id in sorted(registered_rules()):
        if rule_id in FORK_RULES:
            for entry in FORK_ENTRIES:
                found[f"{rule_id} {entry}"] = rule_findings(rule_id, entry)
        else:
            found[rule_id] = rule_findings(rule_id)
    return found


class TestLintFindingsGolden:
    def test_findings_match_golden(self):
        expected = json.loads(GOLDEN.read_text())
        assert all_findings() == expected

    def test_golden_covers_every_rule(self):
        golden = json.loads(GOLDEN.read_text())
        covered = {key.split()[0] for key, rows in golden.items() if rows}
        assert covered == set(registered_rules())

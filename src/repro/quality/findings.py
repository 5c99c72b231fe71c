"""The findings model: what a lint rule reports and how it serializes.

A :class:`Finding` pins one invariant violation to a ``file:line`` with a
rule id, a severity, and a human-readable message.  Findings are value
objects: they sort stably (path, line, column, rule) so reports are
deterministic, and they round-trip through JSON for the
``repro lint --format json`` output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List


class LintError(ValueError):
    """The linter's typed error family: unusable configuration and malformed
    suppression directives.

    Defined here (the leaf module of the quality package) so every layer —
    engine, suppressions, cache — can subclass it without import
    cycles.  Anything ``repro lint`` raises deliberately is a
    :class:`LintError`; a bare ``TypeError``/``KeyError`` escaping the CLI
    is a bug, not an input problem.
    """


class Severity(enum.Enum):
    """How bad a finding is; errors fail the build, warnings inform."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a precise location."""

    path: str  # POSIX-style path relative to the analysis root
    line: int
    column: int
    rule_id: str
    severity: Severity
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Finding":
        return cls(
            path=str(data["path"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            column=int(data.get("column", 0)),  # type: ignore[arg-type]
            rule_id=str(data["rule"]),
            severity=Severity(str(data.get("severity", "error"))),
            message=str(data["message"]),
        )

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.rule_id} [{self.severity.value}] {self.message}"
        )


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Deterministic report order: by location, then rule id."""
    return sorted(findings)

"""In-source suppressions: ``# repro: noqa[RULE,...]`` directives.

A directive on a line suppresses the named rules *on that line only*,
matching how the repo's invariants are argued: each exception is visible
next to the code it excuses.  Rules may demand a justification — written
after the bracket, e.g.::

    REGISTRY = {}  # repro: noqa[RPR004] -- populated once at import, then read-only

Suppressions without the required justification do not apply (the finding
is still reported), so "I silenced it" always comes with "because".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.quality.findings import LintError

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\[(?P<rules>[A-Za-z0-9_,\s]+)\]"
    r"(?:\s*(?:--|:)?\s*(?P<reason>\S.*))?"
)

#: A directive was *started* — anything after ``# repro:`` that mentions
#: noqa — but does not parse.  (The ``\s*`` escapes keep this pattern's
#: own source line from matching itself.)
_NOQA_HINT_RE = re.compile(r"#\s*repro:\s*noqa\b")

#: Rule ids are ``RPR`` + digits (case-insensitive); anything else inside
#: the brackets is a typo that would otherwise silently not suppress.
_RULE_ID_RE = re.compile(r"^[A-Za-z]{3}\d{3}$")


class SuppressionError(LintError):
    """A ``# repro: noqa`` directive that does not parse.

    A typoed directive is worse than a missing one: the author believes
    the finding is silenced while the gate still fires (or, worse, a
    *different* rule id is silenced).  Carrying the 1-based source line
    lets the engine surface the problem as a finding at that line.
    """

    def __init__(self, message: str, line: int) -> None:
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Suppression:
    """One noqa directive: which rules it silences, on which line, and why."""

    line: int
    rule_ids: Sequence[str]
    reason: str

    def covers(self, rule_id: str, require_reason: bool = False) -> bool:
        if rule_id.upper() not in self.rule_ids:
            return False
        if require_reason and not self.reason:
            return False
        return True


def parse_suppressions(source: str) -> Dict[int, Suppression]:
    """All noqa directives in ``source``, keyed by 1-based line number.

    Parsing is lexical (a regex over raw lines), which means a directive
    inside a string literal would also count; in exchange the directive
    survives any AST transformation and needs no tokenizer round-trip.

    A line that *starts* a directive but does not parse — missing or
    unbalanced brackets, empty brackets, tokens that are not rule ids —
    raises :class:`SuppressionError` naming the line.  Never a bare
    ``AttributeError``/``IndexError``: the fuzz tests feed this function
    arbitrary garbage and expect typed errors or clean parses only.
    """
    directives: Dict[int, Suppression] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(text)
        if match is None:
            hint = _NOQA_HINT_RE.search(text)
            # Backtick-quoted mentions are documentation (``# repro:
            # noqa[...]`` in docstrings), not directives.
            if hint and not (hint.start() > 0 and text[hint.start() - 1] == "`"):
                raise SuppressionError(
                    f"directive {text.strip()!r} does not parse — expected "
                    "`# repro: noqa[RULE,...] -- reason`",
                    line=lineno,
                )
            continue
        rules = tuple(
            part.strip().upper()
            for part in match.group("rules").split(",")
            if part.strip()
        )
        if not rules:
            raise SuppressionError(
                "noqa directive with empty brackets suppresses nothing",
                line=lineno,
            )
        bad = [rule for rule in rules if not _RULE_ID_RE.match(rule)]
        if bad:
            raise SuppressionError(
                f"noqa directive names invalid rule id(s): {', '.join(bad)}",
                line=lineno,
            )
        reason = (match.group("reason") or "").strip()
        directives[lineno] = Suppression(line=lineno, rule_ids=rules, reason=reason)
    return directives

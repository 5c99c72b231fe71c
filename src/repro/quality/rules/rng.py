"""RPR002 — every random draw flows from an explicit seed.

Invariant (DESIGN.md §6): randomness enters the system only through
``np.random.default_rng(SeedSequence([...]))`` plumbing keyed by
(study seed, day, stream).  The stdlib ``random`` module functions and
NumPy's legacy global generator (``np.random.normal`` etc.) share hidden
process-wide state: they make results depend on call order and on which
worker handled which day — precisely what the parallelism contract
("parallelism changes wall-clock, never results") forbids.
``os.urandom``, ``uuid.uuid1`` and ``uuid.uuid4`` differ on every run
for the same reason.  Calls are classified by the same function RPR011
uses (:func:`repro.quality.symbols.nondet_kind`), through the file's
import map, so ``import numpy.random`` or an alias changes nothing.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.quality.findings import Finding
from repro.quality.registry import Rule, call_name, register
from repro.quality.symbols import nondet_kind

#: The message for each kind of unseeded draw the shared classifier
#: (:func:`~repro.quality.symbols.nondet_kind`) recognizes.
_MESSAGES = {
    "random-module": (
        "`{name}()` draws from the stdlib random module's shared global "
        "state; use a seeded np.random.Generator (or random.Random(seed)) "
        "instead"
    ),
    "random-name": (
        "`{name}()` was imported from the stdlib random module and draws "
        "from shared global state; use a seeded generator instead"
    ),
    "numpy-global": (
        "`{name}()` uses NumPy's legacy global generator; draw from "
        "np.random.default_rng(SeedSequence([...])) so the stream is keyed "
        "by (seed, day)"
    ),
    "entropy": (
        "`{name}()` reads operating-system entropy or the host clock, which "
        "differ on every run; derive the value from a seeded generator "
        "keyed by (seed, day)"
    ),
}


@register
class SeededRngRule(Rule):
    rule_id = "RPR002"
    description = "only seeded RNGs: no stdlib random module, no numpy global generator"
    invariant = (
        "all randomness is drawn from per-day seeded generators; no call "
        "touches interpreter-global RNG state"
    )

    def check(self, file_ctx) -> Iterator[Finding]:
        for node in file_ctx.nodes(ast.Call):
            name = call_name(node)
            message = _MESSAGES.get(nondet_kind(name, file_ctx.imports))
            if message:
                yield self.finding(file_ctx, node, message.format(name=name))

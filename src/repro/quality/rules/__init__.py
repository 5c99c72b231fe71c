"""Built-in lint rules.

Importing this package registers every rule with
:mod:`repro.quality.registry`:

==========  ==========================================================
RPR001      no wall-clock reads outside the telemetry clock
RPR002      only seeded RNGs (no stdlib random, no numpy global state)
RPR003      raw client addresses anonymized before export sinks
RPR004      no mutable module-level state in fork-worker imports
RPR005      float reductions via math.fsum, not order-sensitive sum()
RPR006      set iteration feeding aggregation/output must be sorted
RPR007      no silently swallowed broad exceptions in data/compute planes
RPR008      no parent-side writes to module globals fork workers read
RPR009      only contracted exception families escape decode/pool APIs
RPR010      acquired resources closed or handed off on every path
RPR011      no wall-clock/RNG taint into export sinks, even via helpers
==========  ==========================================================

RPR001–RPR007 are per-file AST checks; RPR004 (its worker import
closure) and RPR008–RPR011 draw on the whole-program symbol table and
call graph (:mod:`repro.quality.symbols`, :mod:`repro.quality.callgraph`).
"""

from repro.quality.rules import (  # noqa: F401  (import registers the rules)
    anonymize,
    contracts,
    dictorder,
    floatsum,
    forksafe,
    interptaint,
    race,
    resources,
    rng,
    swallow,
    wallclock,
)

__all__ = [
    "anonymize",
    "contracts",
    "dictorder",
    "floatsum",
    "forksafe",
    "interptaint",
    "race",
    "resources",
    "rng",
    "swallow",
    "wallclock",
]

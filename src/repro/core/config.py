"""Configuration of a longitudinal study run."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Tuple

from repro.synthesis.world import SUBSCRIBER_BLOCK, WorldConfig

#: The two months contrasted throughout the paper (Figs. 2, 4, 10).
COMPARISON_MONTHS: Tuple[Tuple[int, int], ...] = ((2014, 4), (2017, 4))


@dataclass(frozen=True)
class StudyConfig:
    """Knobs of a :class:`~repro.core.study.LongitudinalStudy` run.

    ``day_stride`` samples the 54-month span (1 = every day, as in the
    paper; 3 = every third day, the default trade-off).  The comparison
    months (April 2014/2017) are always covered at full daily resolution.
    ``flow_days_per_month`` controls how many days per month are expanded
    to the flow tier for the RTT and infrastructure analyses.
    """

    world: WorldConfig = field(default_factory=WorldConfig)
    day_stride: int = 3
    flow_days_per_month: int = 1
    rtt_days_per_comparison_month: int = 4
    max_flows_per_usage: int = 8

    def __post_init__(self) -> None:
        if self.day_stride <= 0:
            raise ValueError("day_stride must be positive")
        if self.flow_days_per_month < 0:
            raise ValueError("flow_days_per_month must be >= 0")

    @functools.cached_property
    def _hash(self) -> str:
        """:func:`config_hash`, computed on first use (not a field)."""
        return _digest(self)


def config_hash(config: StudyConfig) -> str:
    """Deterministic digest of every knob that shapes study results.

    Per-day checkpoints (DESIGN.md §10) are keyed by this hash: two runs
    share checkpoints iff their configs are field-for-field identical, so
    a partial result computed under one seed/population/span can never
    leak into a run with another.  The digest canonicalizes through JSON
    (sorted keys, dates via ``str``) so it is stable across processes and
    interpreter restarts.

    A population wider than one RNG block also hashes the block width:
    block-keyed streams (DESIGN.md §6) draw a one-block world exactly as
    before blocks existed, a wider one differently, so only the wider
    ones get a new hash and an older run's checkpoints for them are never
    resumed into a mix of old and new days.

    A run asks for the digest once per task, so each (frozen) config
    object computes it once and keeps it.
    """
    return config._hash


def _digest(config: StudyConfig) -> str:
    payload = dataclasses.asdict(config)
    if config.world.adsl_count + config.world.ftth_count > SUBSCRIBER_BLOCK:
        payload["subscriber_block"] = SUBSCRIBER_BLOCK
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def small_study(seed: int = 7) -> StudyConfig:
    """A fast configuration used by tests and the quickstart example."""
    return StudyConfig(
        world=WorldConfig(seed=seed, adsl_count=120, ftth_count=60),
        day_stride=7,
        flow_days_per_month=1,
        rtt_days_per_comparison_month=2,
        max_flows_per_usage=6,
    )

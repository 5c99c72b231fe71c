"""Study-config payloads: the JSON body of ``POST /v1/studies``.

The wire schema is deliberately small, and it is the one request model:
``repro run --scale/--seed/--start/--end`` builds this same payload and
calls :func:`build_config`, so the CLI and the service run the same
study for the same knobs and refuse the same bad ones, with the same
field-precise message (a 400 here, exit 2 there):

.. code-block:: json

    {"scale": "small", "seed": 7,
     "start": "2013-06-01", "end": "2013-06-30"}

``scale`` picks the preset (``small`` | ``medium``), ``seed`` the world
seed, and ``start``/``end`` optionally narrow the study span (the span
they leave must end after it starts).  The run id is the
:func:`~repro.core.config.config_hash` of the built :class:`StudyConfig`,
so identical payloads (after normalization) are idempotent and distinct
payloads can never share checkpoints.
"""

from __future__ import annotations

import dataclasses
import datetime
from typing import Optional, Tuple

from repro.core.config import StudyConfig, config_hash, small_study
from repro.service.errors import BadRequestError
from repro.synthesis.world import WorldConfig

SCALES = ("small", "medium")

#: Every key a submission may carry; anything else is a hard 400 so
#: typos ("sedd") fail loudly instead of silently running the default.
ALLOWED_KEYS = ("scale", "seed", "start", "end")


def _parse_date(payload: dict, key: str) -> Optional[datetime.date]:
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, str):
        raise BadRequestError(f"{key!r} must be an ISO date string")
    try:
        return datetime.date.fromisoformat(value)
    except ValueError as exc:
        raise BadRequestError(f"{key!r} is not an ISO date: {exc}") from exc


def build_config(payload: object) -> Tuple[StudyConfig, dict]:
    """Validate a submission body into (StudyConfig, normalized payload).

    The normalized payload (defaults filled in, dates ISO) is what the
    registry persists, so two ways of writing the same study — explicit
    defaults vs omitted keys — normalize to one record and one run id.
    """
    if not isinstance(payload, dict):
        raise BadRequestError("study config must be a JSON object")
    unknown = sorted(set(payload) - set(ALLOWED_KEYS))
    if unknown:
        raise BadRequestError(
            f"unknown config key(s): {', '.join(unknown)} "
            f"(allowed: {', '.join(ALLOWED_KEYS)})"
        )
    scale = payload.get("scale", "small")
    if scale not in SCALES:
        raise BadRequestError(
            f"'scale' must be one of {', '.join(SCALES)} (got {scale!r})"
        )
    seed = payload.get("seed", 7)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise BadRequestError(f"'seed' must be an integer (got {seed!r})")
    if scale == "small":
        config = small_study(seed=seed)
    else:
        config = StudyConfig(
            world=WorldConfig(seed=seed, adsl_count=500, ftth_count=250),
            day_stride=4,
        )
    # The span the study will run, checked with the population's rule.
    start = _parse_date(payload, "start") or config.world.start
    end = _parse_date(payload, "end") or config.world.end
    if end <= start:
        raise BadRequestError(
            f"'start' ({start.isoformat()}) must be before "
            f"'end' ({end.isoformat()})"
        )
    config = dataclasses.replace(
        config, world=dataclasses.replace(config.world, start=start, end=end)
    )
    normalized = {
        "scale": scale,
        "seed": seed,
        "start": start.isoformat(),
        "end": end.isoformat(),
    }
    return config, normalized


def run_id_for(config: StudyConfig) -> str:
    """The run id: the study's config hash (checkpoint namespace key)."""
    return config_hash(config)

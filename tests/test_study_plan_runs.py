"""The study plan across processes and runs.

Each process builds the plan of a cached study once, on its first
planned day: a pooled worker builds its own (a forked one from a parent
that has none yet, a spawned one from nothing), and its days must equal
the serial run's.  The build records no telemetry, so a run's trace does
not depend on whether the process built the plan in it.
"""

import dataclasses
import datetime
import os

from repro.core.config import config_hash, small_study
from repro.core.parallel import _STUDY_CACHE, execute_study
from repro.service.results import study_digest
from repro.telemetry import Telemetry, VirtualClock
from repro.telemetry.export import jsonl_lines

D = datetime.date

#: CI matrix override; None means "resolve at runtime" (fork where available).
START_METHOD = os.environ.get("REPRO_START_METHOD") or None


def test_pooled_workers_build_the_plan_the_serial_run_reads():
    config = small_study(1)
    _STUDY_CACHE.pop(config_hash(config), None)  # no plan for a fork to inherit
    pooled = execute_study(config, workers=2, start_method=START_METHOD)
    assert _STUDY_CACHE[config_hash(config)].generator._plan is None
    serial = execute_study(config, workers=1)
    assert study_digest(pooled.data) == study_digest(serial.data)


def test_a_cold_and_a_warm_run_trace_the_same():
    config = small_study(1)
    world = dataclasses.replace(config.world, start=D(2017, 4, 1), end=D(2017, 4, 10))
    config = dataclasses.replace(config, world=world)
    _STUDY_CACHE.pop(config_hash(config), None)
    cold = execute_study(config, workers=1, telemetry=Telemetry(VirtualClock()))
    assert _STUDY_CACHE[config_hash(config)].generator._plan is not None
    warm = execute_study(config, workers=1, telemetry=Telemetry(VirtualClock()))
    assert jsonl_lines(cold.telemetry) == jsonl_lines(warm.telemetry)
    assert cold.data == warm.data

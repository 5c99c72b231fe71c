"""Shared fixtures: a small world and a mini study run, built once."""

from __future__ import annotations

import datetime
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.config import StudyConfig
from repro.core.study import LongitudinalStudy, StudyData
from repro.quality import Analyzer, default_config, open_cache
from repro.services import catalog
from repro.synthesis.flowgen import TrafficGenerator
from repro.synthesis.world import World, WorldConfig

TEST_SEED = 20181204  # CoNEXT'18 started December 4

# The interchange formats (pcap, IPFIX, NetFlow v5) live beside the example
# that uses them, as the ``interop`` package; their tests import it there.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "examples"))


@pytest.fixture(scope="session")
def world() -> World:
    """A small world shared by read-only tests."""
    return World(WorldConfig(seed=TEST_SEED, adsl_count=120, ftth_count=60))


@pytest.fixture(scope="session")
def generator(world: World) -> TrafficGenerator:
    return TrafficGenerator(world)


@pytest.fixture(scope="session")
def multiblock_world() -> World:
    """Three subscriber blocks (3 000 subscribers): the smallest kind of
    world whose range tasks draw different streams."""
    return World(WorldConfig(seed=TEST_SEED, adsl_count=2000, ftth_count=1000))


@pytest.fixture(scope="session")
def multiblock_generator(multiblock_world: World) -> TrafficGenerator:
    return TrafficGenerator(multiblock_world)


@pytest.fixture(scope="session")
def rules():
    return catalog.default_ruleset()


@pytest.fixture(scope="session")
def mini_study() -> LongitudinalStudy:
    """A fast full study: coarse stride, small population."""
    config = StudyConfig(
        world=WorldConfig(seed=TEST_SEED, adsl_count=150, ftth_count=80),
        day_stride=9,
        flow_days_per_month=1,
        rtt_days_per_comparison_month=2,
        max_flows_per_usage=6,
    )
    return LongitudinalStudy(config)


@pytest.fixture(scope="session")
def study_data(mini_study: LongitudinalStudy) -> StudyData:
    """The mini study's results (one run for the whole session)."""
    return mini_study.run()


@pytest.fixture(scope="session")
def src_lint(tmp_path_factory) -> SimpleNamespace:
    """One cold ``repro lint`` analysis of ``src/`` for the whole session:
    its ``findings``, its whole-program ``facts``, and the ``cache`` file
    it filled, against which CLI runs over the same tree are warm."""
    cache = tmp_path_factory.mktemp("lint") / "lint.cache.json"
    analyzer = Analyzer(default_config(), cache=open_cache(cache))
    findings = analyzer.analyze()
    return SimpleNamespace(
        findings=findings, facts=analyzer.context.facts(), cache=str(cache)
    )


@pytest.fixture
def sample_day() -> datetime.date:
    return datetime.date(2016, 9, 14)

"""Stage-1's subscriber days as a declared table.

``StudyData.subscriber_days`` holds one :data:`SUBSCRIBER_DAY_CODEC` table
per day.  These tests pin what that representation must hold: a day
partial crosses the pipe, the spill file and the checkpoint as arrays
with no ``SubscriberDay`` in them, the spill watermark charges those
arrays their exact size, a checkpoint of the row-list layout is
recomputed (never merged), and a day with one row missing is another
study.  The Fig. 2 / Fig. 3 readers' row loops are the oracles in
``tests/test_stage1_tables.py``.
"""

import dataclasses
import datetime
import json
import pickle
import pickletools
from pathlib import Path

import pytest

from repro.analytics.activity import SUBSCRIBER_DAY_CODEC, SubscriberDay
from repro.core.config import StudyConfig, config_hash
from repro.core.parallel import ColumnarPartial, execute_study
from repro.core.study import LongitudinalStudy
from repro.dataflow import datalake
from repro.dataflow.columnar import ColumnBatch
from repro.dataflow.datalake import CheckpointError, CheckpointStore
from repro.service.results import render_figures, study_digest
from repro.synthesis.world import WorldConfig

D = datetime.date

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "study_digests.json").read_text()
)


def fixture_config():
    """Three April 2014 days of 18 subscribers (``checkpoint_fixture:17``)."""
    return StudyConfig(
        world=WorldConfig(
            seed=17, adsl_count=12, ftth_count=6, start=D(2014, 4, 8), end=D(2014, 4, 10)
        ),
        day_stride=1,
        flow_days_per_month=1,
        rtt_days_per_comparison_month=1,
    )


def heavyday_config(adsl, ftth):
    """The few heavy days the sharded benchmark fans out over 4 shards."""
    return StudyConfig(
        world=WorldConfig(
            seed=1, adsl_count=adsl, ftth_count=ftth, start=D(2017, 4, 8), end=D(2017, 4, 14)
        ),
        day_stride=1,
        flow_days_per_month=1,
        rtt_days_per_comparison_month=4,
        max_flows_per_usage=8,
    )


def names_subscriber_day(blob):
    """Whether a pickle refers to ``SubscriberDay`` (a global's name is a
    string argument of some opcode, whatever the protocol)."""
    return any(
        isinstance(arg, str) and "SubscriberDay" in arg
        for _, arg, _ in pickletools.genops(blob)
    )


@pytest.fixture(scope="module")
def whole_day():
    study = LongitudinalStudy(fixture_config())
    plan = study.planned_days()
    day = min(day for day, roles in plan.items() if "flows" in roles)
    return day, study.day_partial(day, plan[day])


class TestWhatCrossesThePipe:
    def test_a_day_partial_pickles_no_subscriber_day(self, whole_day):
        day, data = whole_day
        table = data.subscriber_days[day]
        assert isinstance(table, ColumnBatch) and table.codec is SUBSCRIBER_DAY_CODEC
        assert len(table) > 10
        blob = pickle.dumps(ColumnarPartial.pack(data), protocol=pickle.HIGHEST_PROTOCOL)
        assert not names_subscriber_day(blob)
        # the scan does see the records where the old layout held them
        assert names_subscriber_day(pickle.dumps(list(table)))
        shipped = pickle.loads(blob).unpack()
        assert shipped.subscriber_days == data.subscriber_days
        assert study_digest(shipped) == study_digest(data)

    def test_active_cells_stay_python_bools(self, whole_day):
        day, data = whole_day
        assert {type(entry.active) for entry in data.subscriber_days[day]} == {bool}

    def test_the_watermark_charges_the_exact_table_bytes(self, whole_day):
        day, data = whole_day
        table = data.subscriber_days[day]
        shell = dataclasses.replace(data, subscriber_days={})
        charged = (
            ColumnarPartial.pack(data).approx_nbytes()
            - ColumnarPartial.pack(shell).approx_nbytes()
        )
        assert charged == sum(array.nbytes for array in table.columns.values())
        assert charged < 96 * len(table)  # the flat per-row guess it replaced

    @pytest.mark.parametrize(
        "adsl, ftth, watermark",
        [(90, 45, 1 << 12), (4000, 2000, 1 << 20)],
        ids=["smoke", "full"],
    )
    def test_heavy_days_still_spill(self, tmp_path, adsl, ftth, watermark):
        """The sharded benchmark's configs, at its watermarks, still spill
        now that subscriber days are charged their exact bytes."""
        result = execute_study(
            heavyday_config(adsl, ftth),
            workers=1,
            shards=4,
            shard_spill_dir=tmp_path,
            spill_watermark_bytes=watermark,
        )
        assert result.report.spills > 0
        assert list(tmp_path.iterdir()) == []


class TestCheckpoints:
    def test_a_version_3_row_list_record_is_recomputed(self, tmp_path, monkeypatch):
        """A record of the layout before subscriber days were a table — row
        lists, version 3 — is a CheckpointError on load: resume recomputes
        that day and lands on a fresh run's data."""
        config = fixture_config()
        fresh = execute_study(config, workers=1).data
        execute_study(config, workers=1, checkpoint_root=tmp_path)
        store = CheckpointStore(tmp_path, config_hash(config))
        day = store.days()[1]
        partial = store.load(day)
        partial.data.subscriber_days = {
            key: list(table) for key, table in partial.data.subscriber_days.items()
        }
        with monkeypatch.context() as patch:
            patch.setattr(datalake, "CHECKPOINT_VERSION", 3)
            store.save(day, partial)
        with pytest.raises(CheckpointError, match="version 3"):
            store.load(day)

        resumed = execute_study(config, workers=1, checkpoint_root=tmp_path, resume=True)
        report = resumed.report
        assert report.checkpoint_hits == report.planned_tasks - 1
        assert [r.day for r in report.records if r.source != "checkpoint"] == [day]
        assert resumed.data == fresh
        assert study_digest(resumed.data) == GOLDEN["checkpoint_fixture:17"]["study_digest"]
        rewritten = store.load(day).data.subscriber_days[day]
        assert isinstance(rewritten, ColumnBatch) and rewritten == fresh.subscriber_days[day]


class TestAMissingRowIsAnotherStudy:
    def test_dropping_a_row_breaks_equality_and_moves_the_digest(self):
        """A day's table with its first row dropped is a different study:
        ``==`` says so and the digest moves (a table has no ``pop``; it
        has ``take``)."""
        config = fixture_config()
        data = LongitudinalStudy(config).run()
        perturbed = LongitudinalStudy(config).run()
        assert perturbed == data and study_digest(perturbed) == study_digest(data)
        day = min(perturbed.subscriber_days)
        table = perturbed.subscriber_days[day]
        perturbed.subscriber_days[day] = table.take(slice(1, None))
        assert len(perturbed.subscriber_days[day]) == len(table) - 1
        assert perturbed != data
        assert study_digest(perturbed) != study_digest(data)


class TestTheRunPathBuildsNoRecord:
    def test_pooled_run_resume_digest_and_figures(self, tmp_path, monkeypatch):
        """Stage-1, the pipe, the checkpoint, the resume, the digest and the
        Fig. 2 / Fig. 3 readers: none of them builds a ``SubscriberDay``."""

        def refuse(self, *args, **kwargs):
            raise AssertionError("a SubscriberDay was built")

        config = StudyConfig(
            world=WorldConfig(seed=17, adsl_count=12, ftth_count=6),
            day_stride=60,
            flow_days_per_month=0,
            rtt_days_per_comparison_month=1,
        )
        expected = study_digest(execute_study(config, workers=1).data)
        monkeypatch.setattr(SubscriberDay, "__init__", refuse)
        execute_study(config, workers=2, checkpoint_root=tmp_path)
        resumed = execute_study(config, workers=2, checkpoint_root=tmp_path, resume=True)
        assert resumed.report.checkpoint_hits == resumed.report.planned_tasks
        assert study_digest(resumed.data) == expected
        rendered, _ = render_figures(resumed.data, ["fig02", "fig03"])
        assert set(rendered) == {"fig02", "fig03"}

"""Stage-1's output tables: service stats, protocol rows and hourly bins.

A study's per-day outputs are :class:`ColumnBatch`\\ es of declared codecs.
These tests pin what that representation must not change — the v1 line of
each table, the figures rendered from a study — and what it must hold: a
batch pickles as its arrays, and a day computed in a spawned worker comes
back as tables that digest like the serial day.
"""

import datetime
import hashlib
import json
import pickle
import pickletools
from pathlib import Path

import pytest

from repro.analytics.activity import SUBSCRIBER_DAY_CODEC, subscriber_days
from repro.analytics.distributions import EmpiricalDistribution
from repro.analytics.hourly import monthly_profile
from repro.analytics.popularity import (
    SERVICE_STATS_CODEC,
    DailyServiceStats,
    byte_share_series,
    popularity_series,
)
from repro.analytics.protocols import monthly_protocol_shares
from repro.analytics.timeseries import mean_daily_traffic_per_subscriber, monthly_mean
from repro.core.config import StudyConfig, small_study
from repro.core.parallel import DayTask, DaySuccess, _run_chunk
from repro.core.persistence import HOURLY_CODEC
from repro.core.pool import EVENT_DONE, SupervisedPool
from repro.core.shards import plan_shards
from repro.core.study import STUDY_TABLES, LongitudinalStudy
from repro.dataflow.columnar import Chunk, ColumnBatch, ColumnSpec, ColumnarCodec
from repro.dataflow.datalake import DataLake
from repro.dataflow.integrity import load_manifest
from repro.figures import fig02_ccdf
from repro.service.results import render_figures, study_digest
from repro.services import catalog
from repro.synthesis.flowgen import (
    PROTOCOL_CODEC,
    USAGE_CODEC,
    DailyUsage,
    HourlyVolume,
    ProtocolUsage,
)
from repro.synthesis.population import Technology
from repro.synthesis.studycalendar import BINS_PER_DAY
from repro.synthesis.world import WorldConfig
from repro.tstat.flow import WebProtocol

D = datetime.date
DAY = D(2017, 4, 12)

#: ``name:seed`` → SHA-256 of the rendered figure reports.
FIGURE_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "figure_digests.json").read_text()
)

#: One record per table, its v1 line, and the CRC32 / byte count of the
#: gzip-TSV partition holding the record twice — as the hand-written line
#: codecs these tables had before wrote them.
V1_PINS = [
    (
        "usage",
        USAGE_CODEC,
        DailyUsage(DAY, 42, Technology.FTTH, "pop-2", "YouTube", 123456789, 98765, 17),
        "2017-04-12\t42\tftth\tpop-2\tYouTube\t123456789\t98765\t17",
        1685466177,
        104,
    ),
    (
        "protocols",
        PROTOCOL_CODEC,
        ProtocolUsage(DAY, "Facebook", WebProtocol.FBZERO, 5550001),
        "2017-04-12\tFacebook\tfb-zero\t5550001",
        1078380833,
        72,
    ),
    (
        "hourly",
        HOURLY_CODEC,
        HourlyVolume(DAY, Technology.ADSL, 131, 987654321),
        "2017-04-12\tadsl\t131\t987654321",
        517659705,
        60,
    ),
]

#: The CRC32 / byte count of the format-3 column chunk holding the same
#: record twice, by table: a chunk layout change cannot pass unnoticed.
CHUNK_PINS = {
    "usage": (1255729939, 923),
    "protocols": (7283873, 513),
    "hourly": (2795073756, 492),
}


class TestDerivedLines:
    @pytest.mark.parametrize("table,codec,record,line,crc,size", V1_PINS)
    def test_v1_line_and_partition_are_unchanged(
        self, tmp_path, table, codec, record, line, crc, size
    ):
        assert codec.encode(record) == line
        assert codec.decode(line + "\n") == record
        path = DataLake(tmp_path).write_day(table, DAY, [record, record], codec)
        manifest = load_manifest(path)
        assert (manifest.crc32, manifest.payload_bytes, manifest.records) == (
            crc, size, 2
        )
        assert DataLake(tmp_path).read_day(table, DAY, codec).collect() == [
            record,
            record,
        ]

    @pytest.mark.parametrize("table,codec,record", [pin[:3] for pin in V1_PINS])
    def test_format3_chunk_is_unchanged(self, tmp_path, table, codec, record):
        lake = DataLake(tmp_path, write_format="v2")
        path = lake.write_day(table, DAY, [record, record], codec)
        manifest = load_manifest(path)
        assert (manifest.crc32, manifest.payload_bytes, manifest.records) == (
            *CHUNK_PINS[table], 2
        )
        assert Chunk(path).format == 3
        assert lake.read_day(table, DAY, codec).collect() == [record, record]

    def test_a_line_of_another_width_does_not_decode(self):
        with pytest.raises(ValueError, match="3 fields, expected 4"):
            HOURLY_CODEC.decode("2017-04-12\tadsl\t131\n")

    def test_service_stats_declare_only_columns(self):
        cell = DailyServiceStats(DAY, "Netflix", 3, 9, 100, 120, 90, Technology.FTTH)
        line = SERVICE_STATS_CODEC.encode(cell)
        assert line == "2017-04-12\tNetflix\t3\t9\t100\t120\t90\tftth"
        assert SERVICE_STATS_CODEC.decode(line) == cell


#: A codec built inside a function has no module-level name to pickle by.
def _local_codec():
    return ColumnarCodec(
        columns=[ColumnSpec("day", "date"), ColumnSpec("bytes_down", "int")],
        record=lambda day, volume: (day, volume),
    )


class TestPickle:
    @pytest.mark.parametrize(
        "codec",
        [codec for codec, _ in STUDY_TABLES.values()] + [USAGE_CODEC, SUBSCRIBER_DAY_CODEC],
    )
    def test_codec_pickles_by_reference(self, codec):
        assert pickle.loads(pickle.dumps(codec)) is codec

    def test_a_codec_without_a_global_name_does_not_pickle(self):
        with pytest.raises(pickle.PicklingError):
            pickle.dumps(_local_codec())

    @pytest.mark.parametrize("table", ["usage", "protocols", "hourly", "subscriber_days"])
    def test_batch_pickle_holds_no_per_row_object(self, generator, table):
        traffic = generator.generate_day(DAY)
        batch = {
            "usage": lambda: traffic.usage,
            "protocols": lambda: traffic.protocols,
            "hourly": lambda: generator.generate_hourly(DAY, traffic),
            "subscriber_days": lambda: subscriber_days(traffic.usage),
        }[table]()
        assert isinstance(batch, ColumnBatch) and len(batch) > 20

        def opcodes(rows):
            blob = pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
            return sum(1 for _ in pickletools.genops(blob)), blob

        few, _ = opcodes(batch.take(slice(0, 5)))
        every, blob = opcodes(batch)
        assert every == few  # the same objects, only longer buffers
        restored = pickle.loads(blob)
        assert restored.codec is batch.codec and restored == batch


class TestSpawnWorker:
    def test_day_arrives_as_tables_and_digests_like_serial(self):
        import multiprocessing

        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn unavailable on this platform")
        config = StudyConfig(
            world=WorldConfig(
                seed=17, adsl_count=12, ftth_count=6, start=D(2014, 4, 8), end=D(2014, 4, 10)
            ),
            day_stride=1,
            flow_days_per_month=1,
            rtt_days_per_comparison_month=1,
        )
        study = LongitudinalStudy(config)
        plan = study.planned_days()
        day = min(plan)
        roles = plan[day]
        assert "hourly" in roles
        (whole,) = plan_shards(len(study.world.population), 1)
        pool = SupervisedPool(1, runner=_run_chunk, start_method="spawn")
        try:
            pool.submit(DayTask(0, day, tuple(sorted(roles)), 0, config, whole))
            event = None
            while event is None or event[0] != EVENT_DONE:
                event = pool.next_event(timeout=60.0)
                assert event is not None, "the spawned worker never answered"
            pool.stop(graceful=True)
        finally:
            pool.stop(graceful=False)
        outcome = event[2]
        assert isinstance(outcome, DaySuccess), outcome
        shipped = outcome.partial.unpack()
        for name in STUDY_TABLES:
            assert isinstance(getattr(shipped, name), ColumnBatch), name
            assert len(getattr(shipped, name)) > 0, name
        assert study_digest(shipped) == study_digest(study.day_partial(day, roles))


class TestFigureGolden:
    @pytest.mark.parametrize("seed", (17, 7))
    def test_rendered_figures_are_unchanged(self, seed):
        rendered, unrendered = render_figures(LongitudinalStudy(small_study(seed)).run())
        blob = json.dumps(
            {"rendered": rendered, "unrendered": unrendered},
            sort_keys=True,
            separators=(",", ":"),
        )
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        assert digest == FIGURE_GOLDEN[f"small_study:{seed}"]


# ----------------------------------------------------------------------
# The row loops the stage-2 readers ran before they read columns: each
# reader must return exactly (==) what its loop returns over the records.


def oracle_monthly_profile(volumes, technology, year, month):
    sums, days = [0.0] * BINS_PER_DAY, set()
    for volume in volumes:
        if volume.technology is technology and (volume.day.year, volume.day.month) == (
            year,
            month,
        ):
            sums[volume.bin_index] += volume.bytes_down
            days.add(volume.day)
    return tuple(total / len(days) for total in sums)


def oracle_monthly_shares(rows, months):
    totals = {}
    for row in rows:
        if row.protocol.is_web:
            bucket = totals.setdefault((row.day.year, row.day.month), {})
            bucket[row.protocol] = bucket.get(row.protocol, 0) + row.total_bytes
    shares = []
    for month in months:
        bucket = totals.get(month, {})
        total = sum(bucket.values())
        shares.append((month, [(label, volume / total) for label, volume in bucket.items()]))
    return shares


def oracle_popularity(stats, service, months):
    return monthly_mean(
        [(cell.day, 100.0 * cell.popularity) for cell in stats if cell.service == service],
        months,
    )


def oracle_byte_share(stats, service, months):
    totals = {}
    for cell in stats:
        totals[cell.day] = totals.get(cell.day, 0) + cell.bytes_down
    return monthly_mean(
        [
            (cell.day, 100.0 * cell.bytes_down / totals[cell.day])
            for cell in stats
            if cell.service == service and totals[cell.day] > 0
        ],
        months,
    )


def oracle_stats_for(stats, service):
    by_day = {}
    for cell in stats:
        if cell.service == service:
            by_day.setdefault(cell.day, []).append(cell)
    return [
        DailyServiceStats(
            day,
            service,
            *(sum(getattr(cell, name) for cell in cells) for name in SUMMED),
            technology=cells[0].technology if len(cells) == 1 else None,
        )
        for day, cells in sorted(by_day.items())
    ]


SUMMED = ("visitors", "active_subscribers", "bytes_down", "bytes_total", "visitor_bytes")


def oracle_fig2_samples(subscriber_days, month=4):
    samples = {key: [] for key in fig02_ccdf.CURVE_KEYS}
    for day, rows in subscriber_days.items():
        if day.month != month or day.year not in (2014, 2017):
            continue
        for entry in rows:
            if not entry.active:
                continue
            samples[(day.year, entry.technology, "down")].append(float(entry.bytes_down))
            samples[(day.year, entry.technology, "up")].append(float(entry.bytes_up))
    return samples


def oracle_mean_daily_traffic(days, months, technology, direction, active_only):
    by_day = {}
    for entry in days:
        if entry.technology is not technology:
            continue
        if active_only and not entry.active:
            continue
        value = entry.bytes_down if direction == "down" else entry.bytes_up
        by_day.setdefault(entry.day, []).append(value)
    return monthly_mean(
        [(day, sum(values) / len(values)) for day, values in by_day.items() if values], months
    )


class TestReadersMatchRowLoops:
    def test_monthly_profile(self, study_data):
        rows = list(study_data.hourly)
        for technology in Technology:
            for year in (2014, 2017):
                profile = monthly_profile(study_data.hourly, technology, year, 4)
                assert profile.bins == oracle_monthly_profile(rows, technology, year, 4)

    def test_monthly_protocol_shares(self, study_data):
        shares = monthly_protocol_shares(study_data.protocol_rows, study_data.months)
        expected = oracle_monthly_shares(list(study_data.protocol_rows), study_data.months)
        assert [(entry.period, list(entry.shares.items())) for entry in shares] == expected

    def test_popularity_and_byte_share_series(self, study_data):
        stats = list(study_data.service_stats)
        adsl = [cell for cell in stats if cell.technology is Technology.ADSL]
        table = study_data.service_stats
        adsl_table = table.take(table.equals("technology", "adsl"))
        for service in catalog.FIGURE5_SERVICES:
            months = study_data.months
            assert popularity_series(table, service, months) == oracle_popularity(
                stats, service, months
            )
            assert byte_share_series(adsl_table, service, months) == oracle_byte_share(
                adsl, service, months
            )

    def test_fig2_distributions(self, study_data):
        samples = oracle_fig2_samples(study_data.subscriber_days)
        assert all(samples.values())
        assert fig02_ccdf.compute(study_data).distributions == {
            key: EmpiricalDistribution.from_samples(values) for key, values in samples.items()
        }

    def test_mean_daily_traffic_per_subscriber(self, study_data):
        table = study_data.all_subscriber_days()
        rows = list(table)
        # unsorted, so the days' first-appearance order is not day order
        shuffled = rows[len(rows) // 2 :] + rows[: len(rows) // 2]
        months = study_data.months
        for technology in Technology:
            for direction in ("down", "up"):
                for active_only in (True, False):
                    args = (technology, direction, active_only)
                    expected = oracle_mean_daily_traffic(rows, months, *args)
                    assert expected.defined()
                    assert mean_daily_traffic_per_subscriber(table, months, *args) == expected
                    assert mean_daily_traffic_per_subscriber(
                        shuffled, months, *args
                    ) == oracle_mean_daily_traffic(shuffled, months, *args)

    def test_stats_for(self, study_data):
        stats = list(study_data.service_stats)
        for service in (catalog.FACEBOOK, catalog.WHATSAPP, catalog.NETFLIX):
            assert study_data.stats_for(service) == oracle_stats_for(stats, service)
            for technology in Technology:
                assert study_data.stats_for(service, technology) == [
                    cell
                    for cell in stats
                    if cell.service == service and cell.technology is technology
                ]

"""Fig. 10-11's flow-day facts as declared tables: ``servers`` and ``rtt``.

``StudyData.servers`` holds each address a tracked service used on a flow
day, dedicated or shared; ``StudyData.rtt`` each RTT day's per-flow
minimum RTTs in flow order.  They replace four fields — the server
``census``, the per-day ``daily_ip_sets`` and ``daily_ip_roles``, and the
``rtt_samples`` lists — which Fig. 10 and Fig. 11 now derive.  The study
digest moved with the representation, so these tests prove the re-pin:
the four fields rebuilt from the tables, in the old field order, digest
to each config's ``pre_table_digest``, the value committed before.  They
also pin what the tables must hold: a missing row is another study, a
checkpoint of the old layout is recomputed, and a flow day on which a
service used no address is still a census cell and a raster column.

The digest moved once more when stage-1 stopped storing what it can
recompute: the weekly active sets (``weekly_active``) are read off the
subscriber days, and the per-day domain shares (``domains``) divide the
``domain_bytes`` table.  Both fields rebuilt, in the field order of
before, digest to each config's ``pre_derived_digest``; composed with
the flow-day rebuild they still digest to ``pre_table_digest``.
"""

import dataclasses
import hashlib
import json
import pickle
import pickletools
from pathlib import Path

import numpy as np
import pytest

from repro.analytics.infrastructure import DailyServerStats, IpRaster, shares_from_totals
from repro.core.config import COMPARISON_MONTHS, config_hash, small_study
from repro.core.parallel import ColumnarPartial, execute_study
from repro.core.study import INFRA_SERVICES, RTT_SERVICES, STUDY_TABLES, LongitudinalStudy
from repro.dataflow import datalake
from repro.dataflow.columnar import ColumnBatch
from repro.dataflow.datalake import CheckpointError, CheckpointStore
from repro.figures import fig11_infrastructure
from repro.service.results import canonical_json, study_digest
from tests.test_core_shards import fixture_config, multiblock_config, tiny_config

GOLDEN = json.loads((Path(__file__).parent / "golden" / "study_digests.json").read_text())

#: ``StudyData``'s fields, in order, before the flow-day facts were tables.
PRE_TABLE_FIELDS = (
    "months",
    "subscriber_days",
    "service_stats",
    "protocol_rows",
    "hourly",
    "census",
    "asn",
    "domains",
    "daily_ip_sets",
    "daily_ip_roles",
    "rtt_samples",
    "flow_days",
    "weekly_visitors",
    "weekly_active",
)

#: ``StudyData``'s fields, in order, before the weekly active sets and the
#: domain shares were derived at stage 2.
PRE_DERIVED_FIELDS = (
    "months",
    "subscriber_days",
    "service_stats",
    "protocol_rows",
    "hourly",
    "servers",
    "asn",
    "domains",
    "rtt",
    "flow_days",
    "weekly_visitors",
    "weekly_active",
)

CONFIGS = {
    "checkpoint_fixture:17": fixture_config,
    "multiblock:17": multiblock_config,
    **{f"tiny_config:{seed}": (lambda seed=seed: tiny_config(seed)) for seed in (7, 17, 23)},
    **{f"small_study:{seed}": (lambda seed=seed: small_study(seed)) for seed in (7, 17, 23)},
}


def weekly_active(data):
    """(ISO year, ISO week, technology) → the subscribers active on a
    comparison-month day of that week, read off the subscriber days: the
    field stage-1 stored before ``weekly_reach`` derived it."""
    weeks = {}
    for day in sorted(data.subscriber_days):
        if (day.year, day.month) in COMPARISON_MONTHS:
            for row in data.subscriber_days[day]:
                if row.active:
                    key = (*tuple(day.isocalendar())[:2], row.technology)
                    weeks.setdefault(key, set()).add(row.subscriber_id)
    return weeks


def pre_derived_fields(data):
    """The two fields stage 2 now derives, rebuilt as stage-1 stored them:
    per flow day and tracked service the domain shares (empty when the
    service carried no named bytes), and per (ISO week, technology) of the
    comparison months the subscribers active on a day of that week."""
    totals = {}
    for row in data.domain_bytes:
        totals.setdefault((row.day, row.service), {})[row.sld] = row.bytes
    return {
        "domains": [
            (day, service, shares_from_totals(totals.get((day, service), {})))
            for day in data.flow_days
            for service in INFRA_SERVICES
        ],
        "weekly_active": weekly_active(data),
    }


def layout_digest(fields, rebuilt, data):
    """The study digest of ``data`` in a layout of ``fields``, those in
    ``rebuilt`` taken from it."""
    layout = dataclasses.make_dataclass("StudyData", fields)
    old = layout(
        **{name: rebuilt[name] if name in rebuilt else getattr(data, name) for name in fields}
    )
    return hashlib.sha256(canonical_json(old).encode("utf-8")).hexdigest()


def pre_derived_digest(data):
    """The study digest of ``data`` in the layout before the derived fields."""
    return layout_digest(PRE_DERIVED_FIELDS, pre_derived_fields(data), data)


def pre_table_fields(data, config):
    """The four fields the tables replaced, rebuilt from the tables as the
    stage-1 of before built them: per flow day and tracked service a census
    cell, an address set and an (address → shared?) map, each service's
    entries in day order; per (service, year) the RTT samples in flow
    order, a key for every RTT-tracked service on every RTT flow day."""
    addresses = {}
    for row in data.servers:
        addresses.setdefault((row.day, row.service), {})[row.ip] = row.shared
    census, ip_sets, ip_roles = [], {}, {}
    for day in data.flow_days:
        for service in INFRA_SERVICES:
            roles = addresses.get((day, service), {})
            shared = sum(roles.values())
            census.append(DailyServerStats(day, service, len(roles) - shared, shared))
            ip_sets.setdefault(service, []).append((day, set(roles)))
            ip_roles.setdefault(service, []).append((day, roles))
    plan = LongitudinalStudy(config).planned_days()
    rtt_samples = {
        (service, day.year): []
        for day in data.flow_days
        if "rtt" in plan[day]
        for service in RTT_SERVICES
    }
    for row in data.rtt:
        rtt_samples[(row.service, row.year)].append(row.ms)
    return {
        "census": census,
        "daily_ip_sets": ip_sets,
        "daily_ip_roles": ip_roles,
        "rtt_samples": rtt_samples,
    }


def pre_table_digest(data, config):
    """The study digest of ``data`` in the layout before the tables."""
    rebuilt = {**pre_derived_fields(data), **pre_table_fields(data, config)}
    return layout_digest(PRE_TABLE_FIELDS, rebuilt, data)


def names_record(blob, *names):
    """Whether a pickle refers to any of the classes ``names``."""
    return any(
        isinstance(arg, str) and any(name in arg for name in names)
        for _, arg, _ in pickletools.genops(blob)
    )


@pytest.fixture(scope="module")
def fixture_study():
    return LongitudinalStudy(fixture_config()).run()


class TestTheRePinIsProvable:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_the_tables_rebuild_the_old_fields_and_their_digest(self, name):
        config = CONFIGS[name]()
        golden = GOLDEN[name]
        assert config_hash(config) == golden["config_hash"]
        data = LongitudinalStudy(config).run()
        assert study_digest(data) == golden["study_digest"]
        assert pre_derived_digest(data) == golden["pre_derived_digest"]
        assert pre_table_digest(data, config) == golden["pre_table_digest"]

    def test_the_rebuild_sees_a_table_row(self, fixture_study):
        config, pinned = fixture_config(), GOLDEN["checkpoint_fixture:17"]
        for name in ("servers", "domain_bytes", "rtt"):
            perturbed = dataclasses.replace(fixture_study)
            setattr(perturbed, name, getattr(fixture_study, name).take(slice(1, None)))
            assert pre_table_digest(perturbed, config) != pinned["pre_table_digest"], name
            assert pre_derived_digest(perturbed) != pinned["pre_derived_digest"], name

    def test_the_rebuild_sees_a_flipped_active_cell(self):
        """A subscriber active on one comparison-month day of its week only:
        clearing that cell drops it from the rebuilt week's set."""
        data = LongitudinalStudy(tiny_config(17)).run()
        weeks = weekly_active(data)
        active_days = {}
        for day in sorted(data.subscriber_days):
            if (day.year, day.month) not in COMPARISON_MONTHS:
                continue
            rows = data.subscriber_days[day]
            for index in np.flatnonzero(rows.columns["active"]).tolist():
                key = (tuple(day.isocalendar())[:2], int(rows.columns["subscriber_id"][index]))
                active_days.setdefault(key, []).append((day, index))
        (day, index), (week, subscriber) = next(
            (cells[0], key) for key, cells in active_days.items() if len(cells) == 1
        )
        rows = data.subscriber_days[day]
        flipped = rows.columns["active"].copy()
        flipped[index] = False
        columns = {**rows.columns, "active": flipped}
        perturbed = dataclasses.replace(
            data,
            subscriber_days={
                **data.subscriber_days,
                day: ColumnBatch(rows.codec, columns, rows.dictionaries),
            },
        )
        rebuilt = pre_derived_fields(perturbed)["weekly_active"]
        (key,) = [key for key in weeks if key[:2] == week and subscriber in weeks[key]]
        assert rebuilt[key] == weeks[key] - {subscriber}
        assert pre_derived_digest(perturbed) != GOLDEN["tiny_config:17"]["pre_derived_digest"]


class TestAMissingRowIsAnotherStudy:
    @pytest.mark.parametrize("name", ["servers", "rtt"])
    def test_dropping_a_row_breaks_equality_and_moves_the_digest(self, fixture_study, name):
        data = dataclasses.replace(fixture_study)
        assert data == fixture_study
        table = getattr(data, name)
        assert len(table) > 1
        setattr(data, name, table.take(slice(1, None)))
        assert data != fixture_study
        assert study_digest(data) != study_digest(fixture_study)


class TestWhatCrossesThePipe:
    def test_a_day_partial_is_its_tables(self):
        study = LongitudinalStudy(fixture_config())
        plan = study.planned_days()
        day = min(day for day, roles in plan.items() if "rtt" in roles)
        data = study.day_partial(day, plan[day])
        assert len(data.servers) and len(data.rtt)
        partial = ColumnarPartial.pack(data)
        blob = pickle.dumps(partial, protocol=pickle.HIGHEST_PROTOCOL)
        assert not names_record(blob, "DailyServerStats", "ServerAddress", "RttSample")
        assert pickle.loads(blob).unpack() == data
        assert partial.approx_nbytes() == sum(
            array.nbytes
            for table in [
                *(getattr(data, name) for name in STUDY_TABLES),
                *data.subscriber_days.values(),
            ]
            for array in table.columns.values()
        )


class TestCheckpoints:
    def test_a_version_4_record_is_recomputed(self, tmp_path, monkeypatch):
        """A record of the layout before the flow-day tables — version 4 —
        is a CheckpointError on load: resume recomputes that day and lands
        on a fresh run's data."""
        self.assert_recomputed(tmp_path, monkeypatch, 4)

    def test_a_version_5_record_is_recomputed(self, tmp_path, monkeypatch):
        """So is one of the layout with stored weekly active sets, domain
        shares and sidecar counts — version 5."""
        self.assert_recomputed(tmp_path, monkeypatch, 5)

    @staticmethod
    def assert_recomputed(tmp_path, monkeypatch, version):
        config = fixture_config()
        fresh = execute_study(config, workers=1).data
        execute_study(config, workers=1, checkpoint_root=tmp_path)
        store = CheckpointStore(tmp_path, config_hash(config))
        day = fresh.flow_days[0]
        partial = store.load(day)
        with monkeypatch.context() as patch:
            patch.setattr(datalake, "CHECKPOINT_VERSION", version)
            store.save(day, partial)
        with pytest.raises(CheckpointError, match=f"version {version}"):
            store.load(day)

        resumed = execute_study(config, workers=1, checkpoint_root=tmp_path, resume=True)
        report = resumed.report
        assert report.checkpoint_hits == report.planned_tasks - 1
        assert [r.day for r in report.records if r.source != "checkpoint"] == [day]
        assert resumed.data == fresh
        assert study_digest(resumed.data) == GOLDEN["checkpoint_fixture:17"]["study_digest"]
        rewritten = store.load(day).data.servers
        assert len(rewritten) and rewritten == fresh.servers.take(
            fresh.servers.columns["day"] == day.toordinal()
        )


class TestFig11FromServers:
    def test_a_flow_day_without_addresses_is_a_cell_and_a_column(self, fixture_study):
        """A tracked service with no address on a flow day has no ``servers``
        row, but Fig. 11 still counts it 0/0 and draws its raster column
        empty."""
        used = {(row.day, row.service) for row in fixture_study.servers}
        empty = [
            (day, service)
            for day in fixture_study.flow_days
            for service in INFRA_SERVICES
            if (day, service) not in used
        ]
        assert len(empty) == 1
        ((day, service),) = empty
        panel = fig11_infrastructure.compute(fixture_study).panels[service]
        assert [cell.day for cell in panel.census] == fixture_study.flow_days
        cell = next(cell for cell in panel.census if cell.day == day)
        assert (cell.dedicated_ips, cell.shared_ips) == (0, 0)
        raster = panel.raster
        assert raster is not None and raster.days == tuple(fixture_study.flow_days)
        column = raster.days.index(day)
        assert all(row[column] == IpRaster.ABSENT for row in raster.cells)

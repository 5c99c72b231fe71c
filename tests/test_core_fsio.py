"""Filesystem fault injection and torn-write recovery (DESIGN.md §17).

Every persistence surface routes its atomic writes through
:mod:`repro.core.fsio`; these tests drive the three fault modes directly
and then prove the recovery contracts the chaos conductor relies on:
crash-mid-``os.replace`` litter is swept and reported, torn targets are
rejected by CRC/manifest checks, and a checkpoint-write failure after a
completed day degrades telemetry — never the run.
"""

import ast
import datetime
import errno
import os
from pathlib import Path

import pytest

from repro.chaos.fsfaults import FaultGateRecorder, FsFaultSpec, injected
from repro.core import fsio
from repro.dataflow.datalake import (
    FLOW_CODEC,
    CheckpointError,
    CheckpointStore,
    DataLake,
)
from repro.dataflow.integrity import LakeIntegrity, fsck_lake, quarantine_tree
from repro.tstat.flow import FlowRecord, NameSource, Transport, WebProtocol

DAY = datetime.date(2015, 3, 14)


def record(j=0):
    return FlowRecord(
        client_id=100 + j,
        server_ip=0x08080808 + j,
        client_port=40_000 + j,
        server_port=443,
        transport=Transport.TCP,
        ts_start=1.0,
        ts_end=2.0,
        protocol=WebProtocol.TLS,
        server_name="x.example",
        name_source=NameSource.SNI,
    )


class TestOneWritePath:
    def test_only_fsio_renames_files_into_place(self):
        """Every artifact that is published by rename goes through
        ``fsio.write_and_replace`` — the one place the chaos gate can
        fault — so no other module may stage and rename on its own."""
        root = Path(fsio.__file__).resolve().parents[1]
        offenders = []
        for path in sorted(root.rglob("*.py")):
            if path == Path(fsio.__file__).resolve():
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                renames = (
                    isinstance(callee, ast.Attribute)
                    and callee.attr in ("replace", "rename")
                    and getattr(callee.value, "id", "") == "os"
                )
                name = getattr(callee, "attr", getattr(callee, "id", ""))
                if renames or name == "NamedTemporaryFile":
                    offenders.append(f"{path.relative_to(root)}:{node.lineno}")
        assert offenders == []


class TestWriteAndReplace:
    def test_clean_write_is_atomic_and_complete(self, tmp_path):
        target = tmp_path / "out.bin"
        fsio.write_and_replace(target, b"payload", surface=fsio.SURFACE_LAKE)
        assert target.read_bytes() == b"payload"
        assert list(tmp_path.iterdir()) == [target]

    def test_enospc_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        spec = FsFaultSpec(fsio.SURFACE_LAKE, fsio.MODE_ENOSPC, 0)
        with injected((spec,)):
            with pytest.raises(OSError) as excinfo:
                fsio.write_and_replace(
                    target, b"new", surface=fsio.SURFACE_LAKE
                )
        assert excinfo.value.errno == errno.ENOSPC
        assert target.read_bytes() == b"old"
        assert fsio.stale_staging_files(tmp_path) == []

    def test_torn_tmp_leaves_dead_writer_litter(self, tmp_path):
        target = tmp_path / "out.bin"
        spec = FsFaultSpec(fsio.SURFACE_LAKE, fsio.MODE_TORN_TMP, 0)
        with injected((spec,)):
            with pytest.raises(OSError):
                fsio.write_and_replace(
                    target, b"full payload", surface=fsio.SURFACE_LAKE
                )
        assert not target.exists()
        litter = fsio.stale_staging_files(tmp_path)
        assert len(litter) == 1
        assert litter[0].read_bytes() == b"full p"[: len(b"full payload") // 2]

    def test_torn_target_installs_truncated_payload(self, tmp_path):
        target = tmp_path / "out.bin"
        spec = FsFaultSpec(fsio.SURFACE_LAKE, fsio.MODE_TORN_TARGET, 0)
        with injected((spec,)):
            fsio.write_and_replace(
                target, b"full payload", surface=fsio.SURFACE_LAKE
            )
        assert target.exists()
        assert target.read_bytes() == b"full payload"[: 6]
        assert fsio.stale_staging_files(tmp_path) == []

    def test_sweep_spares_live_writers(self, tmp_path):
        live = tmp_path / f".out.bin.{os.getpid()}.tmp"
        dead = tmp_path / f".out.bin.{fsio.DEAD_WRITER_PID}.tmp"
        live.write_bytes(b"half")
        dead.write_bytes(b"half")
        swept = fsio.sweep_staging_files(tmp_path)
        assert swept == [dead]
        assert live.exists() and not dead.exists()

    def test_gate_is_surface_scoped(self, tmp_path):
        spec = FsFaultSpec(fsio.SURFACE_CHECKPOINT, fsio.MODE_ENOSPC, 0)
        with injected((spec,)):
            # A lake write sails through a checkpoint-only fault plan.
            fsio.write_and_replace(
                tmp_path / "ok.bin", b"x", surface=fsio.SURFACE_LAKE
            )

    def test_gate_ordinals_count_per_surface(self, tmp_path):
        gate = FaultGateRecorder(
            (FsFaultSpec(fsio.SURFACE_LAKE, fsio.MODE_ENOSPC, 1),)
        )
        previous = fsio.install_gate(gate)
        try:
            fsio.write_and_replace(
                tmp_path / "a", b"x", surface=fsio.SURFACE_LAKE
            )
            with pytest.raises(OSError):
                fsio.write_and_replace(
                    tmp_path / "b", b"x", surface=fsio.SURFACE_LAKE
                )
        finally:
            fsio.install_gate(previous)
        assert gate.writes_seen(fsio.SURFACE_LAKE) == 2
        assert [f["ordinal"] for f in gate.fired] == [1]

    def test_duplicate_ordinal_rejected(self):
        with pytest.raises(ValueError):
            FaultGateRecorder(
                (
                    FsFaultSpec(fsio.SURFACE_LAKE, fsio.MODE_ENOSPC, 0),
                    FsFaultSpec(fsio.SURFACE_LAKE, fsio.MODE_TORN_TMP, 0),
                )
            )


class TestCheckpointTornWriteRecovery:
    """Crash-mid-``os.replace`` states a resume must climb out of."""

    def test_tmp_present_target_absent_resume_recomputes(self, tmp_path):
        # The writer died after staging, before rename: tmp present,
        # target absent.  A fresh store sweeps the litter and reports
        # the day as missing (recompute), never loads half a file.
        spec = FsFaultSpec(fsio.SURFACE_CHECKPOINT, fsio.MODE_TORN_TMP, 0)
        store = CheckpointStore(tmp_path, "cafebabe")
        with injected((spec,)):
            with pytest.raises(OSError):
                store.save(DAY, {"rows": [1, 2, 3]})
        assert len(fsio.stale_staging_files(store.directory)) == 1
        reopened = CheckpointStore(tmp_path, "cafebabe")
        assert not reopened.has(DAY)
        assert fsio.stale_staging_files(reopened.directory) == []

    def test_half_written_target_rejected_by_crc(self, tmp_path):
        spec = FsFaultSpec(fsio.SURFACE_CHECKPOINT, fsio.MODE_TORN_TARGET, 0)
        store = CheckpointStore(tmp_path, "cafebabe")
        with injected((spec,)):
            store.save(DAY, {"rows": [1, 2, 3]})
        assert store.has(DAY)  # the file exists...
        with pytest.raises(CheckpointError):
            store.load(DAY)  # ...but never parses as a checkpoint
        # Recovery: overwrite with a clean save, load round-trips.
        store.save(DAY, {"rows": [1, 2, 3]})
        assert store.load(DAY) == {"rows": [1, 2, 3]}


class TestLakeTornWriteRecovery:
    def test_torn_lake_partition_caught_by_fsck_and_reads(self, tmp_path):
        lake = DataLake(tmp_path)
        spec = FsFaultSpec(fsio.SURFACE_LAKE, fsio.MODE_TORN_TARGET, 0)
        with injected((spec,)):
            lake.write_day("flows", DAY, [record(j) for j in range(8)],
                          FLOW_CODEC)
        report = fsck_lake(lake, decode=True, quarantine=False)
        assert not report.clean
        assert "torn" in report.kinds() or "checksum" in report.kinds()
        integrity = LakeIntegrity(policy="quarantine", verify_checksums=True)
        rows = lake.read_day("flows", DAY, FLOW_CODEC, integrity).collect()
        assert rows == []  # quarantined wholesale, not partially decoded
        assert integrity.ledger.report_for(DAY).failed_partitions == 1
        # The quarantine tree goes through the same gate: a refused write
        # is the OSError a full disk would raise, and a retry lands whole.
        guarded = LakeIntegrity.for_lake_root(lake.root, policy="quarantine")
        refusal = FsFaultSpec(fsio.SURFACE_QUARANTINE, fsio.MODE_ENOSPC, 0)
        with injected((refusal,)) as gate:
            with pytest.raises(OSError):
                lake.read_day("flows", DAY, FLOW_CODEC, guarded).collect()
            lake.read_day("flows", DAY, FLOW_CODEC, guarded).collect()
        assert gate.writes_seen(fsio.SURFACE_QUARANTINE) == 2
        assert list(quarantine_tree(lake.root / "_quarantine")) == [
            f"flows/day={DAY.isoformat()}/part-0.partition"
        ]

    def test_interrupted_lake_write_leaves_no_partition(self, tmp_path):
        lake = DataLake(tmp_path)
        spec = FsFaultSpec(fsio.SURFACE_LAKE, fsio.MODE_TORN_TMP, 0)
        with injected((spec,)):
            with pytest.raises(OSError):
                lake.write_day("flows", DAY, [record()], FLOW_CODEC)
        assert not lake.has_day("flows", DAY)
        day_dir = lake.day_dir("flows", DAY)
        # fsck reports the dead writer's staging litter.
        report = fsck_lake(lake, decode=True, quarantine=False)
        kinds = {f.kind for f in report.findings}
        assert "litter" in kinds
        assert fsio.stale_staging_files(day_dir) != []

    def test_rewrite_after_torn_write_recovers(self, tmp_path):
        lake = DataLake(tmp_path)
        spec = FsFaultSpec(fsio.SURFACE_LAKE, fsio.MODE_TORN_TMP, 0)
        with injected((spec,)):
            with pytest.raises(OSError):
                lake.write_day("flows", DAY, [record()], FLOW_CODEC)
        lake.write_day("flows", DAY, [record()], FLOW_CODEC)
        rows = lake.read_day("flows", DAY, FLOW_CODEC).collect()
        assert rows == [record()]

"""Tests for the command-line interface."""


import pytest

from repro.cli import build_parser, main
from repro.nettypes.ip import ip_to_int
from repro.synthesis.packetgen import FlowSpec, PacketSynthesizer
from repro.tstat.flow import WebProtocol
from repro.tstat.probe import Probe, ProbeConfig


class TestClassify:
    def test_known_and_unknown(self, capsys):
        assert main(["classify", "fbcdn.com", "nope.example"]) == 0
        out = capsys.readouterr().out
        assert "fbcdn.com\tFacebook" in out
        assert "nope.example\t(unclassified)" in out

    def test_table1_regexp_row(self, capsys):
        main(["classify", "fbstatic-a.akamaihd.net"])
        assert "Facebook" in capsys.readouterr().out


class TestEvents:
    def test_lists_timeline(self, capsys):
        assert main(["events"]) == 0
        out = capsys.readouterr().out
        assert "2016-11-10" in out  # FB-Zero
        assert "2015-10-22" in out  # Netflix Italy


class TestProbeLog:
    def test_summarizes_log(self, tmp_path, capsys):
        client = ip_to_int("10.1.0.3")
        specs = [
            FlowSpec(client, ip_to_int("31.13.64.5"), 40001, 443,
                     WebProtocol.FBZERO, "scontent-mxp1-2.fbcdn.net",
                     rtt_ms=3.0, bytes_down=20_000),
            FlowSpec(client, ip_to_int("104.16.0.4"), 40002, 80,
                     WebProtocol.HTTP, "blog.example.org",
                     rtt_ms=30.0, bytes_down=10_000, start_ts=1.0),
        ]
        packets = PacketSynthesizer(seed=2).synthesize(specs)
        probe = Probe(ProbeConfig.for_pop("pop1", ["10.1.0.0/16"]))
        log_path = tmp_path / "log.tsv.gz"
        probe.run_to_log(packets, log_path)

        assert main(["probe-log", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "fb-zero" in out
        assert "Facebook" in out
        # the whole text, ties in first-appearance order over the flows
        assert out == (
            "2 flow records, 35640 bytes\n"
            "\n"
            "bytes by protocol:\n"
            "  fb-zero   64.4%\n"
            "  http      35.6%\n"
            "\n"
            "bytes by service:\n"
            "  Facebook        64.4%\n"
            "  Other           35.6%\n"
            "\n"
            "flows by name source:\n"
            "  zero   1\n"
            "  host   1\n"
            "\n"
            "min-RTT by service (TCP flows):\n"
            "  Facebook       median     3.0 ms over 1 flows\n"
        )

    def test_empty_log_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.tsv"
        path.write_text("#tstat-log v2\n")
        assert main(["probe-log", str(path)]) == 1


class TestStudyCommand:
    def test_unknown_figure_rejected(self, capsys):
        assert main(["study", "--figure", "99"]) == 2

    def test_table1_via_study(self, capsys):
        # table1 needs no study data pass beyond the (fast) run itself;
        # use a tiny scale through the small preset.
        code = main(["study", "--figure", "table1", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out


    def test_workers_zero_rejected(self, capsys):
        assert main(["study", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "--workers must be a positive integer" in err
        assert "got 0" in err

    def test_workers_negative_rejected(self, capsys):
        assert main(["study", "--workers", "-3"]) == 2


class TestRunCommand:
    RUN_SPAN = ["run", "--seed", "3", "--workers", "1",
                "--start", "2014-01-01", "--end", "2014-02-28"]

    def test_workers_zero_rejected(self, capsys):
        assert main(["run", "--workers", "0"]) == 2
        assert "--workers must be a positive integer" in capsys.readouterr().err

    def test_resume_requires_checkpoint_dir(self, capsys):
        assert main(["run", "--resume"]) == 2
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    def test_shards_zero_rejected(self, capsys):
        assert main(["run", "--shards", "0"]) == 2
        assert "--shards must be a positive integer" in capsys.readouterr().err

    def test_retries_negative_rejected(self, capsys):
        assert main(["run", "--retries", "-1"]) == 2
        assert "--retries must be >= 0" in capsys.readouterr().err

    def test_retries_zero_accepted(self, capsys):
        assert main(self.RUN_SPAN + ["--retries", "0"]) == 0
        assert "completed" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["0", "-1"])
    def test_spill_watermark_nonpositive_rejected(self, bad, capsys):
        assert main(["run", "--spill-watermark-bytes", bad]) == 2
        err = capsys.readouterr().err
        assert "--spill-watermark-bytes must be a positive integer" in err

    def test_run_prints_summary(self, capsys):
        assert main(self.RUN_SPAN) == 0
        out = capsys.readouterr().out
        assert "planned" in out and "completed" in out

    def test_run_report_and_resume(self, tmp_path, capsys):
        checkpoint = ["--checkpoint-dir", str(tmp_path)]
        assert main(self.RUN_SPAN + checkpoint) == 0
        capsys.readouterr()
        assert main(self.RUN_SPAN + checkpoint + ["--resume", "--report"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint" in out  # per-day rows name their source


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_study_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.figure == "all"
        assert args.scale == "small"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workers is None
        assert args.start_method == "auto"
        assert args.retries == 2
        assert not args.resume

    def test_serve_defaults(self, tmp_path):
        args = build_parser().parse_args(
            ["serve", "--state-dir", str(tmp_path)]
        )
        assert args.host == "127.0.0.1"
        assert args.max_active == 2
        assert args.run_workers == 1
        assert args.retries == 2

    def test_serve_requires_state_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])


class TestServeCommand:
    def test_max_active_zero_rejected(self, tmp_path, capsys):
        assert main(["serve", "--state-dir", str(tmp_path),
                     "--max-active", "0"]) == 2
        assert "--max-active must be a positive" in capsys.readouterr().err

    def test_run_workers_zero_rejected(self, tmp_path, capsys):
        assert main(["serve", "--state-dir", str(tmp_path),
                     "--run-workers", "0"]) == 2
        assert "--run-workers must be a positive" in capsys.readouterr().err

    def test_retries_negative_rejected(self, tmp_path, capsys):
        assert main(["serve", "--state-dir", str(tmp_path),
                     "--retries", "-2"]) == 2
        assert "--retries must be >= 0" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_lake(tmp_path_factory):
    """A tiny archived lake for the fsck/replay commands."""
    import datetime

    from repro.core.config import StudyConfig
    from repro.core.persistence import PersistingStudy
    from repro.dataflow.datalake import DataLake
    from repro.synthesis.world import WorldConfig

    root = tmp_path_factory.mktemp("cli-lake") / "lake"
    config = StudyConfig(
        world=WorldConfig(
            seed=5,
            adsl_count=20,
            ftth_count=10,
            start=datetime.date(2014, 2, 1),
            end=datetime.date(2014, 3, 31),
        ),
        day_stride=7,
        flow_days_per_month=1,
        rtt_days_per_comparison_month=1,
    )
    PersistingStudy(config, lake=DataLake(root)).run()
    return root


def corrupt_one_partition(lake_root):
    from repro.dataflow.datalake import DataLake
    from repro.dataflow.integrity import (
        CORRUPT_TRUNCATE,
        CorruptionPlan,
        CorruptionSpec,
    )

    lake = DataLake(lake_root)
    day = lake.days("usage")[0]
    CorruptionPlan.of(
        CorruptionSpec("usage", day, CORRUPT_TRUNCATE)
    ).apply(lake_root)
    return day


def drifted_copy(small_lake, scratch, write_format):
    """A copy of the lake plus one ``hourly`` partition, in either
    container, whose rows hold a value this build cannot decode."""
    import shutil

    from repro.dataflow.datalake import DataLake
    from tests.test_dataflow_integrity import write_drifted_hourly

    root = scratch / "lake"
    shutil.copytree(small_lake, root)
    day = DataLake(root).days("usage")[1]
    write_drifted_hourly(root, day, write_format)
    return root, day


class TestFsckCommand:
    def test_missing_lake(self, tmp_path, capsys):
        assert main(["fsck", str(tmp_path / "absent")]) == 2
        assert "no lake" in capsys.readouterr().err

    def test_clean_lake(self, small_lake, capsys):
        assert main(["fsck", str(small_lake)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_corrupt_lake_found(self, small_lake, tmp_path, capsys):
        import shutil

        root = tmp_path / "lake"
        shutil.copytree(small_lake, root)
        day = corrupt_one_partition(root)
        assert main(["fsck", str(root)]) == 1
        out = capsys.readouterr().out
        assert day.isoformat() in out
        assert "torn" in out

    def test_json_format(self, small_lake, capsys):
        import json

        assert main(["fsck", str(small_lake), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["partitions_scanned"] > 0


class TestReplayCommand:
    def test_missing_lake(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "absent")]) == 2

    def test_bad_threshold(self, small_lake, capsys):
        code = main(
            ["replay", str(small_lake), "--min-day-quality", "1.5"]
        )
        assert code == 2
        assert "min-day-quality" in capsys.readouterr().err

    def test_clean_replay(self, small_lake, capsys):
        assert main(["replay", str(small_lake)]) == 0
        out = capsys.readouterr().out
        assert "replayed" in out

    def test_strict_fails_on_corruption(self, small_lake, tmp_path, capsys):
        import shutil

        root = tmp_path / "lake"
        shutil.copytree(small_lake, root)
        corrupt_one_partition(root)
        assert main(["replay", str(root)]) == 1
        err = capsys.readouterr().err
        assert "usage" in err and "part-0" in err
        for write_format in ("v1", "v2"):  # rows this build cannot decode
            root, _ = drifted_copy(small_lake, tmp_path / write_format, write_format)
            assert main(["replay", str(root), "--bad-records", "strict"]) == 1
            err = capsys.readouterr().err
            assert "hourly" in err and "part-0" in err and "DOCSIS" in err
            assert main(["fsck", str(root)]) == 1
            assert "[record]" in capsys.readouterr().out

    def test_quarantine_completes_and_reports(
        self, small_lake, tmp_path, capsys
    ):
        import json
        import shutil

        root = tmp_path / "lake"
        shutil.copytree(small_lake, root)
        day = corrupt_one_partition(root)
        code = main(
            ["replay", str(root), "--bad-records", "quarantine", "--report"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "excluded 1 degraded day(s)" in out
        assert day.isoformat() in out
        manifest = json.loads(out[out.index("{"):])
        quality = {q["day"]: q for q in manifest["data_quality"]}
        assert quality[day.isoformat()]["quality"] < 1.0
        for write_format in ("v1", "v2"):  # rows this build cannot decode
            root, day = drifted_copy(small_lake, tmp_path / write_format, write_format)
            assert main(["replay", str(root), "--bad-records", "quarantine"]) == 0
            out = capsys.readouterr().out
            assert "excluded 1 degraded day(s): " + day.isoformat() in out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["replay", "some-lake"])
        assert args.bad_records == "strict"
        assert args.min_day_quality == 0.999
        fsck_args = build_parser().parse_args(["fsck", "some-lake"])
        assert fsck_args.format == "text"
        assert not fsck_args.quarantine

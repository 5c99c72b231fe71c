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


class TestRunCommand:
    RUN_SPAN = ["run", "--seed", "3", "--workers", "1",
                "--start", "2014-01-01", "--end", "2014-02-28"]

    def test_workers_zero_rejected(self, capsys):
        assert main(["run", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "--workers must be a positive integer" in err
        assert "got 0" in err

    def test_workers_negative_rejected(self, capsys):
        assert main(["run", "--workers", "-3"]) == 2

    def test_figure_run_workers_zero_rejected(self, capsys):
        # the worker count is checked before any figure is planned
        assert main(["run", "--figure", "all", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "--workers must be a positive integer" in err
        assert "got 0" in err

    def test_unknown_figure_rejected(self, capsys):
        assert main(["run", "--figure", "99"]) == 2
        assert "unknown figure '99'" in capsys.readouterr().err

    def test_table1_without_a_study(self, monkeypatch, capsys):
        from repro.core import parallel

        def no_study(*args, **kwargs):
            raise AssertionError("--figure table1 planned a study")

        monkeypatch.setattr(parallel, "execute_study", no_study)
        assert main(["run", "--figure", "table1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "planned" not in out

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

    def test_run_lake_archives_v2_and_counts_days_from_the_listing(
        self, tmp_path, capsys
    ):
        from repro.core.persistence import replay_study
        from repro.dataflow.datalake import DataLake

        root = tmp_path / "lake"
        assert main(self.RUN_SPAN + ["--shards", "2", "--lake", str(root)]) == 0
        lake = DataLake(root)
        counts = ", ".join(f"{t}={len(lake.days(t))}" for t in lake.tables())
        assert f"archived into {root} (day counts): {counts}" in capsys.readouterr().out
        files = [path for path in root.rglob("*") if path.is_file()]
        assert files and all(".colchunk" in path.name for path in files)
        assert replay_study(lake, []).subscriber_days

    def test_run_lake_refuses_a_day_of_another_container(self, tmp_path, capsys):
        from repro.core.persistence import USAGE_TABLE
        from repro.dataflow.datalake import DataLake
        from repro.synthesis.flowgen import USAGE_CODEC

        root = tmp_path / "lake"
        assert main(self.RUN_SPAN + ["--lake", str(root)]) == 0
        lake = DataLake(root)  # writes v1 beside the v2 partition
        day = lake.days(USAGE_TABLE)[0]
        rows = lake.read_day(USAGE_TABLE, day, USAGE_CODEC).collect()
        lake.write_day(USAGE_TABLE, day, rows, USAGE_CODEC)
        capsys.readouterr()
        assert main(self.RUN_SPAN + ["--lake", str(root)]) == 2
        err = capsys.readouterr().err
        assert day.isoformat() in err and "part-0.tsv.gz" in err


BAD_SPANS = [
    pytest.param({"start": "2015-03-01", "end": "2014-01-01"}, id="reversed"),
    pytest.param({"start": "2014-01-01", "end": "2014-01-01"}, id="empty"),
    pytest.param({"start": "2018-01-01"}, id="start-after-default-end"),
    pytest.param({"end": "2013-01-01"}, id="end-before-default-start"),
    pytest.param({"start": "2015-3-1"}, id="not-iso"),
]


class TestOneFrontDoor:
    """The {CLI, service} cell: ``repro run`` and ``POST /v1/studies`` build
    a study from one request model and render from one figure catalogue."""

    SPAN = {"start": "2014-01-01", "end": "2014-02-28"}

    @staticmethod
    def argv(payload):
        argv = ["run", "--workers", "1"]
        for key, value in payload.items():
            argv += [f"--{key}", str(value)]
        return argv

    @pytest.mark.parametrize("scale", ["small", "medium"])
    @pytest.mark.parametrize(
        "span",
        [{}, {"start": "2017-10-01"}, SPAN],
        ids=["no-dates", "start-only", "both-dates"],
    )
    def test_checkpoints_land_under_the_service_run_id(
        self, scale, span, tmp_path, monkeypatch
    ):
        from repro.core import parallel
        from repro.service import configs

        execute_study = parallel.execute_study

        def cancelled(config, **kwargs):
            # plans the run, opens its checkpoint store and writes the
            # manifest, but starts no task
            token = parallel.CancelToken()
            token.set()
            return execute_study(config, cancel=token, **kwargs)

        monkeypatch.setattr(parallel, "execute_study", cancelled)
        payload = {"scale": scale, "seed": 3, **span}
        with pytest.raises(parallel.RunCancelled):
            main(self.argv(payload) + ["--checkpoint-dir", str(tmp_path)])
        run_id = configs.run_id_for(configs.build_config(payload)[0])
        assert [path.name for path in tmp_path.iterdir()] == [f"config={run_id}"]
        assert (tmp_path / f"config={run_id}" / "manifest.json").is_file()

    def test_a_full_run_checkpoints_under_the_service_run_id(self, tmp_path, capsys):
        from repro.service import configs

        payload = {"seed": 3, **self.SPAN}
        assert main(self.argv(payload) + ["--checkpoint-dir", str(tmp_path)]) == 0
        run_id = configs.run_id_for(configs.build_config(payload)[0])
        assert capsys.readouterr().out.startswith(f"run {run_id} ")
        assert list((tmp_path / f"config={run_id}").glob("day=*.ckpt"))

    @pytest.mark.parametrize("span", BAD_SPANS)
    def test_bad_spans_are_refused_with_the_service_message(self, span, capsys):
        from repro.service import configs
        from repro.service.errors import BadRequestError

        with pytest.raises(BadRequestError) as refused:
            configs.build_config(span)
        assert main(self.argv(span)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro run: {refused.value}\n"
        assert "Traceback" not in captured.err and not captured.out

    def test_figure_names_are_the_served_ones(self, tmp_path, capsys):
        from repro.figures import FIGURES
        from repro.service import ClientError, ServerThread, ServiceClient

        payload = {"scale": "small", "seed": 3, **self.SPAN}
        with ServerThread(tmp_path / "state") as server:
            client = ServiceClient("127.0.0.1", server.port, timeout=30.0)
            run_id = client.submit(payload)["id"]
            assert client.wait(run_id)["state"] == "done"
            outcomes = set()
            for name in [*FIGURES, "fig99", "8", "Fig08", "fig8"]:
                code = main(self.argv(payload) + ["--figure", name])
                out, err = capsys.readouterr()
                try:
                    served = client.figure(run_id, name)
                except ClientError as exc:
                    assert exc.status == 404
                    reason = str(exc).split(": ", 1)[1]
                    if reason.startswith("unknown figure"):
                        outcomes.add("unknown")
                        assert (code, err) == (2, f"repro run: {reason}\n")
                    else:  # catalogued, but this span cannot render it
                        outcomes.add("unrendered")
                        assert code == 1
                        assert f"repro run: figure {name} not rendered: " in err
                else:
                    outcomes.add("served")
                    assert code == 0
                    assert out.endswith("\n" + "\n".join(served) + "\n")
            assert outcomes == {"served", "unrendered", "unknown"}

    def test_figure_all_names_what_the_service_leaves_unrendered(self, capsys):
        from repro.core.parallel import execute_study
        from repro.service import configs
        from repro.service.results import render_figures

        payload = {"seed": 3, **self.SPAN}
        assert main(self.argv(payload) + ["--figure", "all"]) == 0
        out, err = capsys.readouterr()
        data = execute_study(configs.build_config(payload)[0], workers=1).data
        rendered, unrendered = render_figures(data)
        assert unrendered  # the span misses the month-pinned figures
        assert err == "".join(
            f"repro run: figure {name} not rendered: {reason}\n"
            for name, reason in unrendered.items()
        )
        for lines in rendered.values():
            assert "\n".join(lines) in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.figure is None
        assert args.scale == "small"
        assert args.workers is None
        assert args.start_method == "auto"
        assert args.retries == 2
        assert not args.resume

    def test_figure_run_defaults(self):
        args = build_parser().parse_args(["run", "--figure", "all"])
        assert args.figure == "all"
        assert args.scale == "small"
        assert args.workers is None

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
    from repro.core.parallel import execute_study
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
    execute_study(config, workers=1, lake=DataLake(root))
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

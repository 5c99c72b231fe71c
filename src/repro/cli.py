"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``classify DOMAIN [DOMAIN...]`` — run the Table 1 rule engine;
* ``probe-log PATH`` — summarize a probe flow log (protocols, services,
  name sources, RTT by service);
* ``study [--scale ...] [--figure N|all] [--out DIR]`` — run the
  longitudinal study and print figure reports (optionally exporting CSVs);
* ``run [--shards N] [--shard-spill-dir DIR] [--checkpoint-dir DIR]
  [--resume] [--report] [--telemetry DIR]`` — fault-tolerant study
  execution: per-day (or per-shard) checkpoints, crash-safe parallel
  workers, spill-to-disk partials, a run manifest, and optional
  telemetry exports (see :mod:`repro.core.parallel`);
* ``profile [--clock virtual] [--out DIR]`` — run a telemetry-enabled
  study and print per-stage counters, histograms, and the span tree
  (see :mod:`repro.telemetry`);
* ``events`` — list the Fig. 8 events with their model dates;
* ``lint [PATHS...] [--format text|json] [--baseline FILE]`` — run the
  repo-specific static invariant checker (see :mod:`repro.quality`);
* ``fsck LAKE [--quarantine] [--no-decode] [--format text|json]`` — scan
  a data lake's partitions against their integrity manifests and report
  torn files, checksum/count mismatches, schema drift, and undecodable
  records (see :mod:`repro.dataflow.integrity`);
* ``archive LAKE [--format v1|v2] [--scale ...] [--seed N]`` — run the
  study and archive its stage-1 outputs into a day-partitioned lake, in
  either the gzip-TSV v1 format or the column-chunk v2 format (see
  :mod:`repro.dataflow.datalake`);
* ``replay LAKE [--bad-records strict|quarantine|skip]
  [--min-day-quality F] [--report]`` — rebuild the aggregate-tier study
  from an archived lake under an integrity policy, excluding degraded
  days like outage holes (see :mod:`repro.core.persistence`).
"""

from __future__ import annotations

import argparse
import collections
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core.config import StudyConfig, small_study
from repro.services import catalog
from repro.synthesis import servicemodels
from repro.synthesis.world import WorldConfig


def _load_figures():
    # Imported lazily so `classify` stays snappy.
    from repro.figures import (
        fig02_ccdf,
        fig03_volume_trend,
        fig04_hourly_ratio,
        fig05_services,
        fig06_video_p2p,
        fig07_social,
        fig08_protocols,
        fig09_autoplay,
        fig10_rtt,
        fig11_infrastructure,
        table1,
    )

    return {
        "table1": table1,
        "2": fig02_ccdf,
        "3": fig03_volume_trend,
        "4": fig04_hourly_ratio,
        "5": fig05_services,
        "6": fig06_video_p2p,
        "7": fig07_social,
        "8": fig08_protocols,
        "9": fig09_autoplay,
        "10": fig10_rtt,
        "11": fig11_infrastructure,
    }


def cmd_classify(args: argparse.Namespace) -> int:
    rules = catalog.default_ruleset()
    for domain in args.domains:
        service = rules.classify(domain)
        print(f"{domain}\t{service or '(unclassified)'}")
    return 0


def cmd_probe_log(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.analytics.rtt import summarize_services
    from repro.tstat.flowbatch import FlowBatch
    from repro.tstat.logs import read_flow_log

    def totals(labels, codes, amounts) -> collections.Counter:
        # keys in first-appearance order over the flows: most_common
        # breaks ties by it
        sums = np.zeros(len(labels), dtype=np.int64)
        np.add.at(sums, codes, amounts)
        used, first = np.unique(codes, return_index=True)
        return collections.Counter(
            {labels[code]: int(sums[code]) for code in used[np.argsort(first)].tolist()}
        )

    rules = catalog.default_ruleset()
    records = FlowBatch.of(read_flow_log(args.path))
    if not records:
        print("empty log", file=sys.stderr)
        return 1
    view = records.service_view(rules)  # one rules.classify per distinct name
    volumes = records.total_bytes
    by_protocol = totals(
        records.dictionaries["protocol"], records.columns["protocol"], volumes
    )
    by_source = totals(
        records.dictionaries["name_source"], records.columns["name_source"], 1
    )
    by_service = totals(view.services, view.flow_codes, volumes)
    total = sum(by_protocol.values()) or 1
    print(f"{len(records)} flow records, {total} bytes\n")
    print("bytes by protocol:")
    for protocol, volume in by_protocol.most_common():
        print(f"  {protocol:<8} {100 * volume / total:5.1f}%")
    print("\nbytes by service:")
    for service, volume in by_service.most_common(12):
        print(f"  {service:<14} {100 * volume / total:5.1f}%")
    print("\nflows by name source:")
    for source, count in by_source.most_common():
        print(f"  {source:<6} {count}")
    summaries = summarize_services(records, rules, by_service.keys())
    if summaries:
        print("\nmin-RTT by service (TCP flows):")
        for service, stats in sorted(summaries.items()):
            print(f"  {service:<14} median {stats.median_ms:7.1f} ms over {stats.flows} flows")
    return 0


def _workers_error(command: str, workers: int) -> str:
    return (
        f"repro {command}: --workers must be a positive integer "
        f"(got {workers}); use --workers 1 for a serial run"
    )


def _build_config(args: argparse.Namespace) -> StudyConfig:
    if args.scale == "small":
        return small_study(seed=args.seed)
    return StudyConfig(
        world=WorldConfig(seed=args.seed, adsl_count=500, ftth_count=250),
        day_stride=4,
    )


def cmd_study(args: argparse.Namespace) -> int:
    if args.workers < 1:
        print(_workers_error("study", args.workers), file=sys.stderr)
        return 2
    figures = _load_figures()
    wanted = list(figures) if args.figure == "all" else [args.figure]
    unknown = [name for name in wanted if name not in figures]
    if unknown:
        print(f"unknown figure(s): {unknown}; choose from {sorted(figures)}",
              file=sys.stderr)
        return 2
    config = _build_config(args)
    data = None
    if wanted != ["table1"]:  # Table 1 needs no measurement pass
        print(f"running study (seed={args.seed}, scale={args.scale}, "
              f"workers={args.workers})...", file=sys.stderr)
        from repro.core.parallel import execute_study

        data = execute_study(config, workers=args.workers).data
    for name in wanted:
        module = figures[name]
        fig = module.compute() if name == "table1" else module.compute(data)
        print()
        print("\n".join(module.report(fig)))
    return 0


def _apply_date_range(config: StudyConfig, args: argparse.Namespace) -> StudyConfig:
    """Apply ``--start``/``--end`` overrides to a study config."""
    import dataclasses
    import datetime

    if not (args.start or args.end):
        return config
    world = dataclasses.replace(
        config.world,
        start=datetime.date.fromisoformat(args.start)
        if args.start else config.world.start,
        end=datetime.date.fromisoformat(args.end)
        if args.end else config.world.end,
    )
    return dataclasses.replace(config, world=world)


def _write_telemetry(run_telemetry, directory: Path) -> None:
    """Write the three exporter outputs into ``directory``."""
    from repro.telemetry import write_jsonl, write_prometheus, write_summary

    directory.mkdir(parents=True, exist_ok=True)
    write_jsonl(run_telemetry, directory / "telemetry.jsonl")
    write_prometheus(run_telemetry, directory / "metrics.prom")
    write_summary(run_telemetry, directory / "summary.txt")


def cmd_run(args: argparse.Namespace) -> int:
    """Fault-tolerant study execution with checkpoints and a manifest."""
    from repro.core.parallel import ChunkError, RetryPolicy, execute_study

    if args.workers is not None and args.workers < 1:
        print(_workers_error("run", args.workers), file=sys.stderr)
        return 2
    if args.resume and args.checkpoint_dir is None:
        print("repro run: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.shards < 1:
        print(
            f"repro run: --shards must be a positive integer "
            f"(got {args.shards}); use --shards 1 for whole-day tasks",
            file=sys.stderr,
        )
        return 2
    if args.retries < 0:
        print(
            f"repro run: --retries must be >= 0 (got {args.retries}); "
            "use --retries 0 to fail fast on the first worker error",
            file=sys.stderr,
        )
        return 2
    if args.spill_watermark_bytes is not None and args.spill_watermark_bytes <= 0:
        print(
            f"repro run: --spill-watermark-bytes must be a positive integer "
            f"(got {args.spill_watermark_bytes}); omit the flag for the "
            "default watermark",
            file=sys.stderr,
        )
        return 2
    config = _apply_date_range(_build_config(args), args)
    method = None if args.start_method == "auto" else args.start_method
    telemetry = None
    if args.telemetry is not None:
        from repro.telemetry import Telemetry

        telemetry = Telemetry.for_spec(args.clock)
    try:
        result = execute_study(
            config,
            workers=args.workers,
            start_method=method,
            checkpoint_root=args.checkpoint_dir,
            resume=args.resume,
            retry=RetryPolicy(retries=args.retries),
            telemetry=telemetry,
            shards=args.shards,
            shard_spill_dir=args.shard_spill_dir,
            spill_watermark_bytes=args.spill_watermark_bytes,
        )
    except ChunkError as exc:
        print(f"repro run: {exc}", file=sys.stderr)
        if exc.report is not None:
            for line in exc.report.summary_lines():
                print(line, file=sys.stderr)
            if args.checkpoint_dir is not None:
                print(
                    "completed days are checkpointed; re-run with --resume "
                    "to retry only the failed day(s)",
                    file=sys.stderr,
                )
        return 1
    for line in result.report.summary_lines():
        print(line)
    if args.report:
        print()
        for line in result.report.day_lines():
            print(line)
        print()
        for line in result.report.telemetry_lines():
            print(line)
    if args.telemetry is not None and result.telemetry is not None:
        _write_telemetry(result.telemetry, args.telemetry)
        print(f"telemetry written to {args.telemetry}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Run a telemetry-enabled study and print the ASCII profile."""
    from repro.core.parallel import ChunkError, execute_study
    from repro.telemetry import Telemetry, ascii_summary

    if args.workers is not None and args.workers < 1:
        print(_workers_error("profile", args.workers), file=sys.stderr)
        return 2
    config = _apply_date_range(_build_config(args), args)
    telemetry = Telemetry.for_spec(args.clock)
    try:
        result = execute_study(
            config, workers=args.workers, telemetry=telemetry
        )
    except ChunkError as exc:
        print(f"repro profile: {exc}", file=sys.stderr)
        return 1
    assert result.telemetry is not None
    print("\n".join(ascii_summary(result.telemetry, max_tree_rows=args.tree_rows)))
    if args.out is not None:
        _write_telemetry(result.telemetry, args.out)
        print(f"\ntelemetry written to {args.out}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.quality import (
        Analyzer,
        LintError,
        default_config,
        load_baseline,
        open_cache,
        render_json,
        render_sarif,
        render_text,
        subtract_baseline,
        write_baseline,
    )

    if args.explain is not None:
        return _explain_rule(args.explain)
    config = default_config()
    if args.select:
        config = dataclasses.replace(config, select=tuple(args.select))
    try:
        analyzer = Analyzer(config, cache=open_cache(args.cache))
        findings = analyzer.analyze(args.paths or None)
        if args.write_baseline is not None:
            path = write_baseline(args.write_baseline, findings)
            print(f"wrote baseline with {len(findings)} finding(s) to {path}")
            return 0
        if args.baseline is not None:
            findings = subtract_baseline(findings, load_baseline(args.baseline))
    except (LintError, ValueError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    renderer = {"json": render_json, "sarif": render_sarif}.get(
        args.format, render_text
    )
    print(renderer(findings))
    return 1 if findings else 0


def _explain_rule(rule_id: str) -> int:
    """``repro lint --explain RPRxxx``: the rule's documentation, from
    the docstring of the module that implements it."""
    import inspect

    from repro.quality import registered_rules

    catalogue = registered_rules()
    rule_id = rule_id.upper()
    rule_class = catalogue.get(rule_id)
    if rule_class is None:
        print(
            f"repro lint: unknown rule id {rule_id!r} "
            f"(known: {', '.join(sorted(catalogue))})",
            file=sys.stderr,
        )
        return 2
    rule = rule_class()
    lines = [
        f"{rule_id}: {rule.description}",
        f"severity: {rule.severity.value}",
        f"invariant: {rule.invariant}",
    ]
    if rule.requires_justification:
        # The directive text is spliced so this source line is not itself
        # mistaken for a (malformed) suppression by the lexical parser.
        directive = "# repro" + f": noqa[{rule_id}] -- reason"
        lines.append(f"suppressing requires a written justification: {directive}")
    doc = inspect.getdoc(inspect.getmodule(rule_class))
    if doc:
        lines.extend(["", doc])
    print("\n".join(lines))
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    """Scan a data lake for integrity violations."""
    import json

    import repro.core.persistence  # noqa: F401 — registers table codecs
    from repro.dataflow.datalake import DataLake
    from repro.dataflow.integrity import fsck_lake

    if not args.lake.is_dir():
        print(f"repro fsck: no lake at {args.lake}", file=sys.stderr)
        return 2
    lake = DataLake(args.lake)
    report = fsck_lake(
        lake, decode=not args.no_decode, quarantine=args.quarantine
    )
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print("\n".join(report.summary_lines()))
    return 0 if report.clean else 1


def cmd_archive(args: argparse.Namespace) -> int:
    """Run the study and archive stage-1 outputs into a data lake."""
    from repro.core.persistence import PersistingStudy
    from repro.dataflow.datalake import DataLake

    config = _apply_date_range(_build_config(args), args)
    lake = DataLake(args.lake, write_format=args.format)
    study = PersistingStudy(config, lake=lake)
    study.run()
    tables = lake.tables()
    per_table = ", ".join(f"{table}={len(lake.days(table))}" for table in tables)
    print(
        f"archived {study.sink.days_written} day(s) into {args.lake} "
        f"(format {args.format}): {per_table}"
    )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Rebuild the study from an archived lake under an integrity policy."""
    from repro.core.persistence import run_replay
    from repro.dataflow.datalake import DataLake
    from repro.dataflow.integrity import (
        PartitionIntegrityError,
        RecordDecodeError,
    )
    from repro.synthesis.studycalendar import study_months

    if not args.lake.is_dir():
        print(f"repro replay: no lake at {args.lake}", file=sys.stderr)
        return 2
    if not 0.0 <= args.min_day_quality <= 1.0:
        print("repro replay: --min-day-quality must be within [0, 1]",
              file=sys.stderr)
        return 2
    lake = DataLake(args.lake)
    all_days = sorted(
        {day for table in lake.tables() for day in lake.days(table)}
    )
    if not all_days:
        print(f"repro replay: lake {args.lake} holds no days", file=sys.stderr)
        return 1
    months = study_months(all_days[0], all_days[-1])
    try:
        result = run_replay(
            lake,
            months,
            policy=args.bad_records,
            min_day_quality=args.min_day_quality,
        )
    except (PartitionIntegrityError, RecordDecodeError) as exc:
        print(f"repro replay: {exc}", file=sys.stderr)
        return 1
    for line in result.report.summary_lines():
        print(line)
    excluded = [r.day.isoformat() for r in result.report.records
                if r.status == "excluded"]
    if excluded:
        print(f"excluded {len(excluded)} degraded day(s): "
              + ", ".join(excluded))
    print(f"replayed {len(result.data.subscriber_days)} day(s) of usage, "
          f"{len(result.data.protocol_rows)} protocol row(s), "
          f"{len(result.data.hourly)} hourly bin(s)")
    if args.report:
        print()
        print(result.report.to_json())
    return 0


def cmd_events(args: argparse.Namespace) -> int:
    events = [
        ("A", servicemodels.YOUTUBE_HTTPS_MIGRATION_START, "YouTube begins HTTPS migration"),
        ("B", servicemodels.QUIC_LAUNCH, "QUIC deployed in the wild"),
        ("C", servicemodels.SPDY_REVEAL, "probe upgrade reveals SPDY"),
        ("D", servicemodels.QUIC_DISABLE_START, "QUIC disabled (security bug)"),
        ("D'", servicemodels.QUIC_DISABLE_END, "QUIC re-enabled"),
        ("E", servicemodels.HTTP2_MIGRATION, "SPDY -> HTTP/2 migration starts"),
        ("F", servicemodels.FBZERO_LAUNCH, "FB-Zero deployed overnight"),
        ("-", servicemodels.FACEBOOK_AUTOPLAY, "Facebook video auto-play"),
        ("-", servicemodels.NETFLIX_ITALY_LAUNCH, "Netflix launches in Italy"),
        ("-", servicemodels.NETFLIX_UHD_LAUNCH, "Netflix Ultra HD tier"),
    ]
    for label, day, description in events:
        print(f"{label:>2}  {day.isoformat()}  {description}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the measurement-as-a-service control plane (HTTP API)."""
    from repro.service.server import ServiceServer, run_server

    if args.max_active < 1:
        print(
            f"repro serve: --max-active must be a positive integer "
            f"(got {args.max_active})",
            file=sys.stderr,
        )
        return 2
    if args.run_workers < 1:
        print(
            f"repro serve: --run-workers must be a positive integer "
            f"(got {args.run_workers}); use --run-workers 1 for serial runs",
            file=sys.stderr,
        )
        return 2
    if args.retries < 0:
        print(
            f"repro serve: --retries must be >= 0 (got {args.retries})",
            file=sys.stderr,
        )
        return 2
    server = ServiceServer(
        args.state_dir,
        host=args.host,
        port=args.port,
        max_active=args.max_active,
        run_workers=args.run_workers,
        run_retries=args.retries,
    )
    print(
        f"repro serve: state in {args.state_dir}, listening on "
        f"http://{args.host}:{args.port} (Ctrl-C to stop)",
        file=sys.stderr,
    )
    run_server(server)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run seeded multi-fault chaos trials and judge recovery invariants."""
    from repro.chaos import run_chaos
    from repro.chaos.invariants import VERDICT_SILENT_DRIFT, worst_verdict
    from repro.chaos.plan import ALL_SURFACES
    from repro.chaos.runner import render_report

    if args.trials < 1:
        print(
            f"repro chaos: --trials must be a positive integer "
            f"(got {args.trials})",
            file=sys.stderr,
        )
        return 2
    surfaces = (
        tuple(part for part in args.surfaces.split(",") if part)
        if args.surfaces
        else ALL_SURFACES
    )
    try:
        reports = run_chaos(
            args.seed,
            args.trials,
            surfaces,
            out_dir=args.out,
            progress=lambda step: print(
                f"repro chaos: {step}", file=sys.stderr
            ),
        )
    except ValueError as exc:
        print(f"repro chaos: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        if args.out is None and args.format == "json":
            print(render_report(report), end="")
        scenarios = ", ".join(
            f"{s['surface']}={s['invariant']['verdict']}"
            for s in report["scenarios"]
        )
        print(
            f"trial {report['trial']}: {report['verdict']} ({scenarios})",
            file=sys.stderr,
        )
    overall = worst_verdict([report["verdict"] for report in reports])
    if args.out is not None:
        print(
            f"repro chaos: wrote {len(reports)} report(s) to {args.out}",
            file=sys.stderr,
        )
    print(f"repro chaos: overall verdict {overall}", file=sys.stderr)
    return 1 if overall == VERDICT_SILENT_DRIFT else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Five Years at the Edge — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    classify = sub.add_parser("classify", help="classify domains to services")
    classify.add_argument("domains", nargs="+")
    classify.set_defaults(func=cmd_classify)

    probe_log = sub.add_parser("probe-log", help="summarize a probe flow log")
    probe_log.add_argument("path", type=Path)
    probe_log.set_defaults(func=cmd_probe_log)

    study = sub.add_parser("study", help="run the longitudinal study")
    study.add_argument("--figure", default="all",
                       help="figure number, 'table1', or 'all'")
    study.add_argument("--scale", choices=("small", "medium"), default="small")
    study.add_argument("--seed", type=int, default=7)
    study.add_argument("--workers", type=int, default=1,
                       help="worker processes (results identical to serial)")
    study.set_defaults(func=cmd_study)

    run = sub.add_parser(
        "run",
        help="fault-tolerant study run: checkpoints, resume, manifest",
    )
    run.add_argument("--scale", choices=("small", "medium"), default="small")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--workers", type=int, default=None,
                     help="worker processes (default: CPU count - 1)")
    run.add_argument("--start-method", choices=("auto", "fork", "spawn"),
                     default="auto",
                     help="multiprocessing start method (auto: fork where "
                          "available, spawn otherwise)")
    run.add_argument("--checkpoint-dir", type=Path, default=None,
                     help="persist per-day checkpoints and manifest.json here")
    run.add_argument("--resume", action="store_true",
                     help="reuse checkpointed days from --checkpoint-dir")
    run.add_argument("--report", action="store_true",
                     help="print the per-day run manifest after the summary")
    run.add_argument("--shards", type=int, default=1,
                     help="fan each day out into N subscriber-range shard "
                          "tasks (results identical for any N)")
    run.add_argument("--shard-spill-dir", type=Path, default=None,
                     metavar="DIR", dest="shard_spill_dir",
                     help="spill completed partials above the memory "
                          "watermark to this directory")
    run.add_argument("--spill-watermark-bytes", type=int, default=None,
                     metavar="N", dest="spill_watermark_bytes",
                     help="resident-partial watermark before spilling "
                          "(default 256 MiB)")
    run.add_argument("--retries", type=int, default=2,
                     help="max retries per day for transient worker failures")
    run.add_argument("--start", default=None, metavar="YYYY-MM-DD",
                     help="override the study start date")
    run.add_argument("--end", default=None, metavar="YYYY-MM-DD",
                     help="override the study end date")
    run.add_argument("--telemetry", type=Path, default=None, metavar="DIR",
                     help="collect run telemetry and write telemetry.jsonl, "
                          "metrics.prom, and summary.txt into DIR")
    run.add_argument("--clock", choices=("monotonic", "virtual"),
                     default="monotonic",
                     help="telemetry clock: real time, or a deterministic "
                          "virtual clock (byte-identical exports per seed)")
    run.set_defaults(func=cmd_run)

    profile = sub.add_parser(
        "profile",
        help="run a telemetry-enabled study and print the stage profile",
    )
    profile.add_argument("--scale", choices=("small", "medium"),
                         default="small")
    profile.add_argument("--seed", type=int, default=7)
    profile.add_argument("--workers", type=int, default=1,
                         help="worker processes (default: serial)")
    profile.add_argument("--clock", choices=("monotonic", "virtual"),
                         default="monotonic")
    profile.add_argument("--start", default=None, metavar="YYYY-MM-DD",
                         help="override the study start date")
    profile.add_argument("--end", default=None, metavar="YYYY-MM-DD",
                         help="override the study end date")
    profile.add_argument("--tree-rows", type=int, default=40,
                         help="max span-tree rows to print (default 40)")
    profile.add_argument("--out", type=Path, default=None, metavar="DIR",
                         help="also write the three telemetry exports here")
    profile.set_defaults(func=cmd_profile)

    fsck = sub.add_parser(
        "fsck",
        help="scan a data lake against its integrity manifests",
    )
    fsck.add_argument("lake", type=Path, help="data lake root directory")
    fsck.add_argument("--quarantine", action="store_true",
                      help="route bad records/partitions to <lake>/_quarantine")
    fsck.add_argument("--no-decode", action="store_true",
                      help="structural checks only (skip per-record decoding)")
    fsck.add_argument("--format", choices=("text", "json"), default="text")
    fsck.set_defaults(func=cmd_fsck)

    archive = sub.add_parser(
        "archive",
        help="run the study and archive stage-1 outputs into a lake",
    )
    archive.add_argument("lake", type=Path, help="data lake root directory")
    archive.add_argument("--format", choices=("v1", "v2"), default="v1",
                         help="partition format: gzip-TSV (v1) or "
                              "column chunks with zone maps (v2)")
    archive.add_argument("--scale", choices=("small", "medium"),
                         default="small")
    archive.add_argument("--seed", type=int, default=7)
    archive.add_argument("--start", default=None, metavar="YYYY-MM-DD",
                         help="override the study start date")
    archive.add_argument("--end", default=None, metavar="YYYY-MM-DD",
                         help="override the study end date")
    archive.set_defaults(func=cmd_archive)

    replay = sub.add_parser(
        "replay",
        help="rebuild the study from an archived lake (quality-gated)",
    )
    replay.add_argument("lake", type=Path, help="data lake root directory")
    replay.add_argument("--bad-records",
                        choices=("strict", "quarantine", "skip"),
                        default="strict",
                        help="policy for corrupt partitions and records "
                             "(default: strict — abort with a typed error)")
    replay.add_argument("--min-day-quality", type=float, default=0.999,
                        metavar="F",
                        help="exclude days whose decoded fraction falls "
                             "below F (default 0.999)")
    replay.add_argument("--report", action="store_true",
                        help="print the full run manifest (JSON) after the "
                             "summary")
    replay.set_defaults(func=cmd_replay)

    serve = sub.add_parser(
        "serve",
        help="run the HTTP control plane: submit, watch, cancel, resume "
             "studies over a persistent run registry",
    )
    serve.add_argument("--state-dir", type=Path, required=True,
                       metavar="DIR",
                       help="run registry + checkpoints + results live here "
                            "(survives restarts; interrupted runs resume)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8737,
                       help="listen port (default 8737; 0 picks a free port)")
    serve.add_argument("--max-active", type=int, default=2, metavar="N",
                       help="concurrent study executions (default 2)")
    serve.add_argument("--run-workers", type=int, default=1, metavar="N",
                       dest="run_workers",
                       help="worker processes per study run (default 1)")
    serve.add_argument("--retries", type=int, default=2,
                       help="max retries per day for transient worker "
                            "failures (default 2)")
    serve.set_defaults(func=cmd_serve)

    chaos = sub.add_parser(
        "chaos",
        help="run seeded multi-fault trials: inject faults across pool, "
             "filesystem, lake, probe, and service surfaces, then judge "
             "recovery (identical | typed-degradation | silent-drift)",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="master seed; same seed + trials + surfaces "
                            "reproduce byte-identical reports (default 0)")
    chaos.add_argument("--trials", type=int, default=1, metavar="N",
                       help="independent trials to run (default 1)")
    chaos.add_argument("--surfaces", default=None, metavar="LIST",
                       help="comma-separated fault surfaces: "
                            "pool,fs,lake,probe,service (default: all)")
    chaos.add_argument("--out", type=Path, default=None, metavar="DIR",
                       help="write per-trial JSON reports to DIR "
                            "(default: print to stdout)")
    chaos.add_argument("--format", choices=("json", "summary"),
                       default="json",
                       help="stdout format when --out is not given "
                            "(default json)")
    chaos.set_defaults(func=cmd_chaos)

    events = sub.add_parser("events", help="list the modelled event timeline")
    events.set_defaults(func=cmd_events)

    lint = sub.add_parser(
        "lint", help="run the static invariant checker over the source tree"
    )
    lint.add_argument("paths", nargs="*", type=Path,
                      help="files or directories (default: the repro package)")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text")
    lint.add_argument("--baseline", type=Path, default=None,
                      help="subtract findings recorded in this baseline file")
    lint.add_argument("--write-baseline", type=Path, default=None,
                      help="snapshot current findings to FILE and exit 0")
    lint.add_argument("--select", nargs="*", default=(), metavar="RULE",
                      help="restrict to the given rule ids (e.g. RPR004)")
    lint.add_argument("--cache", type=Path, default=None, metavar="FILE",
                      help="incremental cache: per-module facts and "
                           "findings keyed by content hash; warm runs "
                           "re-analyze only what changed")
    lint.add_argument("--explain", default=None, metavar="RULE",
                      help="print the rationale, example, and fix "
                           "guidance for one rule id and exit")
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

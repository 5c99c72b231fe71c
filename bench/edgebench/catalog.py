"""The benchmark's dictionary: workloads, metrics, units, directions, bounds.

Single source of truth for every name the harness emits.  The
``BENCHMARK.json`` at the repository root repeats the same names (the
driver reads that file, not this module); ``bench/tests`` asserts that
the two agree, so a metric cannot be added to one and forgotten in the
other.

End-to-end metrics are emitted by *every* workload with ``--trace 0``
and carry a regression bound.  Per-layer metrics come from the
``--trace 1`` run; a layer a workload does not exercise reports 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

HIGHER = "higher"
LOWER = "lower"

#: (name, why) — names are final; later issues refer to them.
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "fiveyear-serial",
        "single-threaded baseline of the whole job: generate_day + stage-1 "
        "+ calendar merge + all figures dominate; pool, checkpoints, "
        "shards do nothing",
    ),
    (
        "fiveyear-pooled-ckpt",
        "same synthesis work behind 2 pool workers with checkpoints, then "
        "an all-hits resume: the difference to serial is fork + pack + "
        "pipe + checkpoint I/O over many tiny tasks",
    ),
    (
        "heavyday-sharded",
        "few heavy days fanned out over 4 subscriber-range shards with "
        "spill: flow expansion, columnar stage-1, full-width RNG replay "
        "and merge_day_shards do the work",
    ),
    (
        "lake-replay",
        "pre-generated days archived into a v2 lake, then fsck + strict "
        "replay + full and pruned scans: only the columnar codec, "
        "manifests, zone maps and integrity layers work",
    ),
    (
        "probe-capture",
        "wire-format packets through decode, meter, DPI, DN-Hunter and "
        "the flow-log codec: nothing on the study path is touched, so a "
        "study-side change must leave it flat",
    ),
    (
        "service-burst",
        "closed-loop clients submit short distinct studies over HTTP and "
        "fetch results and a figure, then poll an idle server: per-run "
        "fixed costs and control-plane latency",
    ),
)

WORKLOAD_NAMES: Tuple[str, ...] = tuple(name for name, _ in WORKLOADS)

#: (name, unit, better, bound).  Every workload emits every one of these.
#: ``work_per_s`` counts the workload's own unit of work (see README):
#: subscriber-day rows for the study, lake and service workloads, packets
#: for the probe.  Bounds were calibrated on the 2-vCPU development host
#: whose CPU speed drifts by ±20 % over seconds; the observed spreads sit
#: beside them in bench/README.md.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", LOWER, 0.25),
    ("wall_s", "s", LOWER, 0.25),
    ("cpu_s", "s", LOWER, 0.25),
    ("peak_rss_mb", "MiB", LOWER, 0.15),
    ("work_per_s", "1/s", HIGHER, 0.25),
)

#: (name, unit, better).  No bounds: these explain, they do not gate.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    # -- user-facing numbers of single workloads, measured on the untraced
    # -- pass of the traced run (the issue's workload-specific end-to-end
    # -- list; unbounded because not every workload can emit them).
    ("subscriber_days_per_s", "1/s", HIGHER),
    ("flows_per_s", "1/s", HIGHER),
    ("packets_per_s", "1/s", HIGHER),
    ("runs_per_s", "1/s", HIGHER),
    ("resume_wall_s", "s", LOWER),
    ("archive_wall_s", "s", LOWER),
    ("replay_wall_s", "s", LOWER),
    ("submit_to_done_s", "s", LOWER),
    ("poll_p50_ms", "ms", LOWER),
    ("persisted_bytes", "B", LOWER),
    ("failed_frac", "frac", LOWER),
    # -- synthesis
    ("synthesis.world_build_ms", "ms", LOWER),
    ("synthesis.generate_day_ms", "ms", LOWER),
    ("synthesis.usage_rows_per_s", "1/s", HIGHER),
    ("synthesis.generate_hourly_ms", "ms", LOWER),
    ("synthesis.expand_flows_ms", "ms", LOWER),
    ("synthesis.flows_per_s", "1/s", HIGHER),
    ("synthesis.packetgen_packets_per_s", "1/s", HIGHER),
    # -- study / analytics / figures
    ("study.stage1_aggregate_ms", "ms", LOWER),
    ("study.stage1_flows_ms", "ms", LOWER),
    ("analytics.flow_consumers_ms", "ms", LOWER),
    ("study.shard_task_ms", "ms", LOWER),
    ("study.shard_replay_overhead_frac", "frac", LOWER),
    ("study.shard_skew_frac", "frac", LOWER),
    ("study.merge_day_shards_ms", "ms", LOWER),
    ("study.merge_calendar_ms", "ms", LOWER),
    ("figures.render_all_ms", "ms", LOWER),
    # -- parallel / pool / shards / fsio / checkpoint
    ("parallel.pack_ms", "ms", LOWER),
    ("parallel.unpack_ms", "ms", LOWER),
    ("parallel.partial_bytes", "B", LOWER),
    ("parallel.pickle_roundtrip_ms", "ms", LOWER),
    ("parallel.pool_overhead_cpu_s", "s", LOWER),
    ("parallel.tasks", "count", HIGHER),
    ("parallel.retries", "count", LOWER),
    ("parallel.crashes", "count", LOWER),
    ("parallel.checkpoint_hits", "count", HIGHER),
    ("parallel.spills", "count", LOWER),
    ("parallel.worker_busy_frac", "frac", HIGHER),
    ("pool.spawn_ms", "ms", LOWER),
    ("pool.task_roundtrip_ms", "ms", LOWER),
    ("shards.spill_write_ms", "ms", LOWER),
    ("shards.spill_load_ms", "ms", LOWER),
    ("shards.spill_bytes", "B", LOWER),
    ("fsio.write_and_replace_ms", "ms", LOWER),
    ("checkpoint.save_ms", "ms", LOWER),
    ("checkpoint.load_ms", "ms", LOWER),
    ("checkpoint.bytes_per_task", "B", LOWER),
    ("checkpoint.overhead_cpu_s", "s", LOWER),
    # -- lake / integrity / persistence
    ("lake.write_rows_per_s", "1/s", HIGHER),
    ("lake.read_rows_per_s", "1/s", HIGHER),
    ("lake.bytes_per_row", "B", LOWER),
    ("lake.read_range_full_ms", "ms", LOWER),
    ("lake.read_range_pruned_ms", "ms", LOWER),
    ("lake.prune_ratio_x", "x", HIGHER),
    ("integrity.fsck_ms", "ms", LOWER),
    ("integrity.fsck_findings", "count", LOWER),
    ("persistence.replay_ms", "ms", LOWER),
    # -- probe
    ("packets.decode_packets_per_s", "1/s", HIGHER),
    ("tstat.meter_packets_per_s", "1/s", HIGHER),
    ("tstat.records", "count", HIGHER),
    ("tstat.named_flow_frac", "frac", HIGHER),
    ("tstat.log_write_records_per_s", "1/s", HIGHER),
    ("tstat.log_read_records_per_s", "1/s", HIGHER),
    # -- service
    ("service.submit_ms", "ms", LOWER),
    ("service.results_ms", "ms", LOWER),
    ("service.figure_ms", "ms", LOWER),
    ("service.poll_busy_p50_ms", "ms", LOWER),
    ("service.poll_busy_p95_ms", "ms", LOWER),
    ("service.http_errors", "count", LOWER),
    ("service.digest_ms", "ms", LOWER),
    ("service.results_payload_ms", "ms", LOWER),
    ("service.queue_wait_ms", "ms", LOWER),
    # -- cross-cutting
    ("telemetry.overhead_frac", "frac", LOWER),
    ("trace.coverage_frac", "frac", HIGHER),
    ("trace.overhead_frac", "frac", LOWER),
    ("host.parallel_efficiency", "frac", HIGHER),
)

END_TO_END_UNITS: Dict[str, str] = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}


def manifest(command: List[str], paths: List[str], run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document this dictionary implies."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }

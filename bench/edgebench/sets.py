"""A *set*: rounds of single runs, interleaved across workloads.

One round runs every selected workload once, each in a fresh child
process (``PYTHONHASHSEED=0``) started exactly as the driver starts it —
``run.py --workload W --seed S --seconds T --trace 0`` — with the
round's own seed.  Rounds come one after another, so slow drift of the
host lands on all workloads alike instead of on whichever ran last.
Per workload and metric the set keeps every round's value, their median
and quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` — the same arithmetic the driver applies when it
decides whether the benchmark is steady.

With ``trace`` one more round runs with ``--trace 1`` and its per-layer
metrics ride along.  Every set writes ``bench/out/result-<utc>.json``
and appends one line (the same document without the raw values) to
``bench/history.jsonl``.
"""

from __future__ import annotations

import datetime
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from edgebench import catalog, host

BENCH_DIR = Path(__file__).resolve().parent.parent
RUN_PY = BENCH_DIR / "run.py"
HISTORY = BENCH_DIR / "history.jsonl"
OUT_DIR = BENCH_DIR / "out"


def summarize(values: Sequence[float]) -> dict:
    ordered = [float(value) for value in values]
    median = statistics.median(ordered)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(ordered),
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "values": ordered,
    }


def git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=BENCH_DIR,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_child(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """One driver-style run in a fresh process; returns its last line."""
    command = [
        sys.executable,
        str(RUN_PY),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
        "--scale", scale,
    ]
    started = time.perf_counter()
    done = subprocess.run(
        command,
        cwd=BENCH_DIR.parent,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(
            f"{workload} (seed {seed}) printed no result; exit {done.returncode}\n"
            f"{done.stdout}\n{done.stderr}"
        ) from None
    result["exit"] = done.returncode
    result["elapsed_s"] = elapsed
    return result


def _absorb(entry: dict, result: dict) -> None:
    """Fold one run's operation counts into its workload's entry."""
    entry["attempted"] += result["attempted"]
    entry["failed"] += result["failed"]
    entry["correct"] = entry["correct"] and result["correct"] and result["exit"] == 0


def run_set(
    workloads: Sequence[str],
    seed: int,
    rounds: int,
    seconds: float,
    trace: bool,
    scale: str,
) -> dict:
    per_workload: Dict[str, dict] = {
        name: {"attempted": 0, "failed": 0, "correct": True, "values": {}, "elapsed": []}
        for name in workloads
    }
    for round_index in range(rounds):
        for name in workloads:
            result = run_child(name, seed + round_index, seconds, False, scale)
            entry = per_workload[name]
            _absorb(entry, result)
            entry["elapsed"].append(result["elapsed_s"])
            for metric, reading in result["metrics"].items():
                entry["values"].setdefault(metric, []).append(reading["value"])
            print(
                f"round {round_index + 1}/{rounds} {name:<22} "
                f"wall_s {result['metrics']['wall_s']['value']:.3f} "
                f"failed {result['failed']}/{result['attempted']} "
                f"(run took {result['elapsed_s']:.1f} s)",
                flush=True,
            )
    document = {
        "schema": 1,
        "utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ"),
        "commit": git_commit(),
        "seed": seed,
        "rounds": rounds,
        "seconds": seconds,
        "scale": scale,
        "host": dict(host.fingerprint(), parallel_efficiency=host.parallel_efficiency()),
        "workloads": {},
    }
    for name in workloads:
        entry = per_workload[name]
        document["workloads"][name] = {
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "correct": entry["correct"],
            # Whole-process time of one run: what the driver's time cap sees.
            "run_elapsed_s": statistics.median(entry["elapsed"]),
            "end_to_end": {
                metric: dict(summarize(values), unit=catalog.END_TO_END_UNITS[metric])
                for metric, values in entry["values"].items()
            },
            "per_layer": {},
        }
    if trace:
        for name in workloads:
            result = run_child(name, seed, seconds, True, scale)
            entry = document["workloads"][name]
            _absorb(entry, result)
            entry["per_layer"] = result["metrics"]
            print(f"traced   {name:<22} failed {result['failed']}/{result['attempted']}", flush=True)
    return document


def render(document: dict) -> List[str]:
    lines = [
        f"set {document['utc']} commit {document['commit']} seed {document['seed']} "
        f"rounds {document['rounds']} x {document['seconds']} s  "
        f"host: {document['host']['cpu_count']} cpu, parallel efficiency "
        f"{document['host']['parallel_efficiency']:.2f}",
    ]
    for name, entry in document["workloads"].items():
        lines.append(
            f"{name}: {entry['failed']} failed of {entry['attempted']} operations"
        )
        for metric, stats in entry["end_to_end"].items():
            lines.append(
                f"  {metric:<14} {stats['median']:>14.4f} {stats['unit']:<4} "
                f"q1 {stats['q1']:.4f} q3 {stats['q3']:.4f} n {stats['n']} "
                f"spread {stats['spread']:.3f}"
            )
        for metric, reading in entry["per_layer"].items():
            if reading["value"]:
                lines.append(f"    {metric:<36} {reading['value']:>16.4f} {reading['unit']}")
    return lines


def record(document: dict) -> Path:
    """Write the result file and append the trajectory line."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"result-{document['utc']}.json"
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    slim = json.loads(json.dumps(document))
    for entry in slim["workloads"].values():
        for stats in entry["end_to_end"].values():
            stats.pop("values", None)
        entry["per_layer"] = {
            metric: reading["value"]
            for metric, reading in entry["per_layer"].items()
            if reading["value"]
        }
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(slim, sort_keys=True) + "\n")
    return path

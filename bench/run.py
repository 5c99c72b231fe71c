#!/usr/bin/env python3
"""The benchmark's one command.

Single run (what the driver calls; the last line of stdout is the result
JSON with exactly ``correct``, ``attempted``, ``failed``, ``metrics``)::

    python3 bench/run.py --workload fiveyear-serial --seed 3 --seconds 12 --trace 0
    python3 bench/run.py --workload lake-replay --seed 3 --seconds 12 --trace 1

A set (rounds interleaved across all six workloads, each run in a fresh
child process; writes ``bench/out/result-<utc>.json`` and appends to
``bench/history.jsonl``)::

    python3 bench/run.py --rounds 10 --seed 1 [--trace] [--workload NAME ...]

The program is imported from ``src/`` next to this directory; nothing
needs to be installed or exported.  Exit status is non-zero when any
operation failed verification.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List, Optional  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"
if not (SOURCE_DIR / "repro").is_dir():
    sys.exit(f"bench/run.py: the program's sources are not at {SOURCE_DIR}")
for entry in (str(SOURCE_DIR), str(BENCH_DIR)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from edgebench import catalog, sets  # noqa: E402

#: Seconds one run measures when ``--seconds`` is not given; the same
#: number is ``run_seconds`` in BENCHMARK.json.
RUN_SECONDS = 12
DEFAULT_ROUNDS = 5


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        action="append",
        choices=catalog.WORKLOAD_NAMES,
        help="workload to run (repeatable in a set; default: all six)",
    )
    parser.add_argument("--seed", type=int, default=1, help="derives every input")
    parser.add_argument(
        "--seconds", type=float, default=RUN_SECONDS, help="measuring time of one run"
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1: the layer-by-layer traced run (per-layer metrics)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        help=f"run a set of this many rounds (default {DEFAULT_ROUNDS} "
        "when no single --workload is named)",
    )
    parser.add_argument(
        "--scale",
        choices=("full", "smoke"),
        default="full",
        help="smoke: toy inputs for bench/tests, numbers mean nothing",
    )
    return parser.parse_args(argv)


def single_run(args: argparse.Namespace) -> int:
    # The workload modules import the program: everything up to here is
    # what a user waits for before the first input can be built.
    from edgebench.harness import run_workload
    from edgebench.workloads import WORKLOADS

    import_s = time.perf_counter() - _PROCESS_STARTED
    workload = WORKLOADS[args.workload[0]](args.scale)
    result = run_workload(
        workload, args.seed, args.seconds, bool(args.trace), import_s=import_s
    )
    detail = result.pop("detail")
    print(
        f"{workload.name} seed {args.seed} scale {args.scale} "
        f"trace {args.trace}: {detail['reps']} timed repetition(s)"
    )
    walls = " ".join(f"{wall:.4f}" for wall in detail["wall_samples"])
    print(f"  wall_s of each repetition: {walls}")
    for name, reading in result["metrics"].items():
        print(f"  {name:<36} {reading['value']:>16.4f} {reading['unit']}")
    for layer, seconds in detail["layer_self_s"].items():
        print(f"  self time of layer {layer:<12} {seconds:>10.4f} s per replay pass")
    print(f"  operations: {result['failed']} failed of {result['attempted']}")
    for failure in detail["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def set_run(args: argparse.Namespace) -> int:
    rounds = args.rounds if args.rounds is not None else DEFAULT_ROUNDS
    if rounds < 1:
        sys.exit("--rounds must be at least 1")
    workloads = args.workload or list(catalog.WORKLOAD_NAMES)
    document = sets.run_set(
        workloads, args.seed, rounds, args.seconds, bool(args.trace), args.scale
    )
    print("\n".join(sets.render(document)))
    path = sets.record(document)
    print(f"wrote {path.relative_to(BENCH_DIR.parent)} and appended bench/history.jsonl")
    failed = any(not entry["correct"] for entry in document["workloads"].values())
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.rounds is None and args.workload and len(args.workload) == 1:
        return single_run(args)
    return set_run(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes order sets and dicts of names inside the program;
        # pin them so two runs of one seed do the same work in one order.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())

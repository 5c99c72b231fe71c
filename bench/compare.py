#!/usr/bin/env python3
"""Compare two sets: ``python3 bench/compare.py BASE.json NEW.json``.

One row per workload × end-to-end metric, with the base median, the new
median, their ratio (new ÷ base), the metric's direction and bound, and
a verdict:

``ok``          the new median is not worse than the base by more than
                the bound (or every new run beats every base run);
``regressed``   it is worse by more than the bound;
``unresolved``  the run-to-run spread of either set is wider than the
                bound, so "no change" cannot be told from a change of
                that size — never reported as unchanged.

Bounds and directions come from ``BENCHMARK.json``.  Exit status is 1 on
any regression, on any rise in failed operations, or when the two sets
do not cover the same workloads; 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

OK = "ok"
REGRESSED = "regressed"
UNRESOLVED = "unresolved"


def load_bounds(path: Path = MANIFEST) -> Dict[str, Tuple[str, float]]:
    manifest = json.loads(path.read_text(encoding="utf-8"))
    return {
        metric["name"]: (metric["better"], metric["bound"])
        for metric in manifest["end_to_end"]
    }


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def judge(base: dict, new: dict, better: str, bound: float) -> str:
    if worse_by(base["median"], new["median"], better) > bound:
        return REGRESSED
    if max(base["spread"], new["spread"]) > bound:
        base_values, new_values = base.get("values"), new.get("values")
        if base_values and new_values:
            clear_win = (
                max(new_values) < min(base_values)
                if better == "lower"
                else min(new_values) > max(base_values)
            )
            if clear_win:
                return OK
        return UNRESOLVED
    return OK


def compare(base: dict, new: dict, bounds: Dict[str, Tuple[str, float]]) -> Tuple[List[str], bool]:
    """(report lines, failed?) for two set documents."""
    lines = [
        f"base {base['utc']} ({base['commit']}, {base['rounds']} rounds)  "
        f"new {new['utc']} ({new['commit']}, {new['rounds']} rounds)",
        f"{'workload':<22} {'metric':<12} {'base':>12} {'new':>12} {'ratio':>7} "
        f"{'better':<6} {'bound':>5} {'spread b/n':>11}  verdict",
    ]
    failed = False
    if set(base["workloads"]) != set(new["workloads"]):
        lines.append(
            f"workloads differ: {sorted(base['workloads'])} vs {sorted(new['workloads'])}"
        )
        failed = True
    for workload in base["workloads"]:
        if workload not in new["workloads"]:
            continue
        before, after = base["workloads"][workload], new["workloads"][workload]
        for metric, (better, bound) in bounds.items():
            if metric not in before["end_to_end"] or metric not in after["end_to_end"]:
                lines.append(f"{workload:<22} {metric:<12} missing from one set")
                failed = True
                continue
            old, cur = before["end_to_end"][metric], after["end_to_end"][metric]
            verdict = judge(old, cur, better, bound)
            failed = failed or verdict == REGRESSED
            ratio = cur["median"] / old["median"] if old["median"] else float("nan")
            lines.append(
                f"{workload:<22} {metric:<12} {old['median']:>12.4f} {cur['median']:>12.4f} "
                f"{ratio:>7.3f} {better:<6} {bound:>5.2f} "
                f"{old['spread']:>5.3f}/{cur['spread']:<5.3f}  {verdict}"
            )
        old_rate = before["failed"] / max(1, before["attempted"])
        new_rate = after["failed"] / max(1, after["attempted"])
        rose = new_rate > old_rate
        failed = failed or rose
        lines.append(
            f"{workload:<22} {'failed_frac':<12} {old_rate:>12.4f} {new_rate:>12.4f} "
            f"{'':>7} {'lower':<6} {0:>5.2f} {'':>11}  {REGRESSED if rose else OK}"
        )
    return lines, failed


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    base = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    new = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    lines, failed = compare(base, new, load_bounds())
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

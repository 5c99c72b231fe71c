"""The benchmark's own checks (``python -m pytest bench/tests -q``).

Smoke-scale inputs throughout: the numbers mean nothing here, the
contract does — every declared metric is emitted with its unit, the
dictionary and ``BENCHMARK.json`` agree, and the verifier catches a
wrong result (the verifier is itself verified).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
from edgebench import catalog, harness, host, workloads
from edgebench.lake import LakeReplay
from edgebench.service import ServiceBurst
from edgebench.study import FiveyearSerial

BENCH_DIR = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(autouse=True)
def quick_host(monkeypatch):
    """The burner pair costs two seconds a call; its value is not under test."""
    monkeypatch.setattr(host, "parallel_efficiency", lambda: 1.0)


def smoke(workload, trace, out_dir, seconds=0.2):
    return harness.run_workload(workload, 5, seconds, trace, out_dir=out_dir)


# -- the dictionary -------------------------------------------------------


def test_manifest_matches_the_catalogue():
    assert MANIFEST == catalog.manifest(
        MANIFEST["command"], MANIFEST["paths"], run.RUN_SECONDS
    )
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert MANIFEST["paths"] == ["bench"]
    assert MANIFEST["command"] == ["python3", "bench/run.py"]


def test_names_units_and_counts_fit_the_contract():
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    names += [w["name"] for w in MANIFEST["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"])
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])
    assert tuple(workloads.WORKLOADS) == catalog.WORKLOAD_NAMES


# -- every workload emits every metric -------------------------------------


@pytest.mark.parametrize("name", catalog.WORKLOAD_NAMES)
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    result = smoke(workloads.WORKLOADS[name]("smoke"), False, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m[0] for m in catalog.END_TO_END]
    for metric, reading in result["metrics"].items():
        assert reading["unit"] == catalog.END_TO_END_UNITS[metric]
        assert reading["value"] > 0, metric
    assert not list(tmp_path.glob("scratch-*"))


@pytest.mark.parametrize("name", catalog.WORKLOAD_NAMES)
def test_traced_run_emits_every_per_layer_metric_and_a_span_file(name, tmp_path):
    result = smoke(workloads.WORKLOADS[name]("smoke"), True, tmp_path)
    assert result["correct"], result["detail"]["failures"]
    assert list(result["metrics"]) == [m[0] for m in catalog.PER_LAYER]
    for metric, reading in result["metrics"].items():
        assert reading["unit"] == catalog.PER_LAYER_UNITS[metric]
    assert result["metrics"]["trace.coverage_frac"]["value"] > 0
    spans = [
        json.loads(line)
        for line in (tmp_path / f"trace-{name}.jsonl").read_text().splitlines()
    ]
    assert spans and all(
        {"name", "start", "end", "parent", "workload", "rep"} <= set(span)
        for span in spans
    )
    assert {span["workload"] for span in spans} == {name}


def test_traced_sharded_run_reports_the_untraced_spill_count(tmp_path):
    workload = workloads.WORKLOADS["heavyday-sharded"]("smoke")
    metrics = smoke(workload, True, tmp_path)["metrics"]
    assert metrics["parallel.spills"]["value"] > 0
    assert metrics["parallel.tasks"]["value"] == 28
    assert metrics["study.shard_replay_overhead_frac"]["value"] != 0


# -- the verifier is verified ------------------------------------------------


class PerturbedStudy(FiveyearSerial):
    def execute(self, ctx):
        result = super().execute(ctx)
        day = min(result.data.subscriber_days)
        result.data.subscriber_days[day].pop()
        return result


class CorruptedLake(LakeReplay):
    def archive(self, ctx, index):
        lake = super().archive(ctx, index)
        victim = sorted(lake.root.rglob("*.colchunk"))[0]
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))
        return lake


def _refuse(*args, **kwargs):
    raise ValueError("injected: the study cannot run")


class FailingService(ServiceBurst):
    def server_options(self):
        return dict(super().server_options(), execute_fn=_refuse)


@pytest.mark.parametrize("faulty", [PerturbedStudy, CorruptedLake, FailingService])
def test_a_wrong_result_is_a_failed_operation_and_a_nonzero_exit(
    faulty, tmp_path, monkeypatch, capsys
):
    result = smoke(faulty("smoke"), False, tmp_path)
    assert not result["correct"] and result["failed"] >= 1
    assert result["detail"]["failures"]

    monkeypatch.setitem(workloads.WORKLOADS, faulty.name, faulty)
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    code = run.main(
        ["--workload", faulty.name, "--scale", "smoke", "--seconds", "0.2",
         "--seed", "5", "--trace", "0"]
    )
    assert code != 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is False and last["failed"] >= 1


# -- the command line ----------------------------------------------------------


def test_without_the_program_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "probe-capture", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# -- compare.py ------------------------------------------------------------------


def _set(wall, spread=0.01, failed=0, values=None):
    stats = {"median": wall, "q1": wall, "q3": wall, "n": 10, "spread": spread}
    if values:
        stats["values"] = values
    return {
        "utc": "t", "commit": "c", "rounds": 10,
        "workloads": {"w": {"attempted": 10, "failed": failed, "end_to_end": {"wall_s": stats}}},
    }


def test_compare_says_ok_regressed_or_unresolved():
    bounds = {"wall_s": ("lower", 0.10)}
    verdict = lambda base, new: compare.compare(base, new, bounds)  # noqa: E731
    lines, failed = verdict(_set(1.0), _set(1.05))
    assert not failed and lines[2].endswith(compare.OK)
    lines, failed = verdict(_set(1.0), _set(1.2))
    assert failed and lines[2].endswith(compare.REGRESSED)
    lines, failed = verdict(_set(1.0, spread=0.3), _set(1.05))
    assert not failed and lines[2].endswith(compare.UNRESOLVED)
    lines, failed = verdict(
        _set(1.0, spread=0.3, values=[0.9, 1.3]), _set(0.5, values=[0.4, 0.6])
    )
    assert not failed and lines[2].endswith(compare.OK)
    _, failed = verdict(_set(1.0), _set(1.0, failed=1))
    assert failed

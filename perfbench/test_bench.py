"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run the benchmark in its short mode (1 s, one set-up per run) and check
that every metric named in BENCHMARK.json is printed with its unit, that the
per-op work counts repeat exactly, and that failed output checks are counted.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import worker  # noqa: E402

# Work per op at this commit, counted from outside the package.
EXPECTED_COUNTS = {
    "noisy_2q": {
        "tomography.jobs": 144,
        "gates.native_gates": 3_840,
        "noise.kraus_ops": 57_600,  # readout decay included
        "simulator.shots": 144 * 4_000 + 7_168,
        "cli.bytes_written": 0,
    },
    "clean_2q_cli": {
        "tomography.jobs": 144,
        "gates.native_gates": 0,
        "noise.kraus_ops": 0,
        "simulator.shots": 144 * 11_000,
    },
}


def short_run(workload: str, trace: int, seed: int = 5) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--short", "--workload", workload,
         "--trace", str(trace), "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(EXPECTED_COUNTS))
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_prints_every_metric_with_its_unit(workload, trace):
    stdout, last = short_run(workload, trace)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in spec]
    lines = stdout.splitlines()
    for m in spec:
        value = last["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
        assert any(line.split()[1:2] == [m["name"]] and line.split()[-1] == m["unit"] for line in lines)
    if trace:
        for name, count in EXPECTED_COUNTS[workload].items():
            assert last["metrics"][name]["value"] == count, name
    else:
        assert all(last["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_counts_repeat_exactly_for_a_seed():
    counts = [
        {k: v["value"] for k, v in short_run("clean_2q_cli", 1, seed=9)[1]["metrics"].items()
         if v["unit"] != "s"}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]


def test_violated_band_counts_op_as_failed():
    seeds, _ = worker.op_seeds(3)
    workload = worker.Clean2qCli({})
    try:
        bands = worker.Bands(clean_fp=(0.0, 0.5))
        res = worker.run_ops(workload, seeds, seconds=0.0, min_ops=2, bands=bands)
    finally:
        workload.close()
    assert res["attempted"] == 2
    assert len(res["failures"]) == 2
    assert all("outside [0.0, 0.5]" in f for f in res["failures"])


def test_raising_op_counts_as_failed():
    class Raising:
        def run(self, seed):
            raise ValueError("boom")

    res = worker.run_ops(Raising(), [1], seconds=0.0, min_ops=3, bands=worker.Bands())
    assert res["attempted"] == 3 and len(res["failures"]) == 3
    assert "boom" in res["failures"][0]


def test_tail_is_highest_percentile_with_ten_ops_beyond():
    assert run.tail([float(i) for i in range(1, 41)]) == (30.0, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in ("run.py", "worker.py"):
        shutil.copy(BENCH / f, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "noisy_2q", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""Smoke test of the benchmark at tiny sizes; no timing gate.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def run_one(workload, seed, trace):
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2].removeprefix("# record "))
    return json.loads(lines[-1]), record


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_its_unit(workload, trace):
    result, record = run_one(workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    for key in ("python", "numpy", "blas", "blas_threads", "nproc", "cpu_model", "seed"):
        assert key in record["env"]
    assert record["env"]["blas_threads"] == 1


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_seed_determines_inputs_and_results(workload):
    _, rec_a = run_one(workload, 5, 0)
    _, rec_b = run_one(workload, 5, 1)
    _, rec_c = run_one(workload, 6, 0)
    assert rec_a["fingerprint"] == rec_b["fingerprint"]
    assert rec_a["fingerprint"]["psnr_db"] is not None
    assert rec_a["env"]["inputs_sha"] == rec_b["env"]["inputs_sha"]
    assert rec_a["env"]["inputs_sha"] != rec_c["env"]["inputs_sha"]


def test_all_workloads_in_one_command():
    proc = run("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("PASS")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

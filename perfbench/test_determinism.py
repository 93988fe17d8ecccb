"""Tests of the benchmark itself.

Run from the root of the repository::

    python3 -m pytest perfbench/test_determinism.py

Two traced runs of one seed under different ``PYTHONHASHSEED`` values must
generate the same inputs and count the same work, and the metric names the
driver prints must be the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced_run(workload: str, hash_seed: str):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if "inputs_sha256" in line)
    return digest, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counters_and_inputs_ignore_hash_seed(workload):
    digest_a, result_a = traced_run(workload, "1")
    digest_b, result_b = traced_run(workload, "2")
    assert result_a["correct"] and result_b["correct"]
    assert digest_a == digest_b
    counts = {
        name for name, unit in run.PER_LAYER if unit in ("count", "bytes")
    }
    for name in counts:
        assert result_a["metrics"][name] == result_b["metrics"][name], name


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "amplifier",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks the output contract of ``run.py`` against ``BENCHMARK.json``: the
last line is one JSON object with the agreed keys, and the metrics are
exactly the declared end-to-end (``--trace 0``) or per-layer (``--trace 1``)
names and units, each also printed by name. Every workload in workloads.py
runs, including those ``BENCHMARK.json`` does not list.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


def run_bench(root, workload, trace, seed=5):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_output_schema(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        assert f"  {name} = " in proc.stdout


def test_deterministic_metrics_repeat_for_a_seed():
    first = last_json(run_bench(ROOT, "decode-mixed", 0).stdout)["metrics"]
    second = last_json(run_bench(ROOT, "decode-mixed", 0).stdout)["metrics"]
    for name in ("objective_mean", "r_mean"):
        assert first[name] == second[name]


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(str(tmp_path), BENCH["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

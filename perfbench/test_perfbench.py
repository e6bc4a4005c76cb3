"""Self-test of the benchmark at minimal length.

Run from the repository root (about five minutes on a 2-core machine):

    python3 -m pytest -q perfbench/test_perfbench.py

It checks that every metric named in BENCHMARK.json is printed with its
unit, that no command fails on any workload, that the exact counts of the
traced run repeat across two runs at one seed, that the reference check
accepts additive fields and rejects changed values, and that the benchmark
refuses to run without the program's sources.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from worker import matches, reduce_output  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Per-layer values that must repeat exactly: counts, and the ratios and
# sizes derived only from counts and outputs.
EXACT_UNITS = ("count", "bits", "bytes")
EXACT_NAMES = ("sampling.draws_per_instance",)


def bench(workload: str, trace: int, seed: int = 0, root: str = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def assert_printed(proc, declared):
    metrics = result(proc)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert any(line.split()[1:2] == [m["name"]]
                   and line.split()[3:4] == [m["unit"]]
                   for line in proc.stdout.splitlines()), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_no_errors(workload):
    proc = bench(workload, trace=0)
    assert_printed(proc, SPEC["end_to_end"])
    data = result(proc)
    assert data["correct"] and data["failed"] == 0 and data["attempted"] >= 1
    assert data["metrics"]["pass_rate"]["value"] == 1
    assert any(line.split()[1:3] == ["error_rate", "0"]
               for line in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = bench(workload, trace=1), bench(workload, trace=1)
    assert_printed(first, SPEC["per_layer"])
    a, b = result(first), result(second)
    assert a["correct"] and b["correct"]
    exact = [name for name, m in a["metrics"].items()
             if m["unit"] in EXACT_UNITS or name in EXACT_NAMES]
    assert "algebra.fraction_ops" in exact
    assert "algebra.max_coeff_bits" in exact
    assert {n: a["metrics"][n] for n in exact} == {
        n: b["metrics"][n] for n in exact}


def test_reference_check_accepts_additions_and_rejects_changes():
    output = {"status": "holds", "reports": [{"identity": "x", "n": 1}],
              "moments": [f"{i}/7" for i in range(200)]}
    ref = reduce_output(output)
    assert "__sha256__" in ref["moments"]
    added = dict(output, summary={"holds": 1},
                 reports=[{"identity": "x", "n": 1, "bits": 3}])
    assert matches(ref, added)
    assert not matches(ref, dict(output, status="failed"))
    assert not matches(ref, dict(output, reports=[{"identity": "x", "n": 2}]))
    assert not matches(ref, dict(output, moments=output["moments"][:-1]))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], trace=0, root=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Smoke test of the benchmark harness at tiny shapes.

Run from the repository root with ``python3 -m pytest perfbench``.  It checks
that every workload runs, passes its correctness checks and prints every
metric BENCHMARK.json names, and that the benchmark refuses to run without
the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", "all", "--smoke", "--seed", "0",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _check(trace, section):
    proc = _run(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    bench = _benchmark()
    for workload in bench["workloads"]:
        for metric in bench[section]:
            entry = result["metrics"][f"{workload['name']}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            if section == "end_to_end":
                assert entry["value"] > 0, metric["name"]
    return result


def test_every_workload_reports_every_end_to_end_metric():
    _check(0, "end_to_end")


def test_traced_run_reports_every_per_layer_metric():
    result = _check(1, "per_layer")
    # every workload serves requests and trains, so both layers leave spans
    for workload in _benchmark()["workloads"]:
        for metric in ("kernel.CompressedFCLayer.builds", "training.steps"):
            assert result["metrics"][f"{workload['name']}.{metric}"]["value"] > 0


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

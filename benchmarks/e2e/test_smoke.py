"""Smoke test of the end-to-end benchmark.

    python -m pytest benchmarks/e2e -q

Runs every workload for a few rounds, untraced and traced, and checks
that every metric BENCHMARK.json names is reported with its unit, that
no answer was wrong, and that every per-layer metric has a value (all
shim targets exist in this tree).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(tmp_path: Path, *flags: str):
    out = tmp_path / "result.json"
    process = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke",
         "--out", str(out), *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    output = process.stdout[-4000:] + process.stderr[-4000:]
    assert process.returncode == 0, output
    line = json.loads(process.stdout.strip().splitlines()[-1])
    return json.loads(out.read_text()), line


def _assert_reported(line, metrics):
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    for metric in metrics:
        for workload in WORKLOADS:
            reported = line["metrics"][f"{workload}/{metric['name']}"]
            assert reported["unit"] == metric["unit"], (workload, metric)
            assert reported["value"] is not None, (workload, metric)


def test_smoke(tmp_path):
    report, line = _run(tmp_path)
    _assert_reported(line, SPEC["end_to_end"])
    for workload in WORKLOADS:
        metrics = report["sets"][0][workload]["end_to_end"]
        assert metrics["failed_frac"]["value"] == 0


def test_smoke_trace(tmp_path):
    report, line = _run(tmp_path, "--trace")
    _assert_reported(line, SPEC["per_layer"])
    for workload in WORKLOADS:
        assert (tmp_path / f"result.{workload}.trace.json").is_file()
        assert (tmp_path / f"result.{workload}.phases.txt").is_file()
    table1 = report["sets"][0]["table1"]["per_layer"]
    assert table1["obs.layer_coverage_frac"]["value"] >= 0.85

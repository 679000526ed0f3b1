"""Tests of the perf harness itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/test_perf.py

The smoke run (tiny horizons, one timed and one traced repeat of every
workload) takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PERF = HERE / "perf.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _perf(
    *args: str, cwd: Path = ROOT, script: Path = PERF, timeout: float = 300
) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    proc = _perf("run", "--smoke", "--trace", "1", "--out", str(out))
    return proc, out


def test_smoke_run_prints_every_metric_with_its_unit(smoke):
    proc, out = smoke
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert any(
            line.split()[:2] == [metric["name"], metric["unit"]] for line in lines
        ), f"{metric['name']} [{metric['unit']}] not printed"
    result = json.loads(out.read_text())
    assert set(result["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, report in result["workloads"].items():
        assert report["correct"], (name, report["errors"])
        assert report["failed_frac"] == 0.0
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0


def test_single_workload_prints_the_contract_line():
    proc = _perf("run", "--smoke", "--workload", "paper-medium", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        got = last["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0


def test_wrong_pinned_fingerprint_fails_every_slot(tmp_path):
    pins = json.loads((HERE / "pins.json").read_text())
    pins["paper-medium"]["smoke"]["fingerprint"] = "0" * 64
    bad = tmp_path / "pins.json"
    bad.write_text(json.dumps(pins))
    out = tmp_path / "bad.json"
    proc = _perf(
        "run", "--smoke", "--workload", "paper-medium",
        "--pins", str(bad), "--out", str(out),
    )
    assert proc.returncode == 1
    last = json.loads(proc.stdout.splitlines()[-1])
    assert not last["correct"]
    assert last["failed"] == last["attempted"] > 0
    assert json.loads(out.read_text())["workloads"]["paper-medium"]["failed_frac"] == 1.0


def test_compare_of_identical_results_reports_no_worse(smoke):
    _, out = smoke
    proc = _perf("compare", str(out), str(out))
    assert proc.returncode == 0, proc.stdout
    assert " worse" not in proc.stdout
    assert " same" in proc.stdout


def test_compare_flags_a_regression_beyond_the_bound(smoke, tmp_path):
    _, out = smoke
    result = json.loads(out.read_text())
    slower = result["workloads"]["paper-medium"]["e2e"]["slots_per_s"]
    for key in ("value", "q1", "q3"):
        slower[key] *= 0.5
    slower["values"] = [v * 0.5 for v in slower["values"]]
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(result))
    proc = _perf("compare", str(out), str(worse))
    assert proc.returncode == 1
    assert any(
        "paper-medium" in line and "slots_per_s" in line and line.endswith("worse")
        for line in proc.stdout.splitlines()
    )


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = _perf(
        "run", "--workload", "paper-medium", "--seed", "0", "--seconds", "1",
        "--trace", "0",
        cwd=tmp_path, script=tmp_path / "perfbench" / "perf.py", timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

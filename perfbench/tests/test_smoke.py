"""Smoke test of the benchmark: every workload at tiny size, traced and untraced.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_and_checks_pass(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        value = printed["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), metric["name"]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture
def workloads_module(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    return workloads


def test_checks_reject_broken_tallies(workloads_module, tmp_path):
    from mwspoilers import cli

    campaign = workloads_module.WORKLOADS["spatial-bloc"]
    chunk = campaign.prepare(campaign.default_seed, True, tmp_path).chunks[0]
    assert cli.main(list(chunk.argv)) == 0
    data = chunk.outputs[0].read_bytes()
    campaign.check(chunk, [data])

    header, row = data.decode().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    broken = dict(fields, trials_used=str(int(fields["trials_used"]) - 1))
    with pytest.raises(workloads_module.CheckError, match="used"):
        campaign.check(chunk, [f"{header}\n{','.join(broken.values())}\n".encode()])
    spoiled = dict(fields, spoiler="0.1")
    with pytest.raises(workloads_module.CheckError, match="spoiler"):
        campaign.check(chunk, [f"{header}\n{','.join(spoiled.values())}\n".encode()])

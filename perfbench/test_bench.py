"""Smoke tests of the benchmark itself: a cut-down pass of every workload
through the correctness gate, the metric names and units against
BENCHMARK.json, and the seeded inputs.

    python3 -m pytest perfbench -q        # from the repository root

They take about a minute: every pass starts real conjlab processes.
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
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402

# The cheapest groups of each analyze workload, covering several verdicts.
CUT_DOWN = {
    "verify_corpus": None,
    "analyze_matrix": ["sl2_13", "type3_11_5"],
    "analyze_perm": ["c7_x_heis3", "remark3_x_c3"],
}


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END_UNITS
    assert _declared("per_layer") == run.PER_LAYER_UNITS


def test_expectation_table_agrees_with_conjlab_oracles():
    assert inputs.oracle_mismatches() == []


@pytest.mark.parametrize("workload", ["analyze_matrix", "analyze_perm"])
def test_seed_changes_spec_bytes_but_no_expected_value(workload):
    first = inputs.spec_bytes(workload, 1)
    assert inputs.spec_bytes(workload, 1) == first
    second = inputs.spec_bytes(workload, 2)
    assert first.keys() == second.keys()
    assert all(first[name] != second[name] for name in first)
    groups = CUT_DOWN[workload]
    for seed in (1, 2):
        result = run.run(ROOT, workload, seed, 0, trace=False, groups=groups)
        assert result["problems"] == [] and result["correct"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_cut_down_pass(workload):
    result = run.run(ROOT, workload, 3, 0, trace=True, groups=CUT_DOWN[workload])
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("per_layer")
    assert metrics["trace.count_mismatches"]["value"] == 0
    assert metrics["cli.run_command.total_s"]["value"] > 0
    if workload == "verify_corpus":
        assert metrics["verify.checks.run"]["value"] > 400
        assert metrics["verify.checks.failed"]["value"] == 0
        assert metrics["groups.normal_subgroups.found"]["value"] > 0
    else:
        assert metrics["specio.analysis_report.total_s"]["value"] > 0
        assert metrics["groups.normal_subgroups.fills"]["value"] < 10


def test_command_line_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "verify_corpus",
         "--seed", "4", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    for name, unit in _declared("end_to_end").items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name}: ") and line.endswith(f" {unit}")
                   for line in lines[:-1])
    assert any(line.startswith("failed_frac: 0 ") for line in lines)


def test_fails_without_a_result_where_there_are_no_sources():
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze_perm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""

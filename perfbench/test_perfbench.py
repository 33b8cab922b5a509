"""The benchmark's own test: metric table, smoke pass, repeatable counts.

    python3 -m pytest -q perfbench/test_perfbench.py

Every workload runs at small sizes (``--smoke``) in a process of its own,
once untraced and three times traced (seed 1 twice, then seed 2).
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import LAYER_MOVES  # noqa: E402

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# The computed counts: span call counts, entries, dense ops, cross terms, trials, bytes.
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(workload: str, seed: int, trace: int) -> dict:
    done = _run(workload, seed, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[kind]}
    return result


def test_metric_table_matches_benchmark_json():
    assert set(LAYER_MOVES) == {m["name"] for m in SPEC["per_layer"]}
    assert set(WORKLOADS) == set(run.THREADS)
    for blas, workers in run.THREADS.values():
        assert blas * workers <= run.NPROC


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_pass_and_repeatable_counts(workload):
    plain = _result(workload, 1, 0)
    assert plain["metrics"]["ok_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    traced = [_result(workload, seed, 1)["metrics"] for seed in (1, 1, 2)]
    counts = [{n: metrics[n]["value"] for n in COUNTS} for metrics in traced]
    assert counts[0] == counts[1] == counts[2]
    assert any(counts[0].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

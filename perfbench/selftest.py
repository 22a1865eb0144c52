"""The benchmark's own fast-mode test.

    python3 -m pytest -q perfbench/selftest.py

It checks that every workload prints every declared metric with its
unit, untraced and traced; that a transfer whose recorded stream was
truncated is counted as failed, not dropped; and that the benchmark
refuses to run where the program's sources are missing.  The file name
keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import shutil
import subprocess
import sys
from typing import Tuple

import pytest

from perfbench import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _run(*argv: str) -> Tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def test_workloads_match_the_benchmark_file() -> None:
    from perfbench import transfers

    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)
    assert sorted(transfers.WORKLOADS) == sorted(run.TRANSFER_WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload: str,
                                           trace: int) -> None:
    code, result = _run("--workload", workload, "--seed", "3",
                        "--seconds", "0", "--trace", str(trace), "--fast")
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"]
                       for metric in declared}
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values()), result


def test_truncated_stream_counts_as_a_failed_transfer(
        tmp_path: pathlib.Path) -> None:
    from perfbench import transfers

    outcome = transfers.run_workload(
        "file-raptor-256", seed=3, seconds=0, trace=False, fast=True,
        workdir=tmp_path, truncate_first=True)
    assert outcome.correct  # an exception, not wrong bytes
    assert outcome.failed == 1 and outcome.attempted >= 2
    share = 1 / outcome.attempted
    assert outcome.shown["failed_frac"].value == pytest.approx(share)
    assert outcome.gated["completed_frac"].value == pytest.approx(1 - share)


def test_refuses_to_run_without_the_sources(tmp_path: pathlib.Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""

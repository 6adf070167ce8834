"""Self-test of the benchmark command: whole runs in fresh processes.

Slow (about two minutes, most of it two traced ``oracle-verify`` runs):

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from conftest import BENCH_DIR, REPO_ROOT

RUN = os.path.join(BENCH_DIR, "run.py")
# counts that must be identical for the same code and seed
REPEAT_COUNTERS = ("channel.entries", "channel.gain_gmm.calls",
                   "quadrature.integrate_disk.calls", "quadrature.points", "oracle.rays")


def _bench(*args, cwd=REPO_ROOT):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    return proc, proc.stdout.strip().splitlines()


def _result(*args):
    proc, lines = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_repeat_exactly_across_processes(workload):
    # the default seed also compares every output with the stored reference
    first, second = (_result("--workload", workload, "--seed", str(run.DEFAULT_SEED),
                             "--seconds", "1", "--trace", "1") for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.PER_LAYER)
    for name in REPEAT_COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name
    work = first["metrics"]
    assert sum(work[name]["value"] for name in REPEAT_COUNTERS) > 0


def test_untraced_run_reports_the_end_to_end_metrics():
    result = _result("--workload", "light-points", "--seed", "11", "--seconds", "1",
                     "--trace", "0")
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    proc, lines = _bench("--workload", "exact-tilt", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)

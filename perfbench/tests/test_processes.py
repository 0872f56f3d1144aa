"""No process started by the benchmark outlives it, every run prints
every metric that BENCHMARK.json names for its trace mode, and a
checkout without the program's sources fails fast without printing a
result."""

import ctypes
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
RUN = BENCH / "run.py"


def _children_of(pid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError):
                continue
            if ppid == pid:
                out.append(int(entry))
    return out


@pytest.fixture
def subreaper():
    """Make this process adopt the benchmark's orphans, so one that
    outlives the benchmark shows up as our child (alive or zombie)."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(36, 1, 0, 0, 0) != 0:     # PR_SET_CHILD_SUBREAPER
        pytest.skip("cannot become a child subreaper")
    yield
    libc.prctl(36, 0, 0, 0, 0)


@pytest.mark.parametrize("workload, trace",
                         [("data-centric", 0), ("text-centric", 1)])
def test_workload_prints_every_metric_and_leaves_no_process(
        subreaper, workload, trace):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=BENCH.parent)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"]
              for m in manifest["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == wanted
    assert _children_of(os.getpid()) == []


def test_checkout_without_sources_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"),
         "--workload", "data-centric", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""

"""Every in-process benchmark operation reproduces its recorded digest.

``perfbench/reference.json`` holds the sha256 of the canonical output of
every input any benchmark seed can draw.  Replaying every workload here
makes byte-identical output a test, not only a benchmark gate.  The CLI
workload starts one ``python -m torfan.cli`` process per call and checks
its exit code and stdout bytes (about 2 s for its 23 calls); its
``render`` call writes into the git-ignored ``.perfbench-out/``.  The
benchmark worker's own set-up (``worker.py --setup-only``) must also
succeed for every workload.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torfan

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ["catalog-grid", "brieskorn-ladder", "octant-cones", "cli-mix"]


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("workloads")


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_outputs_match_the_reference_digests(workloads, name):
    recorded = workloads.load_reference()[name]
    workload = workloads.WORKLOADS[name]()
    workload.setup(torfan, 0)
    ops = workload.variants()
    assert {op.key for op in ops} == set(recorded)
    mismatched = [
        op.key for op in ops
        if workloads.digest(op.output(op.run())) != recorded[op.key]
    ]
    assert mismatched == []


@pytest.mark.parametrize("name", WORKLOADS)
def test_benchmark_worker_sets_up_every_workload(name):
    # the worker's set-up calls names of its own choosing (torfan.cli.load_schema,
    # fixture_instances, ...); a deleted one fails every benchmark run
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"),
         "--workload", name, "--seed", "0", "--setup-only"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ready" in proc.stdout.splitlines()

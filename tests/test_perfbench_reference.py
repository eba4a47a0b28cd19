"""Every in-process benchmark operation reproduces its recorded digest.

``perfbench/reference.json`` holds the sha256 of the canonical output of
every input any benchmark seed can draw.  Replaying every workload here
makes byte-identical output a test, not only a benchmark gate.  The CLI
workload starts one ``python -m torfan.cli`` process per call and checks
its exit code and stdout bytes (about 2 s for its 23 calls); its
``render`` call writes into the git-ignored ``.perfbench-out/``.
"""

import importlib
from pathlib import Path

import pytest

import torfan

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("workloads")


@pytest.mark.parametrize(
    "name", ["catalog-grid", "brieskorn-ladder", "octant-cones", "cli-mix"]
)
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

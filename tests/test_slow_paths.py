"""A smoke test of ``tools/slow_paths.py``: one small witness, run with this
repository as both sides of a pair, and once under a timeout too short for
it to finish."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _slow_paths(*args: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "slow_paths.py"), str(ROOT), str(ROOT), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_slow_paths_reports_exit_time_memory_and_stdout_identity():
    header, rule, row = _slow_paths("--pairs", "1", "--witness", "resolve-101")
    assert header == "| witness | parent | change | same stdout |"
    assert rule == "| --- | --- | --- | --- |"
    cells = [cell.strip() for cell in row.strip("|").split("|")]
    assert cells[0] == "`torfan resolve 'x^101+y^103+z^107'`"
    for cell in cells[1:3]:
        # resolve exits 1 here: the fan is regular, but some rays are
        # reducible in their source cone
        assert cell.startswith("exit 1, ") and cell.endswith(" MB"), cell
        assert float(cell.split()[-2]) > 1, cell  # a Python child's peak RSS
    assert cells[3] == "yes"


def test_slow_paths_reports_a_killed_run_as_exit_124():
    *_, row = _slow_paths("--pairs", "1", "--witness", "resolve-101", "--timeout", "0.01")
    cells = [cell.strip() for cell in row.strip("|").split("|")]
    assert cells[1].startswith("exit 124, ") and cells[2].startswith("exit 124, ")

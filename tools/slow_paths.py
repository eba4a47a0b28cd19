"""The slow-path CLI witnesses, run in alternating parent/change pairs under
a timeout, summed up as CHANGES.md table rows.

Usage:

    python3 tools/slow_paths.py PARENT CHANGE [--pairs 3] [--timeout 20] [--witness NAME]...

PARENT and CHANGE are two checkouts of the repository, for example a
``git archive`` of the parent commit and a copy of the working tree.  Both
are compiled first (``python -m compileall -q src``).  Each witness is one
``torfan`` call, run as ``python -m torfan.cli ARGS`` with ``PYTHONPATH``
set to the tree's ``src``; ``--witness`` picks witnesses by name (by
default all of ``WITNESSES``).  Pair i (from 1) runs the parent first when
i is odd and the change first when it is even.  A run still going after
``--timeout`` seconds is killed and reported as exit 124, as ``timeout(1)``
does.

Each run's result goes to stderr as it lands: exit code, wall time and
the peak RSS of that child alone, read from ``os.wait4``.  stdout gets a
table header and one row per witness: for each side the exit codes, the
median wall time (with its range) and the largest peak RSS, and whether
every run of both sides wrote the same stdout bytes.  The exit status is
0; a witness that times out or exits non-zero is a result, not an error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import shlex
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

WITNESSES = {
    "a2-1000": ["verify", "A2", "--k", "1", "--m", "1000"],
    "a2-2000": ["verify", "A2", "--k", "1", "--m", "2000"],
    "hilbert-100003": ["hilbert", "<(1,0,0),(0,1,0),(1000,1001,100003)>"],
    "hilbert-1000003": ["hilbert", "<(1,0,0),(0,1,0),(1000,1001,1000003)>"],
    "profile-100003": ["profile", "<(1,0,0),(0,1,0),(1000,1001,100003)>"],
    "resolve-101": ["resolve", "x^101+y^103+z^107"],
    "a2-100000": ["verify", "A2", "--k", "1", "--m", "100000"],
    "resolve-1000": ["resolve", "x^1000+y^1001+z^1003"],
}


def _kill(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def _run(tree: Path, args: list[str], timeout: float) -> dict:
    """One CLI call in tree: exit code (124 when killed at the timeout),
    wall seconds, the child's peak RSS in MB and the sha256 of its stdout."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "torfan.cli", *args],
            cwd=tree, env=env, stdout=out, stderr=subprocess.DEVNULL,
        )
        # os.kill, not proc.kill: Popen.kill polls, and a poll from the timer
        # thread could reap the child before wait4 reads its usage
        timer = threading.Timer(timeout, _kill, (proc.pid,))
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    return {
        "exit": 124 if proc.returncode == -signal.SIGKILL else proc.returncode,
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # KB on Linux
        "stdout": digest,
    }


def _cell(runs: list[dict]) -> str:
    exits = "/".join(sorted({str(r["exit"]) for r in runs}))
    walls = [r["wall_s"] for r in runs]
    rss = max(r["peak_rss_mb"] for r in runs)
    return (
        f"exit {exits}, {statistics.median(walls):.2f} s "
        f"({min(walls):.2f}–{max(walls):.2f}), {rss:.0f} MB"
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--timeout", type=float, default=20.0)
    ap.add_argument("--witness", action="append", choices=sorted(WITNESSES))
    a = ap.parse_args()

    for tree in (a.parent, a.change):
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True)
    print("| witness | parent | change | same stdout |")
    print("| --- | --- | --- | --- |")
    for name in a.witness or WITNESSES:
        args = WITNESSES[name]
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(a.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                r = _run(getattr(a, side).resolve(), args, a.timeout)
                runs[side].append(r)
                print(
                    f"{name} pair {i + 1} {side}: exit {r['exit']} "
                    f"{r['wall_s']:.2f} s {r['peak_rss_mb']:.1f} MB",
                    file=sys.stderr,
                    flush=True,
                )
        same = len({r["stdout"] for rs in runs.values() for r in rs}) == 1
        print(
            f"| `torfan {shlex.join(args)}` | {_cell(runs['parent'])} | "
            f"{_cell(runs['change'])} | {'yes' if same else 'no'} |",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

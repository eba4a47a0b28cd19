"""Alternating parent/change pairs of the committed benchmark, summed up as
one CHANGES.md table row per workload.

Usage:

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--pairs 10] [--seconds 25] [--out FILE]

PARENT and CHANGE are two checkouts of the repository, for example a
``git archive`` of the parent commit and a copy of the working tree.  Both
are compiled first (``python -m compileall -q src perfbench``), so that no
run measures byte compilation.  Pair i (from 1) runs the benchmark command
of PARENT's BENCHMARK.json with ``--workload W --seed 10+i --seconds S`` in
each tree: the parent first when i is odd, the change first when it is
even.  W is a workload name or ``all``; ``--workload`` may be repeated.
Nothing is added to the environment or the command line of the runs.

Each run's result goes to stderr as it lands.  stdout gets a table header
and then one row per workload: for each end-to-end metric of BENCHMARK.json,
parent median -> change median (pairs the change won, parent IQR, change in
percent).  With ``--out FILE``, FILE gets the same as JSON, rewritten
after each workload: every run's result under ``runs`` and, under
``medians``, each workload's cells as numbers.  The exit status is 1 when
any run was not ``correct`` or had a failed operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

FIRST_SEED = 11


def _run(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(args, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{tree}: {' '.join(args)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _summary(parent: list[float], change: list[float], better: str) -> dict:
    before, after = statistics.median(parent), statistics.median(change)
    wins = sum((c > p) if better == "higher" else (c < p) for p, c in zip(parent, change))
    return {
        "parent": before,
        "change": after,
        "wins": wins,
        "pairs": len(parent),
        "parent_iqr": _iqr(parent),
        "percent": 100 * (after - before) / before if before else 0.0,
    }


def _cell(m: dict) -> str:
    return (
        f"{m['parent']:.4g} → {m['change']:.4g} "
        f"({m['wins']}/{m['pairs']}, IQR {m['parent_iqr']:.4g}, {m['percent']:+.1f}%)"
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--out", type=Path)
    a = ap.parse_args()

    bench = json.loads((a.parent / "BENCHMARK.json").read_text())
    command = bench["command"]
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    names = [w["name"] for w in bench["workloads"]]
    workloads = [w for name in a.workload for w in (names if name == "all" else [name])]
    for tree in (a.parent, a.change):
        subprocess.run(
            [command[0], "-m", "compileall", "-q", "src", "perfbench"], cwd=tree, check=True
        )

    print("| workload | " + " | ".join(name for name, _ in metrics) + " |")
    print("| --- |" + " --- |" * len(metrics))
    clean = True
    saved: dict[str, object] = {"seconds": a.seconds, "runs": [], "medians": {}}
    for workload in workloads:
        values: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
        for i in range(a.pairs):
            seed = FIRST_SEED + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                r = _run(getattr(a, side), command, workload, seed, a.seconds)
                saved["runs"].append({"workload": workload, "pair": i + 1, "side": side, "result": r})
                clean = clean and r["correct"] and r["failed"] == 0
                for name, _ in metrics:
                    values[side].setdefault(name, []).append(r["metrics"][name]["value"])
                shown = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                print(
                    f"{workload} pair {i + 1} seed {seed} {side}: correct={r['correct']} "
                    f"failed={r['failed']} {shown}",
                    file=sys.stderr,
                    flush=True,
                )
        summaries = {
            name: _summary(values["parent"][name], values["change"][name], better)
            for name, better in metrics
        }
        saved["medians"][workload] = summaries
        if a.out:
            a.out.write_text(json.dumps(saved, indent=1) + "\n")
        cells = (_cell(m) for m in summaries.values())
        print(f"| {workload} | " + " | ".join(cells) + " |", flush=True)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())

"""perfbench: the committed benchmark of the torfan pipeline.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or ``all`` to run each in turn.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it give every
metric by name, with its unit and sample count.

Workloads (one caller, closed loop: each operation is issued when the
previous one returns; operations run in whole rounds until S seconds pass):

- ``catalog-grid``: ``verify(family, params)`` on the 45 default-grid
  instances, order shuffled by the seed.  The paper's own traffic; its cost
  is in cone construction.
- ``brieskorn-ladder``: parse, dual fan, Hilbert basis and profile points
  per cone, ``refine_fan``, ``groebner_fan`` and ``jet_equations`` (m=3) on
  x^a+y^b+z^c for ten pairwise-coprime triples.  Large simplicial cones:
  the bounding-box enumerations dominate.
- ``octant-cones``: ``hilbert_basis``, ``regular_refinement`` and profile
  points of one octant cone with 3-5 rays, half of them non-simplicial;
  the seed permutes the coordinates of a fixed pool of cones.
- ``cli-mix``: one ``python -m torfan.cli`` process per operation, every
  verb plus malformed input (exit 2) and ``verify ELLIPTIC-1`` (exit 1).

End-to-end metrics (``--trace 0``): ``setup_s`` is the median over
SETUP_SAMPLES fresh interpreters of the time until the first operation is
ready (``import torfan``, lazy data loads, input generation);
``ops_per_s`` is operations per second of operation time;
``latency_p50_s`` and ``latency_p90_s`` are quantiles of single
operations; ``peak_rss_mb`` is the worker's peak resident memory (of its
CLI children for ``cli-mix``).  ``error_rate`` is printed but not in the
JSON metrics, since it is 0 on a correct program; ``failed`` carries it.
All processes run on one CPU, and every time is scaled to nominal CPU
speed by a calibration loop run next to it (see ``speed.py``); the printed
speed factor is wall time over scaled time.

Every output is compared with ``perfbench/reference.json`` (regenerate it
with ``make_reference.py``), and the in-process workloads also check the
certificates of what they return.  ``--trace 1`` runs untraced and traced
rounds of the same inputs in turn and reports per-layer calls, self times,
work counters and the tracing overhead; see ``tracer.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import speed
from workloads import child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalog-grid", "brieskorn-ladder", "octant-cones", "cli-mix")
SETUP_SAMPLES = 7  # the timed worker's own set-up is one of them
DEADLINE_S = 170.0


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _run_worker(name: str, args: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Run one worker to its end; returns (seconds until ready, rest of stdout).

    The worker leads its own process group, so that on the deadline it is
    killed together with any CLI process it has running.
    """
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", name, *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        timer = threading.Timer(max(0.0, deadline - perf_counter()), _kill_group, (proc,))
        timer.start()
        try:
            first = proc.stdout.readline()
            ready = perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                _kill_group(proc)
                proc.wait()
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"{name}: worker {' '.join(args)} exited with code {code}")
    return ready, rest


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    env = child_env()
    setups = []

    def calibrations() -> list[float]:
        return [speed.calibration_s() for _ in range(3)]

    def probe() -> None:
        before = calibrations()
        ready, _ = _run_worker(name, ["--seed", str(seed), "--setup-only"], env, deadline)
        setups.append(speed.scale(ready, before + calibrations()))

    # Probes before and after the timed worker, so that set-up samples come
    # from different moments of the run, as the operation samples do.
    for _ in range(SETUP_SAMPLES // 2):
        probe()
    before = calibrations()
    ready, out = _run_worker(
        name,
        ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        env,
        deadline,
    )
    setups.append(speed.scale(ready, before))
    while len(setups) < SETUP_SAMPLES:
        probe()
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = len(setups)
    return result


def end_to_end(r: dict) -> dict:
    """The end-to-end metrics with their units and sample counts.

    Latency quantiles are taken over the distinct inputs of the run, each
    at its median over the rounds.  A round holds every input once, so this
    weighs inputs as a pooled quantile would, but without depending on the
    noisiest sample of the input that happens to sit at the quantile.
    """
    lat = [s for _, s in r["latencies"]]
    by_input: dict[str, list[float]] = {}
    for key, s in r["latencies"]:
        by_input.setdefault(key, []).append(s)
    typical = [statistics.median(v) for v in by_input.values()]
    n = f"{len(lat)} operations on {len(typical)} inputs"
    return {
        "setup_s": (r["setup_s"], "s", f"{r['setup_samples']} set-ups"),
        "ops_per_s": (len(lat) / sum(lat), "1/s", n),
        "latency_p50_s": (statistics.median(typical), "s", n),
        "latency_p90_s": (statistics.quantiles(typical, n=10, method="inclusive")[-1], "s", n),
        "peak_rss_mb": (r["peak_rss_kb"] / 1024, "MB", "1 process"),
    }


LAYER_UNITS = (("_s", "s"), ("_ratio", "ratio"), ("_yield", "ratio"))


def per_layer(r: dict) -> dict:
    out = {}
    for key, value in r["layers"].items():
        unit = next((u for suffix, u in LAYER_UNITS if key.endswith(suffix)), "count")
        out[key] = (value, unit, "median of traced rounds")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the torfan pipeline.")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "torfan" / "__init__.py").is_file():
        print(f"error: no torfan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    speed.pin_to_one_cpu()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = perf_counter() + DEADLINE_S * len(names)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    for name in names:
        try:
            r = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        attempted += r["attempted"]
        failed += r["failed"]
        correct = correct and r["failed"] == 0 and r.get("counters_repeat", True)
        for message in r["messages"]:
            print(f"{name}: {message}", file=sys.stderr)
        values = per_layer(r) if args.trace else end_to_end(r)
        rate = r["failed"] / r["attempted"]
        print(f"{name}: error_rate {rate:.4f} ({r['failed']} of {r['attempted']} operations)")
        if r["latencies"]:
            scaled = sum(s for _, s in r["latencies"])
            print(
                f"{name}: speed factor {r['wall_s'] / scaled:.4f} "
                f"(wall time of the operations over their time at nominal speed)"
            )
        for key, (value, unit, n) in values.items():
            print(f"{name}: {key} {value:.6g} {unit} ({n})")
            full = key if len(names) == 1 else f"{name}.{key}"
            metrics[full] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

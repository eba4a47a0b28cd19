"""One benchmark process: set up a workload, then run it as a closed loop.

Started by ``run.py`` with the repo's ``src`` on ``PYTHONPATH``.  After
set-up it prints ``ready``; with ``--setup-only`` it stops there, otherwise
it runs whole rounds until ``--seconds`` have passed and prints one JSON
line with the raw samples.  With ``--trace 1`` untraced and traced rounds
alternate, and the line carries the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from time import perf_counter

import speed
import tracer as tracing
import workloads


def _layer_metrics(summary: dict, startup_s: float) -> dict:
    """Per-layer values of one traced round, named as in BENCHMARK.json."""
    out = {}
    spans = summary["spans"]
    names = [f"{m}.{f}" for m, f in tracing.SPANS]
    for name in (tracing.ALIASES.get(n, n) for n in names):
        row = spans.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
    out.update(summary["counters"])
    candidates = summary["counters"]["cones.candidates"]
    elements = summary["counters"]["cones.hilbert_elements"]
    out["cones.hilbert_yield"] = elements / candidates if candidates else 0.0
    out["cli.startup_s"] = startup_s
    return out


def _merge(summaries: list[dict]) -> dict:
    merged = {"spans": {}, "counters": dict.fromkeys(tracing.EXACT_COUNTERS, 0)}
    for s in summaries:
        for name, row in s["spans"].items():
            acc = merged["spans"].setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for key, value in s["counters"].items():
            merged["counters"][key] += value
    return merged


def _failure(op, result, reference: dict) -> str | None:
    problems = op.check(result)
    expected = reference.get(op.key)
    if expected is None:
        problems.insert(0, "no reference output")
    elif workloads.digest(op.output(result)) != expected:
        problems.insert(0, "output differs from the reference")
    return f"{op.key}: {'; '.join(problems)}" if problems else None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import torfan
    import torfan.cli

    # Lazy loads happen here, so that no timed operation pays for them.
    torfan.cli.load_schema()
    torfan.fixture_instances()
    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(torfan, args.seed)
    reference = workloads.load_reference()[args.workload]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer()
    # One entry per operation: (input, round, traced, wall s); calibrations[k]
    # holds two passes taken just before operation k, and one more pair
    # follows the last.  Operation k is scaled by the four passes around it.
    timings: list[tuple[str, int, bool, float]] = []
    calibrations: list[list[float]] = []
    traced: list[dict] = []
    spans: list[tuple] = []
    attempted = failed = 0
    messages: list[str] = []
    start = perf_counter()
    index = 0
    while True:
        is_traced = bool(args.trace) and index % 2 == 1
        # A traced run repeats one round, so that traced and untraced passes
        # do the same work and the exact counters can be compared.
        ops = workload.round(0 if args.trace else index, is_traced)
        results = []
        if is_traced:
            tracer.install()
        try:
            for op in ops:
                calibrations.append([speed.calibration_s(), speed.calibration_s()])
                error = None
                t0 = perf_counter()
                try:
                    result = op.run()
                except Exception:  # an operation that raises is a failed operation
                    result, error = None, traceback.format_exc(limit=3)
                timings.append((op.key, index, is_traced, perf_counter() - t0))
                results.append((op, result, error))
        finally:
            if is_traced:
                tracer.uninstall()

        for op, result, error in results:
            attempted += 1
            problem = f"{op.key}: raised\n{error}" if error else _failure(op, result, reference)
            if problem:
                failed += 1
                messages.append(problem)
        if is_traced:
            children = [
                r[1] for r in results if isinstance(r[1], workloads.CliResult) and r[1].trace
            ]
            summary = _merge([tracer.summary(), *(c.trace for c in children)])
            startup = sum(
                c.wall_s - c.trace["spans"].get("cli.run", {}).get("total_s", 0.0)
                for c in children
            )
            traced.append(_layer_metrics(summary, startup))
            spans = tracer.spans()
        index += 1
        if perf_counter() - start >= args.seconds and (not args.trace or len(traced) >= 2):
            break
    calibrations.append([speed.calibration_s(), speed.calibration_s()])

    scaled = [
        speed.scale(dt, calibrations[k] + calibrations[k + 1])
        for k, (_, _, _, dt) in enumerate(timings)
    ]
    out = {
        "attempted": attempted,
        "failed": failed,
        "messages": messages[:5],
        "latencies": [[t[0], s] for s, t in zip(scaled, timings) if not t[2]],
        "wall_s": sum(t[3] for t in timings if not t[2]),
    }
    if args.workload == "cli-mix":
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        mismatched = [
            key for key in tracing.EXACT_COUNTERS
            if len({t[key] for t in traced}) != 1
        ]
        if mismatched:
            out["messages"].append(f"work counters differ between traced rounds: {mismatched}")
        out["counters_repeat"] = not mismatched
        layers = {key: statistics.median_low(t[key] for t in traced) for key in traced[0]}
        round_s: dict[tuple[bool, int], float] = {}
        for s, (_, r, is_traced, _) in zip(scaled, timings):
            round_s[is_traced, r] = round_s.get((is_traced, r), 0.0) + s
        layers["trace.overhead_ratio"] = (
            statistics.median(v for (t, _), v in round_s.items() if t)
            / statistics.median(v for (t, _), v in round_s.items() if not t)
        )
        out["layers"] = layers
        workloads.OUT_DIR.mkdir(exist_ok=True)
        path = workloads.OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        with path.open("w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The parityparts benchmark: one workload, timed in fresh processes.

    python3 perfbench/run.py --workload exhaustive --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, so nothing needs installing.  Each repetition runs in
a fresh single-threaded child process (child.py), because the package
caches count tables per process and because peak RSS is per process.
The benchmark and its children share one CPU.  Rounds start until the
next one would overrun `--seconds`, with at least three untraced ones.

With `--trace 0` the result holds the end-to-end metrics: medians over
the repetitions of items per second and peak RSS, and the median set-up
time over every process start, including three set-up probes after each
repetition.  The probes also time fixed reference work, and the two time
metrics are rescaled to the reference machine speed (see REFERENCE_S).
The unscaled values are printed above the result, and every round's raw
timings go to `perfbench/out/rounds-<workload>-seed<seed>.json`.

With `--trace 1` each round runs one untraced and one traced repetition,
and the result holds the per-layer metrics (medians over traced
repetitions) and the tracing overhead.  The per-(name, parent) table and
the spans of the last traced repetition go to `perfbench/out/`.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  `attempted` counts the items checked by the
verifier, `failed` the checks it failed plus every wrong output the
benchmark's own checks found.  Exit status 0 with a result, 2 when the
checkout has no `src/parityparts` to run, 1 when a repetition crashed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = HERE / "out"
WORKLOADS = ("exhaustive", "sampled", "counting")
MIN_REPETITIONS = 3
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150
# About the time child.reference_work took in a quiet period on the
# machine the benchmark was defined on (a shared Intel Xeon vCPU at
# 2.1 GHz).  Time metrics are converted to a machine that runs the
# reference work in REFERENCE_S seconds, using the run's median reference
# time: that host's own speed drifted by ±25% over minutes, which is
# beyond the bounds.
REFERENCE_S = 0.1

# The unit of every metric run.py reports.
UNITS = {
    "items_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "core.Partition.calls": "count",
    "core.Partition.calls_per_item": "calls/item",
    "core.Partition.self_s": "s",
    "core.parity_split.calls": "count",
    "core.parity_split.self_s": "s",
    "families.enumerate_family.items": "count",
    "families.enumerate_family.self_s": "s",
    "families.in_family.calls": "count",
    "families.in_family.self_s": "s",
    "families.FamilySampler.builds": "count",
    "families.FamilySampler.build_s": "s",
    "families.FamilySampler.table_cells": "count",
    "families.unrank.calls": "count",
    "families.unrank.self_s": "s",
    "families.unrank.p50_us": "us",
    "families.unrank.p99_us": "us",
    "families.CountTable.build.calls": "count",
    "families.CountTable.build.self_s": "s",
    "families.CountTable.useful_ratio": "ratio",
    "series.series_mul.calls": "count",
    "series.series_mul.self_s": "s",
    "series.series_invert.self_s": "s",
    "series.euler_inverse_even.self_s": "s",
    "series.mul_operand_density": "ratio",
    "series.invert_operand_density": "ratio",
    "casemap.source_classify_per_member": "calls/member",
    "casemap.image_classify_per_member": "calls/member",
    "casemap.source_case_matches.self_s": "s",
    "casemap.image_case_matches.self_s": "s",
    "casemap.forward.calls": "count",
    "casemap.forward.self_s": "s",
    "casemap.backward.calls": "count",
    "casemap.backward.self_s": "s",
    "verify.self_s": "s",
    "verify.checks": "count",
    "verify.skipped": "count",
    "verify.failures": "count",
    "cli.run.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def spawn(workload: str, seed: int, mode: str) -> tuple[float, dict]:
    """Run one child; return (set-up seconds, its result).

    `-I -S` keeps the environment's site packages and PYTHON* variables
    out of the child, so set-up time is interpreter start plus the
    package import.
    """
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", "-S", str(CHILD), workload, str(seed), mode],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"{workload} {mode} repetition exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"{workload} {mode} repetition exited with status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - started, result


def repeat(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Run rounds of fresh children until the time budget is spent.

    A round is one untraced repetition followed by either one traced
    repetition or a few set-up probes.  Probes spread the set-up samples
    and the reference timings over the whole run.
    """
    begin = time.monotonic()
    rounds, durations = [], []
    while True:
        started = time.monotonic()
        setup, run = spawn(workload, seed, "run")
        rnd = {"run": run, "setups": [setup], "references": []}
        if trace:
            rnd["trace"] = spawn(workload, seed, "trace")[1]
        else:
            for _ in range(SETUP_PROBES):
                setup, probe = spawn(workload, seed, "setup")
                rnd["setups"].append(setup)
                rnd["references"].append(probe["reference_s"])
        rounds.append(rnd)
        durations.append(time.monotonic() - started)
        if run["errors"] or (trace and rnd["trace"]["errors"]):
            break
        enough = len(rounds) >= MIN_REPETITIONS or trace
        if enough and time.monotonic() - begin + statistics.median(durations) > seconds:
            break
    return rounds


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4g} / {q2:.4g} / {q3:.4g}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "parityparts" / "__init__.py").is_file():
        print(f"error: no src/parityparts under {ROOT}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)

    # One CPU for this process and its children: starts that migrate
    # between CPUs made set-up times bimodal.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    rounds = repeat(args.workload, args.seed, args.seconds, bool(args.trace))
    runs = [rnd["run"] for rnd in rounds]
    traces = [rnd["trace"] for rnd in rounds if args.trace]
    results = runs + traces
    attempted = sum(result["items"] for result in results)
    failed = sum(result["failures"] + len(result["errors"]) for result in results)
    for result in results:
        for error in result["errors"][:10]:
            print(f"wrong output: {error}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of"
          f" {'untraced and traced' if args.trace else 'untraced'} repetitions,"
          " each in a fresh process")
    print(f"  wall_s per repetition       {quartiles([r['wall_s'] for r in runs])} (q1/median/q3)")
    print(f"  cpu_s per repetition        {quartiles([r['cpu_s'] for r in runs])}")
    print(f"  items per repetition        {runs[0]['items']}")
    print(f"  fail_ratio                  {failed / attempted:g} ({failed} failed of {attempted} attempted)")

    if args.trace:
        metrics = {
            name: statistics.median(trace["metrics"][name] for trace in traces)
            for name in traces[0]["metrics"]
        }
        metrics["trace.overhead_ratio"] = statistics.median(
            trace["wall_s"] / run["wall_s"] for trace, run in zip(traces, runs))
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "metrics": metrics,
             "table": traces[-1]["table"], "spans": traces[-1]["spans"]}, indent=1))
        print(f"  per-layer table and spans written to {path.relative_to(ROOT)}")
        print(f"  {'name':34} {'parent':34} {'calls':>9} {'total_s':>9} {'self_s':>9}")
        for row in traces[-1]["table"][:20]:
            print(f"  {row['name']:34} {row['parent']:34} {row['calls']:9d}"
                  f" {row['total_s']:9.4f} {row['self_s']:9.4f}")
    else:
        items_per_s = statistics.median(run["items"] / run["wall_s"] for run in runs)
        setup_s = statistics.median(s for rnd in rounds for s in rnd["setups"])
        speed = REFERENCE_S / statistics.median(r for rnd in rounds for r in rnd["references"])
        print(f"  machine speed / reference   {speed:.4g}")
        print(f"  unscaled items_per_s        {items_per_s:.6g} 1/s")
        print(f"  unscaled setup_s            {setup_s:.6g} s")
        metrics = {
            "items_per_s": items_per_s / speed,
            "peak_rss_mib": statistics.median(r["maxrss_kib"] / 1024 for r in runs),
            "setup_s": setup_s * speed,
        }
        OUT.mkdir(exist_ok=True)
        path = OUT / f"rounds-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps([
            {"wall_s": rnd["run"]["wall_s"], "cpu_s": rnd["run"]["cpu_s"],
             "items": rnd["run"]["items"], "setups": rnd["setups"],
             "references": rnd["references"]} for rnd in rounds]))
    for name, value in metrics.items():
        print(f"  {name:40} {value:.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()

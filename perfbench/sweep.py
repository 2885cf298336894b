"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --runs 10 --first-seed 1 --out perfbench/out/sweep.json

For each workload in BENCHMARK.json this runs `run.py --trace 0` once
per seed, then one `--trace 1` run at the first seed.  For every
end-to-end metric it reports the quartiles of the per-run values and the
spread, (q3 - q1) / median, next to the metric's bound.  The JSON it
writes holds every run's result, so two sweeps can be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs were wrong")
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "out" / "sweep.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable if part == "python3" else part for part in bench["command"]]
    names = [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    summary = {}
    for workload in names:
        runs = []
        for seed in seeds:
            runs.append(run(command, workload, seed, bench["run_seconds"], 0))
            shown = ", ".join(f"{name} {m['value']:.6g}" for name, m in runs[-1]["metrics"].items())
            print(f"{workload:11} seed {seed:<4} {shown}", flush=True)
        traced = run(command, workload, seeds[0], bench["run_seconds"], 1)
        metrics = {}
        for spec in bench["end_to_end"]:
            values = [r["metrics"][spec["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            metrics[spec["name"]] = {"q1": q1, "median": median, "q3": q3,
                                     "spread": (q3 - q1) / median, "bound": spec["bound"],
                                     "values": values}
            print(f"{workload:11} {spec['name']:13} median {median:<12.6g} spread"
                  f" {(q3 - q1) / median:.4f} (bound {spec['bound']})", flush=True)
        summary[workload] = {"seeds": list(seeds), "end_to_end": metrics,
                             "per_layer": {name: m["value"] for name, m in traced["metrics"].items()}}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"run_seconds": bench["run_seconds"], "workloads": summary},
                                       indent=1))


if __name__ == "__main__":
    main()

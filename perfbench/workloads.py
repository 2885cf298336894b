"""The benchmark's workloads: the `verify` command lines each one runs, and
the checks its JSON output must pass.

Every workload drives `parityparts.cli.run` with `--format json`.  The
checks read the semantic fields of the reports (`ok`, tallies, case
counts, count records) and never compare raw bytes, so reports may gain
keys without breaking the benchmark.  Pinned values in `pinned.json` were
produced by the program at the commit that added the benchmark.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINNED = json.loads((Path(__file__).resolve().parent / "pinned.json").read_text())

# The heaviest band of weights at or below the exhaustive acceptance bound of 60.
EXHAUSTIVE_WEIGHTS = range(55, 61)
# Spot weights where the witnesses and case 15 begin, plus one deep weight
# whose O(n^2) sampler tables set the peak memory.
SPOT_WEIGHTS = (373, 374, 375)
SPOT_DRAWS = 1000
DEEP_WEIGHT = 2000
DEEP_DRAWS = 100
COUNTING_RANGE = (50, 3000)
# The seed for which the sampled per-case tallies are pinned.
DEFAULT_SEED = 0

# Smallest weight at which each case's map and inverse are defined (the paper's table).
CASE_MIN_WEIGHT = {
    1: 1, 2: 12, 3: 16, 4: 21, 5: 5, 6: 35, 7: 54, 8: 20, 9: 23,
    10: 83, 11: 7, 12: 95, 13: 159, 14: 227, 15: 373, 16: 47, 17: 59,
}

def commands(workload: str, seed: int) -> list[list[str]]:
    """The argv lists passed to `cli.run`, in order, for one repetition."""
    if workload == "exhaustive":
        lo, hi = EXHAUSTIVE_WEIGHTS[0], EXHAUSTIVE_WEIGHTS[-1]
        calls = [["verify", "--mode", "exhaustive", "--from", str(lo), "--to", str(hi)]]
    elif workload == "sampled":
        calls = [
            ["verify", "--mode", "sampled", "--from", str(SPOT_WEIGHTS[0]),
             "--to", str(SPOT_WEIGHTS[-1]), "--samples", str(SPOT_DRAWS), "--seed", str(seed)],
            ["verify", "--mode", "sampled", "--from", str(DEEP_WEIGHT),
             "--to", str(DEEP_WEIGHT), "--samples", str(DEEP_DRAWS), "--seed", str(seed)],
        ]
    elif workload == "counting":
        lo, hi = COUNTING_RANGE
        calls = [["verify", "--mode", "inequality", "--from", str(lo), "--to", str(hi),
                  "--method", "both"]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [argv + ["--format", "json"] for argv in calls]


def items(workload: str) -> int:
    """The work one repetition asks for: members visited, draws checked or
    weights compared."""
    if workload == "exhaustive":
        return sum(sum(pair) for pair in PINNED["exhaustive"]["family_counts"].values())
    if workload == "sampled":
        return len(SPOT_WEIGHTS) * SPOT_DRAWS + DEEP_DRAWS
    return COUNTING_RANGE[1] - COUNTING_RANGE[0] + 1


def check(workload: str, seed: int, results: list[tuple[int, str]]) -> tuple[int, list[str]]:
    """Check one repetition's outputs, given (exit status, stdout) per call.

    Returns the number of failed checks the reports list, and one message
    per wrong output found.
    """
    errors: list[str] = []
    reports = []
    for argv, (status, text) in zip(commands(workload, seed), results):
        if status != 0:
            errors.append(f"{' '.join(argv[:3])}: exit status {status}")
        try:
            reports.extend(json.loads(text))
        except json.JSONDecodeError as exc:
            errors.append(f"{' '.join(argv[:3])}: output is not JSON ({exc})")
    try:
        failures = sum(len(report["failures"]) for report in reports)
        for report in reports:
            if report["ok"] is not True:
                errors.append(f"report {report['mode']} n={report['n_lo']}: ok is not true")
        if workload == "exhaustive":
            _check_exhaustive(reports, errors)
        elif workload == "sampled":
            _check_sampled(reports, seed, errors)
        else:
            _check_counting(reports, errors)
    except (KeyError, TypeError, ValueError) as exc:
        failures = 0
        errors.append(f"malformed report: {exc!r}")
    return failures, errors


def _by_weight(reports: list[dict], mode: str, weights, errors: list[str]) -> dict[int, dict]:
    found = {report["n_lo"]: report for report in reports if report["mode"] == mode}
    if sorted(found) != sorted(weights) or len(reports) != len(weights):
        errors.append(f"{mode}: expected one report per weight {list(weights)}, got {sorted(found)}")
    return found


def _check_exhaustive(reports: list[dict], errors: list[str]) -> None:
    pinned = PINNED["exhaustive"]
    for n, report in _by_weight(reports, "exhaustive", EXHAUSTIVE_WEIGHTS, errors).items():
        source_total = pinned["family_counts"][str(n)][0]
        per_case, case_counts = report["per_case"], report["case_counts"]
        tested = sum(tally["tested"] for tally in per_case.values())
        if tested != source_total:
            errors.append(f"exhaustive n={n}: {tested} source members tested, expected {source_total}")
        for case, (source, image) in case_counts.items():
            if n >= CASE_MIN_WEIGHT[int(case)] and source != image:
                errors.append(f"exhaustive n={n} case {case}: {source} source vs {image} image members")
        if per_case != pinned["per_case"][str(n)]:
            errors.append(f"exhaustive n={n}: per-case tallies differ from the pinned ones")
        if case_counts != pinned["case_counts"][str(n)]:
            errors.append(f"exhaustive n={n}: case counts differ from the pinned ones")


def _check_sampled(reports: list[dict], seed: int, errors: list[str]) -> None:
    draws = {n: SPOT_DRAWS for n in SPOT_WEIGHTS}
    draws[DEEP_WEIGHT] = DEEP_DRAWS
    for n, report in _by_weight(reports, "sampled", draws, errors).items():
        per_case = report["per_case"]
        tested = sum(tally["tested"] for tally in per_case.values())
        if tested != draws[n]:
            errors.append(f"sampled n={n}: {tested} members tested, expected {draws[n]}")
        for case, tally in per_case.items():
            if tally["passed"] != tally["tested"] or tally["skipped"]:
                errors.append(f"sampled n={n} case {case}: tally {tally} is not all passed")
        if seed == DEFAULT_SEED and per_case != PINNED["sampled_seed0"][str(n)]:
            errors.append(f"sampled n={n}: per-case tallies differ from the pinned ones")


def _check_counting(reports: list[dict], errors: list[str]) -> None:
    lo, hi = COUNTING_RANGE
    pinned = PINNED["counting"]
    records = []
    for report in _by_weight(reports, "inequality", [lo], errors).values():
        records = report["inequalities"]
    if [record["n"] for record in records] != list(range(lo, hi + 1)):
        errors.append(f"counting: records do not cover {lo}..{hi} in order")
    digest = hashlib.sha256()
    for record in records:
        digest.update(f"{record['n']},{record['count_eu_od']},{record['count_od_eu']}\n".encode())
        if not record["count_eu_od"] > record["count_od_eu"] or record["strict"] is not True:
            errors.append(f"counting n={record['n']}: inequality not strict")
        spot = pinned["spot"].get(str(record["n"]))
        if spot is not None and spot != [record["count_eu_od"], record["count_od_eu"]]:
            errors.append(f"counting n={record['n']}: counts differ from the pinned ones")
    if digest.hexdigest() != pinned["sha256"]:
        errors.append("counting: count records differ from the pinned digest")

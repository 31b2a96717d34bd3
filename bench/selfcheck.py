"""Repeatability evidence: is the benchmark steady enough for its own bounds?

``python3 -m bench.selfcheck`` (repository root, ``PYTHONPATH=src``) runs, on
unchanged code and for every workload,

* **two sets of three** full invocations on the default seed, alternating
  between the sets, and requires for every end-to-end metric that the two
  set medians differ by less than half the metric's bound and that the
  range over all six invocations stays inside the bound; and
* **ten invocations on ten different seeds**, and requires the
  interquartile range of every metric — as a share of the median — to stay
  within the bound (the acceptance rule of the benchmark's driver); it also
  marks where the spread exceeds a *third* of the bound, the margin the
  driver asks builders to aim for.

It prints the table committed as ``bench/REPEATABILITY.md`` and exits
non-zero when a rule is broken.  About 35 minutes.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SAME_SEED = 13
SPREAD_SEEDS = range(101, 111)


def invoke(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    """One full ``--trace 0`` invocation; its end-to-end metrics."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def same_seed_rows(workload: str, runs: List[Dict[str, float]], bounds: Dict[str, float]):
    sets = [runs[0::2], runs[1::2]]
    rows, ok = [], True
    for name, bound in bounds.items():
        medians = [statistics.median(run[name] for run in runs) for runs in sets]
        every = [run[name] for runs in sets for run in runs]
        centre = statistics.median(every)
        gap = abs(medians[0] - medians[1]) / centre
        spread = (max(every) - min(every)) / centre
        passed = gap < bound / 2 and spread <= bound
        ok = ok and passed
        rows.append(
            f"| {workload} | {name} | {medians[0]:.4g} | {medians[1]:.4g} | "
            f"{gap:.2%} | {spread:.2%} | {bound:.0%} | {'ok' if passed else 'FAIL'} |"
        )
    return rows, ok


def spread_rows(workload: str, runs: List[Dict[str, float]], bounds: Dict[str, float]):
    rows, ok = [], True
    for name, bound in bounds.items():
        values = [run[name] for run in runs]
        quartiles = statistics.quantiles(values, n=4)
        centre = statistics.median(values)
        spread = (quartiles[2] - quartiles[0]) / centre
        passed = spread <= bound
        ok = ok and passed
        margin = "yes" if spread <= bound / 3 else "no"
        rows.append(
            f"| {workload} | {name} | {centre:.4g} | {spread:.2%} | {bound:.0%} | "
            f"{'ok' if passed else 'FAIL'} | {margin} |"
        )
    return rows, ok


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in manifest["end_to_end"]}
    seconds = manifest["run_seconds"]
    names = [entry["name"] for entry in manifest["workloads"]]

    ok = True
    print(f"## Two sets of three invocations, seed {SAME_SEED}, alternating\n")
    print("| workload | metric | median A | median B | |A−B| / median | range / median "
          "| bound | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in names:
        runs = [invoke(workload, SAME_SEED, seconds) for _ in range(6)]
        rows, passed = same_seed_rows(workload, runs, bounds)
        ok = ok and passed
        print("\n".join(rows), flush=True)
    print(f"\n## Ten invocations, seeds {SPREAD_SEEDS[0]}–{SPREAD_SEEDS[-1]}\n")
    print("| workload | metric | median | IQR / median | bound | IQR ≤ bound | IQR ≤ bound/3 |")
    print("|---|---|---|---|---|---|---|")
    for workload in names:
        runs = [invoke(workload, seed, seconds) for seed in SPREAD_SEEDS]
        rows, passed = spread_rows(workload, runs, bounds)
        ok = ok and passed
        print("\n".join(rows), flush=True)
    print(f"\nselfcheck: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

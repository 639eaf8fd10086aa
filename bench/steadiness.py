"""Steadiness check: two sets of benchmark runs of the same code, compared.

    python3 bench/steadiness.py --runs 10

Set A runs every workload of ``BENCHMARK.json`` on seeds 1..R, then set B
runs them on seeds R+1..2R; every run is its own process with the run
length from ``BENCHMARK.json``.  For every end-to-end metric and workload
the table shows both set medians, the gap between them (positive means
set B is worse), each set's spread (distance between the first and third
quartile over the median) and the metric's bound.  A row passes when the
gap and both spreads are within the bound; the failed share of operations
must be equal in the two sets.  The raw results go to
``bench/results/steadiness-<time>.json``; the exit code is 0 only when
every row passes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "bench", "results")


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(command, workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(argv)} reported wrong outputs:\n{proc.stderr}")
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="two-set steadiness check")
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = parser.parse_args(argv)

    sets = []
    for index in range(2):
        runs = {}
        for workload in names:
            seeds = range(1 + index * args.runs, 1 + (index + 1) * args.runs)
            runs[workload] = [one_run(spec["command"], workload, seed,
                                      spec["run_seconds"]) for seed in seeds]
            print(f"set {'AB'[index]} {workload}: done", file=sys.stderr)
        sets.append(runs)

    all_ok = True
    print(f"{'workload':<11} {'metric':<12} {'median A':>10} {'median B':>10} "
          f"{'gap':>7} {'spread A':>8} {'spread B':>8} {'bound':>6}  verdict")
    for workload in names:
        shares = {sum(r["failed"] for r in s[workload]) /
                  sum(r["attempted"] for r in s[workload]) for s in sets}
        if len(shares) != 1:
            all_ok = False
            print(f"{workload}: failed shares differ: {sorted(shares)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in s[workload]] for s in sets]
            med = [statistics.median(v) for v in values]
            gap = (med[1] - med[0]) / med[0]
            if metric["better"] == "higher":
                gap = -gap
            spreads = [spread(v) for v in values]
            ok = gap <= bound and max(spreads) <= bound
            all_ok &= ok
            print(f"{workload:<11} {name:<12} {med[0]:>10.4f} {med[1]:>10.4f} "
                  f"{gap:>+7.3f} {spreads[0]:>8.3f} {spreads[1]:>8.3f} "
                  f"{bound:>6.2f}  {'ok' if ok else 'FAIL'}")

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump({"runs": args.runs, "sets": sets}, fh, indent=1)
    print(f"raw results: {os.path.relpath(path, ROOT)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

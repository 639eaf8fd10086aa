"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload gne-tight --seed 1 --seconds 30 --trace 0

Every operation is one ``esharing`` command run in process through
``esharing.cli.main`` with its report captured, exactly as a user runs it.
A run times the package's import in five fresh interpreters and sets up
five times (inputs and one warm-up op); ``setup_s`` is the sum of the two
medians.  It then repeats the workload's fixed op list in whole rounds until
``--seconds`` have passed.  Every timed stretch sits between two
machine-speed probes (:mod:`speed`) and is reported in seconds at the
reference machine's speed, so that the host's drifting speed does not show
as a change of the program.  Reference equilibria, probes and every output
check run outside the timed regions.  With ``--trace 0`` the last line of
standard output holds the end-to-end metrics; with ``--trace 1`` the
package is wrapped by :mod:`tracing` and the line holds the per-layer
metrics, each the median over rounds of its per-round total in raw
seconds (a count is the same in every round; the lower median keeps it a
whole number).  A summary, with the raw times, goes to standard error.
"""

from __future__ import annotations

import benchenv  # noqa: F401  (first: pins BLAS threads, finds src/)

import argparse
import collections
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from esharing import cli

import checks
import speed
import tracing
import workloads

SETUP_REPEATS = 5
WORK_DIR = os.path.join(benchenv.ROOT, "bench", "_work")
IMPORT_PROBE = ("import time; started = time.perf_counter(); import benchenv, esharing.cli; "
                "print(time.perf_counter() - started)")


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference speed, given the machine-speed factors
    probed just before and just after the timed work."""
    return seconds * 2.0 / (before + after)


def import_seconds() -> tuple:
    """Median time to import the package in a fresh interpreter; returns
    ``(seconds, seconds at reference speed)``."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = speed.factor()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                              cwd=os.path.dirname(os.path.abspath(__file__)),
                              capture_output=True, text=True, timeout=60)
        seconds = float(proc.stdout)
        times.append((seconds, at_reference_speed(seconds, before, speed.factor())))
    return tuple(statistics.median(t[i] for t in times) for i in (0, 1))


def run_op(op) -> tuple:
    """Run one command; returns ``(exit_code, stdout, seconds)``."""
    for path in op.files.values():
        if os.path.exists(path):
            os.remove(path)
    out = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(op.argv))
    return code, out.getvalue(), time.perf_counter() - started


def check_op(op, stdout: str) -> list:
    """Independent checks of one op's outputs; returns failure messages."""
    report = json.loads(stdout)
    results = report["results"]
    if op.kind == "batch":
        if results["failures"] != 0:
            return [f"batch reported failures: {results['files']}"]
        with open(op.files["report"]) as fh:
            return checks.check_gne_report(op.scenario, json.load(fh))
    if op.kind == "bid":
        return checks.check_bid(op.scenario, results,
                                checks.read_trace(op.files["trace"]),
                                op.extra["eqm"])
    k, regulated = op.extra["k"], op.extra["regulated"]
    if op.kind == "chain":
        return checks.check_scan(op.scenario, results, k,
                                 workloads.CHAIN_FIXED_BIDS, regulated) \
            + checks.check_chain(results, op.extra["limit"])
    eqm = op.extra["eqm"]
    incumbent = checks.regulated_cost_at(op.scenario, eqm, k) if regulated else None
    return checks.check_scan(op.scenario, results, k, eqm.b_bar, regulated,
                             incumbent)


def check_references(ops) -> list:
    """The equilibria the checks compare against must pass the KKT check."""
    fails, seen = [], set()
    for op in ops:
        eqm = op.extra.get("eqm")
        if eqm is None or id(eqm) in seen:
            continue
        seen.add(id(eqm))
        fails += [f"{op.name} reference: {msg}" for msg in checks.check_equilibrium(
            op.scenario, eqm.p_bar, eqm.kappa, eqm.tau_lower, eqm.tau_upper,
            eqm.lambda_r, eqm.b_bar)]
    return fails


class Run:
    """One benchmark run: its set-up, its rounds and what they recorded."""

    def __init__(self, workload: str, seed: int, work_dir: str, tracer):
        self.workload, self.seed = workload, seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.attempted = self.failed = 0
        self.errors, self.wrong = [], []  # failed ops; outputs failing a check
        # per op name, its times at reference speed; round totals, at
        # reference speed and raw
        self.op_times = collections.defaultdict(list)
        self.round_times, self.raw_round_times = [], []
        self.round_layers = []

    def execute(self, op) -> tuple | None:
        """Run one op and count it; returns ``(stdout, seconds)``, or None
        if it failed."""
        self.attempted += 1
        try:
            code, stdout, seconds = run_op(op)
        except Exception:  # noqa: BLE001 - a crashing command is a failed op
            self.errors.append(f"{op.name}: {traceback.format_exc(limit=3)}")
            code = None
        if code == 0:
            return stdout, seconds
        if code is not None:
            self.errors.append(f"{op.name}: exit code {code}")
        self.failed += 1
        return None

    def check(self, op, stdout: str):
        """Check one op's outputs, with the tracer switched off."""
        if self.tracer:
            self.tracer.enabled = False
        try:
            self.wrong += [f"{op.name}: {m}" for m in check_op(op, stdout)]
        finally:
            if self.tracer:
                self.tracer.enabled = True

    def setup(self) -> tuple:
        """Build the inputs and run the first op as a warm-up,
        ``SETUP_REPEATS`` times; returns the ops of the last repeat and the
        median repeat time, raw and at reference speed.  References and
        checks are not timed."""
        times = []
        for rep in range(SETUP_REPEATS):
            before = speed.factor()
            started = time.perf_counter()
            ops = workloads.make_ops(self.workload, self.seed,
                                     os.path.join(self.work_dir, f"rep{rep}"))
            done = self.execute(ops[0])
            seconds = time.perf_counter() - started
            times.append((seconds, at_reference_speed(seconds, before, speed.factor())))
            workloads.add_references(ops)
            self.wrong += check_references(ops)
            if done:
                self.check(ops[0], done[0])
        return ops, tuple(statistics.median(t[i] for t in times) for i in (0, 1))

    def measure(self, ops, seconds: float):
        """Whole rounds of ``ops`` until ``seconds`` have (about) passed."""
        started = time.perf_counter()
        round_walls = []
        while True:
            round_start = time.perf_counter()
            if self.tracer:
                self.tracer.reset()
            total = ref_total = 0.0
            for op in ops:
                before = speed.factor()
                done = self.execute(op)
                after = speed.factor()
                if done is None:
                    continue
                stdout, took = done
                self.check(op, stdout)
                ref_took = at_reference_speed(took, before, after)
                self.op_times[op.name].append(ref_took)
                total += took
                ref_total += ref_took
            self.raw_round_times.append(total)
            self.round_times.append(ref_total)
            if self.tracer:
                self.round_layers.append(self.tracer.metrics())
            round_walls.append(time.perf_counter() - round_start)
            elapsed = time.perf_counter() - started
            # stop at the round boundary nearest to the requested length
            if elapsed + 0.5 * statistics.median(round_walls) > seconds:
                break


def op_gmean(op_times) -> float:
    """Geometric mean over the op list of each op's median time."""
    logs = [math.log(statistics.median(times)) for times in op_times.values()]
    return math.exp(sum(logs) / len(logs))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="esharing benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = tracing.Tracer() if args.trace else None
    work_dir = os.path.join(WORK_DIR, f"{args.workload}-s{args.seed}-{os.getpid()}")
    run = Run(args.workload, args.seed, work_dir, tracer)
    try:
        import_s, ref_import_s = import_seconds()
        ops, (setup_rep_s, ref_setup_rep_s) = run.setup()
        if tracer:
            tracer.install()
        run.measure(ops, args.seconds)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)

    if args.trace:
        metrics = {}
        for name, unit in tracing.METRICS.items():
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = {"value": median(r[name] for r in run.round_layers),
                             "unit": unit}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(run.round_times), "unit": "s"},
            "op_gmean_s": {"value": op_gmean(run.op_times), "unit": "s"},
            "setup_s": {"value": ref_import_s + ref_setup_rep_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    for msg in run.errors + run.wrong:
        print(f"bench: {msg}", file=sys.stderr)
    print(f"bench: {args.workload} seed={args.seed} rounds={len(run.round_times)} "
          f"ops/round={len(ops)} round_s={[round(t, 3) for t in run.round_times]} "
          f"setup_rep_s={ref_setup_rep_s:.3f} import_s={ref_import_s:.3f} "
          "(at reference speed)", file=sys.stderr)
    print(f"bench: raw, not at reference speed: round_s="
          f"{[round(t, 3) for t in run.raw_round_times]} setup_rep_s={setup_rep_s:.3f} "
          f"import_s={import_s:.3f}", file=sys.stderr)
    print(json.dumps({"correct": not run.wrong, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

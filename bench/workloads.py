"""Seeded inputs and the fixed operation list of each benchmark workload.

Each workload is a fixed list of network shapes: a bus count, a base seed
for ``gen_scenario(base, n, "tight")`` and, for scans, the prosumers to
scan.  The benchmark seed perturbs the economic data of every network
(``c``, ``d`` and ``D``) by a few percent, so each seed gives new inputs
while the congestion pattern, and with it the amount of solver work, stays
close to that of the base network.  A seed that redrew the topology would
change the work per op by up to 2x (bidding takes 54 to 129 rounds on
seeds 1-6 at 38 buses), which no run length could average away.

Regenerate the inputs of one run with::

    python3 bench/workloads.py --workload gne-tight --seed 3 --out bench/_work/inputs
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass, field

import benchenv  # noqa: F401  (pins BLAS threads before numpy loads)
import numpy as np

from esharing import cases, equilibrium
from esharing.market import Prosumer, Scenario
from esharing.scenario_io import dump_scenario, gen_scenario

JITTER = 0.03
"""Relative perturbation: ``c`` scales by [1, 1+JITTER), ``d`` and ``D`` by
[1-JITTER, 1+JITTER).  ``c`` only grows so that the generator's sensitivity
``a`` stays above the bidding convergence threshold, which falls as c rises."""

# Op lists, in run order.  Ops of one kind are spread over the round so
# that each metric samples the whole round, not one stretch of it.
GNE_NETWORKS = ((38, 7), (120, 7), (200, 7), (120, 8), (90, 7), (150, 7), (120, 9))
BID_NETWORKS = ((12, 1), (38, 1), (38, 2), (12, 2), (38, 3), (38, 4), (12, 3))
# (bus count, base seed, 1-based prosumer, regulated)
BRLAB_SCANS = (
    (5, 1, 1, False), (7, 1, 1, False), (7, 1, 1, True), (7, 1, 2, False),
    (7, 1, 2, True), (6, 1, 1, False), (7, 1, 3, False), (7, 1, 3, True),
    (7, 1, 4, False), (7, 1, 4, True), (8, 1, 1, False), (5, 1, 1, True),
    (7, 1, 5, False), (7, 1, 5, True), (7, 1, 6, False), (7, 1, 6, True),
    (6, 1, 1, True), (7, 1, 7, False), (7, 1, 7, True),
)
CHAIN_LIMITS = (0.30, 0.27)
CHAIN_FIXED_BIDS = (1.6, 1.6, 0.8)


@dataclass
class Op:
    """One CLI invocation and what its check needs."""

    name: str
    argv: list
    kind: str  # batch | bid | brlab | chain
    scenario: Scenario
    files: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def perturbed(seed: int, size: int, base_seed: int) -> Scenario:
    """``gen_scenario(base_seed, size, "tight")`` with seeded data jitter."""
    base = gen_scenario(base_seed, size, "tight")
    rng = np.random.default_rng([seed, size, base_seed])
    fc = 1.0 + JITTER * rng.random(size)
    fd, fD = 1.0 + JITTER * rng.uniform(-1.0, 1.0, (2, size))
    prosumers = [Prosumer(c=float(base.c[i] * fc[i]), d=float(base.d[i] * fd[i]),
                          demand_reduction=float(base.D[i] * fD[i]))
                 for i in range(size)]
    return Scenario(network=base.network, prosumers=prosumers, a=base.a,
                    label=f"tight n={size} base={base_seed} seed={seed}")


def dump(scenario: Scenario, path: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    dump_scenario(scenario, path, labels={"name": scenario.label})
    return path


def _bids_arg(bids) -> str:
    return ",".join(repr(float(v)) for v in bids)


def _gne_ops(seed: int, root: str) -> list:
    ops = []
    for n, base in GNE_NETWORKS:
        sc = perturbed(seed, n, base)
        src = os.path.join(root, f"gne{n}-{base}")
        out = os.path.join(root, f"gne{n}-{base}-out")
        dump(sc, os.path.join(src, "scenario.json"))
        ops.append(Op(name=f"batch n={n} base={base}", kind="batch", scenario=sc,
                      argv=["batch", "--dir", src, "--out", out],
                      files={"report": os.path.join(out, "scenario.report.json")}))
    return ops


def _bid_ops(seed: int, root: str) -> list:
    ops = []
    for n, base in BID_NETWORKS:
        sc = perturbed(seed, n, base)
        path = dump(sc, os.path.join(root, f"bid{n}-{base}.json"))
        trace = os.path.join(root, f"bid{n}-{base}.trace.csv")
        ops.append(Op(name=f"bid n={n} base={base}", kind="bid", scenario=sc,
                      argv=["bid", path, "--trace", trace],
                      files={"trace": trace}))
    return ops


def _brlab_ops(seed: int, root: str) -> list:
    ops, networks = [], {}
    for n, base, k, regulated in BRLAB_SCANS:
        if (n, base) not in networks:
            sc = perturbed(seed, n, base)
            path = dump(sc, os.path.join(root, f"brlab{n}-{base}.json"))
            networks[n, base] = sc, path, equilibrium.improved_gne(sc)
        sc, path, eqm = networks[n, base]
        argv = ["brlab", path, "--prosumer", str(k),
                "--fix-bids", _bids_arg(eqm.b_bar)]
        if regulated:
            argv.append("--regulated")
        tag = "reg" if regulated else "unreg"
        ops.append(Op(name=f"brlab n={n} k={k} {tag}", kind="brlab",
                      scenario=sc, argv=argv,
                      extra={"eqm": eqm, "k": k - 1, "regulated": regulated}))
    for limit in CHAIN_LIMITS:
        sc = cases.three_bus_chain(1.0, (1.0, 1.0, 0.0), limit)
        path = dump(sc, os.path.join(root, f"chain{limit:.2f}.json"))
        ops.append(Op(name=f"brlab chain F={limit:.2f}", kind="chain",
                      scenario=sc,
                      argv=["brlab", path, "--prosumer", "2",
                            "--fix-bids", _bids_arg(CHAIN_FIXED_BIDS)],
                      extra={"k": 1, "regulated": False, "limit": limit}))
    return ops


_BUILDERS = {"gne-tight": _gne_ops, "bid-tight": _bid_ops, "brlab-scan": _brlab_ops}
WORKLOADS = tuple(_BUILDERS)


def make_ops(workload: str, seed: int, root: str) -> list:
    """Write the inputs of ``workload`` under ``root``; return its ops.

    A scan's input includes the equilibrium bids it is fixed at, so the
    brlab ops already carry their equilibrium; the others get theirs from
    :func:`add_references`."""
    return _BUILDERS[workload](seed, root)


def add_references(ops) -> None:
    """Give each bid op the equilibrium its check compares against."""
    for op in ops:
        if op.kind == "bid":
            op.extra["eqm"] = equilibrium.improved_gne(op.scenario)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the inputs")
    args = parser.parse_args(argv)
    for op in make_ops(args.workload, args.seed, args.out):
        print("esharing " + " ".join(op.argv))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Best-response cost curves around the three-bus counterexample.

Scans prosumer 2's bid over the whole bid line against fixed neighbours on
the three-bus chain for leaf-line limits 0.30 and 0.27, and writes one CSV
per limit of the cost curve sampled over the bids 1.40 to 1.75.  At 0.30 the
curve has a single minimum at the constructed equilibrium bid 1.6; at 0.27
a second, strictly better local minimum appears near 1.535, which is why
the unregulated game loses its equilibrium there.
"""

import dataclasses

import numpy as np

from esharing import brlab, cases


def main():
    fixed = np.array([1.6, 0.8])
    for limit in (0.30, 0.27):
        scenario = cases.three_bus_chain(1.0, (1.0, 1.0, 0.0), limit)
        scan = brlab.best_response(scenario, 1, fixed, start=1.6)
        name = f"best_response_f{int(round(limit * 100)):03d}.csv"
        # the samples of the plotting window, not of the reported interval
        window = dataclasses.replace(scan, interval=(1.40, 1.75),
                                     coarse_points=1401)
        brlab.write_scan_csv(window, name)
        minima = ", ".join(f"b={b:.4f} cost={c:.6f}"
                           for b, c in scan.local_minima)
        print(f"limit {limit:.2f}: local minima {minima}")
        print(f"  best reply b={scan.best_bid:.4f} "
              f"cost={scan.best_cost:.6f}  -> {name}")


if __name__ == "__main__":
    main()

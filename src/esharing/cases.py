"""Canonical desk-scale scenarios used by tests, scripts, and docs."""

from __future__ import annotations

import math

from .market import Prosumer, Scenario
from .network import LineSpec, build_network


def two_prosumer_line(limit: float, a: float = 10.0,
                      c=(0.003, 0.006), d=(0.42, 0.72),
                      demands=(100.0, 200.0)) -> Scenario:
    """Two buses joined by one line; heterogeneous quadratic costs."""
    net = build_network(2, [LineSpec(1, 2, 1.0, limit)])
    pros = [Prosumer(c=c[i], d=d[i], demand_reduction=demands[i])
            for i in range(2)]
    return Scenario(network=net, prosumers=pros, a=a)


def three_bus_chain(c: float, demands, limit: float, a: float = 1.0,
                    d: float = 0.0) -> Scenario:
    """Path 1-2-3 with the only finite limit on the leaf line at bus 1.

    The three-bus counterexample of the best-response lab: bus 1 can import
    or export at most ``limit``; the line between buses 2 and 3 is free.
    """
    net = build_network(3, [LineSpec(1, 2, 1.0, limit),
                            LineSpec(2, 3, 1.0, math.inf)])
    pros = [Prosumer(c=c, d=d, demand_reduction=float(demands[i]))
            for i in range(3)]
    return Scenario(network=net, prosumers=pros, a=a)


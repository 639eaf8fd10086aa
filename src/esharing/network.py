"""DC network model: incidence data, transfer distribution factors, flow limits.

Buses are numbered 1..bus_count in the public interface (matching scenario
files); arrays returned by this module are 0-indexed in the same order.

Sign convention: ``line_flows(net, q)`` maps net *purchases* q (positive =
buying from the pool) to directed line flows.  It agrees with the angle-based
DC solution for nodal injections equal to ``-q`` (a purchase is a withdrawal),
which ``dc_flow_oracle`` computes independently from the nodal equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DisconnectedGraph,
    NonpositiveWeight,
    SingularLaplacian,
    UnbalancedInjection,
)


@dataclass(frozen=True)
class LineSpec:
    """One directed line: endpoints (1-based), weight, and a flow limit.

    ``limit`` may be ``math.inf`` for an unconstrained line.  The direction
    from_bus -> to_bus fixes the sign of the reported flow only; limits apply
    symmetrically in both directions.
    """

    from_bus: int
    to_bus: int
    weight: float = 1.0
    limit: float = float("inf")

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise DimensionMismatch(
                f"line endpoints must differ, got {self.from_bus}->{self.to_bus}"
            )
        if not self.weight > 0.0:
            raise NonpositiveWeight(f"line weight must be > 0, got {self.weight}")
        if not np.isfinite(self.weight):  # JSON files may hold Infinity
            raise DimensionMismatch(f"line weight must be finite, got {self.weight}")
        if not self.limit >= 0.0:  # also refuses NaN
            raise DimensionMismatch(f"line limit must be >= 0, got {self.limit}")


@dataclass(frozen=True, eq=False)
class TreeTopology:
    """A radial network rooted at its slack bus (0-indexed arrays).

    ``parent[i]`` is the bus above bus i (the root is its own parent);
    ``child[l]`` is the bus below line l; ``order`` lists the lines from the
    root down, so a line comes after the line above it; ``sign[l]`` is the
    PTDF entry of line l for every bus below it: +1 when the line points
    away from the root, -1 otherwise.
    """

    root: int
    parent: np.ndarray
    child: np.ndarray
    order: np.ndarray
    sign: np.ndarray


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """Immutable DC network with a precomputed injection-to-flow map.

    Attributes
    ----------
    bus_count : int
    slack : int
        Reference bus, 1-based.  The slack row of ``ptdf`` is zero.
    lines : tuple[LineSpec, ...]
    ptdf : np.ndarray, shape (bus_count, line_count)
        ``ptdf[i, l]`` is the flow on line l per unit purchase at bus i+1.
    limits : np.ndarray, shape (line_count,)
    tree : TreeTopology or None
        The network rooted at its slack bus when it is radial, else None.
    """

    bus_count: int
    slack: int
    lines: tuple
    ptdf: np.ndarray = field(repr=False)
    limits: np.ndarray = field(repr=False)
    tree: TreeTopology | None = field(default=None, repr=False)

    @property
    def line_count(self) -> int:
        return len(self.lines)


def _incidence(bus_count: int, lines) -> np.ndarray:
    """Bus-by-line incidence: +1 at the from-bus, -1 at the to-bus."""
    C = np.zeros((bus_count, len(lines)))
    for l, ln in enumerate(lines):
        C[ln.from_bus - 1, l] = 1.0
        C[ln.to_bus - 1, l] = -1.0
    return C


def _tree_topology(bus_count: int, lines, slack: int) -> TreeTopology:
    """Breadth-first search from ``slack``: the network rooted there.

    On a mesh the result is one spanning tree of it.  Raises
    :class:`DisconnectedGraph` when some bus is not reached.
    """
    root = slack - 1
    adj = [[] for _ in range(bus_count)]
    for l, ln in enumerate(lines):
        adj[ln.from_bus - 1].append(l)
        adj[ln.to_bus - 1].append(l)
    parent = np.full(bus_count, -1)
    parent[root] = root
    child = np.full(len(lines), -1)
    sign = np.empty(len(lines))
    order = []
    frontier = [root]
    for u in frontier:  # grows while it is walked: a breadth-first search
        for l in adj[u]:
            ln = lines[l]
            down = ln.from_bus - 1 == u
            v = ln.to_bus - 1 if down else ln.from_bus - 1
            if parent[v] >= 0:  # the line up to u's parent, or a chord
                continue
            parent[v], child[l], sign[l] = u, v, 1.0 if down else -1.0
            order.append(l)
            frontier.append(v)
    if len(frontier) < bus_count:
        missing = (np.flatnonzero(parent < 0) + 1).tolist()
        raise DisconnectedGraph(f"buses unreachable from bus {slack}: {missing}")
    arrays = (parent, child, np.asarray(order, dtype=int), sign)
    for arr in arrays:
        arr.setflags(write=False)
    return TreeTopology(root, *arrays)


def build_network(bus_count: int, lines, slack: int | None = None) -> NetworkModel:
    """Assemble a :class:`NetworkModel` and precompute its PTDF matrix.

    Parameters
    ----------
    bus_count : int
        Number of buses (>= 1).
    lines : iterable of LineSpec
        May be empty only when bus_count == 1.
    slack : int, optional
        Reference bus (1-based).  Defaults to the highest-index bus.
    """
    lines = tuple(lines)
    if bus_count < 1:
        raise DimensionMismatch(f"bus_count must be >= 1, got {bus_count}")
    if slack is None:
        slack = bus_count
    if not 1 <= slack <= bus_count:
        raise DimensionMismatch(f"slack bus {slack} outside 1..{bus_count}")
    for ln in lines:
        if not (1 <= ln.from_bus <= bus_count and 1 <= ln.to_bus <= bus_count):
            raise DimensionMismatch(
                f"line {ln.from_bus}->{ln.to_bus} references a bus outside 1..{bus_count}"
            )
    topology = _tree_topology(bus_count, lines, slack)

    C = _incidence(bus_count, lines)
    B = np.asarray([ln.weight for ln in lines])
    keep = np.arange(bus_count) != slack - 1
    Cr = C[keep, :]
    lap = (Cr * B) @ Cr.T
    if lap.size:
        try:
            np.linalg.cholesky(lap)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by checks above
            raise SingularLaplacian(str(exc)) from exc
        # purchases are withdrawals, hence the minus sign
        ptdf_r = -np.linalg.solve(lap, Cr * B)
    else:
        ptdf_r = np.zeros((0, len(lines)))
    ptdf = np.zeros((bus_count, len(lines)))
    ptdf[keep, :] = ptdf_r
    limits = np.asarray([ln.limit for ln in lines], dtype=float)
    ptdf.setflags(write=False)
    limits.setflags(write=False)
    tree = topology if len(lines) == bus_count - 1 else None
    return NetworkModel(bus_count=bus_count, slack=slack, lines=lines,
                        ptdf=ptdf, limits=limits, tree=tree)


def line_flows(net: NetworkModel, purchases: np.ndarray) -> np.ndarray:
    """Directed line flows induced by balanced net purchases.

    ``purchases`` need not be balanced for the map to be evaluated, but only
    balanced vectors correspond to a physical operating point.
    """
    q = np.asarray(purchases, dtype=float)
    if q.shape != (net.bus_count,):
        raise DimensionMismatch(
            f"expected {net.bus_count} purchases, got shape {q.shape}"
        )
    return net.ptdf.T @ q


def dc_flow_oracle(net: NetworkModel, injections: np.ndarray,
                   tol: float = 1e-9) -> np.ndarray:
    """Line flows from the nodal equations, independent of the PTDF matrix.

    Solves the reduced angle system ``L theta = inj`` and reads flows off the
    line equations ``w_l (theta_from - theta_to)``.  Used as a cross-check for
    :func:`line_flows`; the two agree on ``injections = -purchases``.
    """
    inj = np.asarray(injections, dtype=float)
    if inj.shape != (net.bus_count,):
        raise DimensionMismatch(
            f"expected {net.bus_count} injections, got shape {inj.shape}"
        )
    scale = 1.0 + float(np.abs(inj).max(initial=0.0))
    if abs(inj.sum()) > tol * scale:
        raise UnbalancedInjection(f"injections sum to {inj.sum():.3e}, not 0")
    C = _incidence(net.bus_count, net.lines)
    B = np.asarray([ln.weight for ln in net.lines])
    keep = np.arange(net.bus_count) != net.slack - 1
    Cr = C[keep, :]
    lap = (Cr * B) @ Cr.T
    theta = np.zeros(net.bus_count)
    if lap.size:
        theta[keep] = np.linalg.solve(lap, inj[keep])
    return B * (C.T @ theta)


def is_radial(net: NetworkModel) -> bool:
    """True when the connected network is a tree (line_count == bus_count - 1)."""
    return net.line_count == net.bus_count - 1

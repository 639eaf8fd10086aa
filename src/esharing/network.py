"""DC network model: incidence data, transfer distribution factors, flow limits.

Buses are numbered 1..bus_count in the public interface (matching scenario
files); arrays returned by this module are 0-indexed in the same order.

Sign convention: ``line_flows(net, q)`` maps net *purchases* q (positive =
buying from the pool) to directed line flows.  It agrees with the angle-based
DC solution for nodal injections equal to ``-q`` (a purchase is a withdrawal),
which ``dc_flow_oracle`` computes independently from the nodal equations.

PTDF: on a radial network a purchase at bus i reaches the slack bus along
the one path between them, whatever the weights, so ``ptdf[i, l]`` is the
orientation sign of line l when l lies on that path and 0 otherwise.  It is
built exactly from the breadth-first tree in O(bus_count x depth).  On a
meshed network the flow splits by weight, and the PTDF is the solve of the
reduced nodal Laplacian against the weighted incidence matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import eq

import numpy as np

from .errors import (
    DimensionMismatch,
    DisconnectedGraph,
    NonpositiveWeight,
    SingularLaplacian,
    UnbalancedInjection,
)

_BALANCE_TOL = 1e-9  # relative bound on the sum of balanced injections


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
        if not math.isfinite(self.weight):  # JSON files may hold Infinity
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
    away from the root, -1 otherwise; ``head[l]`` is the bus above line l,
    ``parent[child[l]]``.
    """

    root: int
    parent: np.ndarray
    child: np.ndarray
    order: np.ndarray
    sign: np.ndarray
    head: np.ndarray


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """Immutable DC network and its flow operations.

    The lines are stored as columns, one entry per line.  Three operations
    carry every use of the network's flows, so that no other module knows
    how they are computed (today from the dense ``ptdf``):

    - :meth:`flows`: the line flows of purchases, one vector or the
      columns of a (bus_count, k) matrix;
    - :meth:`price_terms`: what line duals add to each bus's price, the
      transpose of :meth:`flows`;
    - :meth:`rows`: the flow rows of some lines, one entry per bus.

    Attributes
    ----------
    bus_count : int
    slack : int
        Reference bus, 1-based.  The slack row of ``ptdf`` is zero.
    from_bus, to_bus : np.ndarray of int, shape (line_count,)
        The 1-based end buses of each line.
    weights : np.ndarray, shape (line_count,)
    ptdf : np.ndarray, shape (bus_count, line_count)
        ``ptdf[i, l]`` is the flow on line l per unit purchase at bus i+1.
        On a tree it is exact: ``tree.sign[l]`` when line l is on the path
        from bus i+1 up to the slack bus, else 0.  On a mesh it is solved
        from the reduced nodal Laplacian.  The rest of the package reads
        it only through the three operations.
    limits : np.ndarray, shape (line_count,)
    tree : TreeTopology or None
        The network rooted at its slack bus when it is radial, else None.
    bounded, pinned : np.ndarray
        Derived from ``limits``: the mask of lines with a positive finite
        limit, and the indices of the lines with a zero limit.
    lines : tuple[LineSpec, ...]
        The lines as records, built from the columns when first read (or
        the records :func:`build_network` was given).

    The network is immutable, but it keeps two private cache entries, each
    one slot (:meth:`_kept`): ``_factor``, the factor of the last held set
    that :func:`esharing.market._held_solve` solved on it, keyed on the
    held lines and the curvature, and on a tree on their targets too; and
    ``_guess``, what :func:`esharing.market._solve_program` made of the
    last guess it was given (its side, held and target vectors), keyed on
    that guess.  So a hot-started solve that repeats its guess and held set
    (a settled bidding round) rebuilds neither.  Each slot is read once and
    replaced by one assignment, so threads sharing a network never mix
    entries; a kept array is read-only, and a reused entry gives the same
    bits as a fresh one.
    """

    bus_count: int
    slack: int
    from_bus: np.ndarray = field(repr=False)
    to_bus: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    ptdf: np.ndarray = field(repr=False)
    limits: np.ndarray = field(repr=False)
    tree: TreeTopology | None = field(default=None, repr=False)
    bounded: np.ndarray = field(init=False, repr=False)
    pinned: np.ndarray = field(init=False, repr=False)
    _factor: tuple | None = field(init=False, repr=False, default=None)
    _guess: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        limits = self.limits
        for name, lines in (("bounded", (limits > 0.0) & (limits < np.inf)),
                            ("pinned", np.flatnonzero(limits == 0.0))):
            lines.setflags(write=False)
            object.__setattr__(self, name, lines)

    @property
    def line_count(self) -> int:
        return len(self.limits)

    def flows(self, q: np.ndarray) -> np.ndarray:
        """The line flows of purchases ``q``, shape (bus_count,) or
        (bus_count, k) for k purchase vectors, one per column."""
        return self.ptdf.T @ q

    def price_terms(self, mu: np.ndarray) -> np.ndarray:
        """Per bus, the sum over lines of the flow per unit purchase there
        times ``mu``, one value per line: the price terms of line duals."""
        return self.ptdf @ mu

    def rows(self, lines) -> np.ndarray:
        """The flow rows of ``lines``, an index or a mask: a line's row holds
        its flow per unit purchase at each bus (0 at the slack bus)."""
        return self.ptdf.T[lines]

    @cached_property
    def lines(self) -> tuple:
        return tuple(map(LineSpec, self.from_bus.tolist(), self.to_bus.tolist(),
                         self.weights.tolist(), self.limits.tolist()))

    def _kept(self, slot: str, key: bytes, build):
        """The value kept in ``slot`` for ``key``, or ``build()``'s, kept in
        its place."""
        entry = getattr(self, slot)  # read once; replaced whole, never edited
        if entry is None or entry[0] != key:
            entry = key, build()
            object.__setattr__(self, slot, entry)
        return entry[1]


def _check_lines(from_bus, to_bus, weights, limits) -> None:
    """Check line columns, sequences of Python numbers, as
    :class:`LineSpec` checks each line: the first line it refuses raises
    its error."""
    # a finite sum has no NaN and no infinity in it, so min() is exact
    weight_sum, limit_sum = sum(weights), sum(limits)
    if any(map(eq, from_bus, to_bus)) or not (
            math.isfinite(weight_sum) and min(weights, default=1.0) > 0.0
            and limit_sum == limit_sum and min(limits, default=0.0) >= 0.0):
        for row in zip(from_bus, to_bus, weights, limits):
            LineSpec(*row)


def _incidence(bus_count: int, from_bus, to_bus) -> np.ndarray:
    """Bus-by-line incidence: +1 at the from-bus, -1 at the to-bus."""
    C = np.zeros((bus_count, len(from_bus)))
    cols = np.arange(len(from_bus))
    C[from_bus - 1, cols] = 1.0
    C[to_bus - 1, cols] = -1.0
    return C


def _tree_topology(bus_count: int, from_bus, to_bus, slack: int) -> TreeTopology:
    """Breadth-first search from ``slack``: the network rooted there.

    On a mesh the result is one spanning tree of it.  Raises
    :class:`DisconnectedGraph` when some bus is not reached.
    """
    root = slack - 1
    links = [[] for _ in range(bus_count)]  # (neighbour, line, sign) per bus
    for l, (f, t) in enumerate(zip(from_bus, to_bus)):
        links[f - 1].append((t - 1, l, 1.0))
        links[t - 1].append((f - 1, l, -1.0))
    parent = [-1] * bus_count
    parent[root] = root
    child = [-1] * len(from_bus)
    sign = [0.0] * len(from_bus)  # a chord keeps 0
    order = []
    frontier = [root]
    for u in frontier:  # grows while it is walked: a breadth-first search
        for v, l, s in links[u]:
            if parent[v] < 0:  # else the line up to u's parent, or a chord
                parent[v], child[l], sign[l] = u, v, s
                order.append(l)
                frontier.append(v)
    if len(frontier) < bus_count:
        missing = [i + 1 for i, p in enumerate(parent) if p < 0]
        raise DisconnectedGraph(f"buses unreachable from bus {slack}: {missing}")
    ints = np.array(parent + child + order, dtype=int)  # one buffer, three views
    sign = np.array(sign, dtype=float)
    ints.setflags(write=False)
    sign.setflags(write=False)
    end = bus_count + len(child)
    parent, child, order = ints[:bus_count], ints[bus_count:end], ints[end:]
    head = parent[child]
    head.setflags(write=False)
    return TreeTopology(root, parent, child, order, sign, head)


def build_network(bus_count: int, lines=(), slack: int | None = None, *,
                  columns=None) -> NetworkModel:
    """Assemble a :class:`NetworkModel` and precompute its PTDF matrix.

    Parameters
    ----------
    bus_count : int
        Number of buses (>= 1).
    lines : iterable of LineSpec
        May be empty only when bus_count == 1.
    slack : int, optional
        Reference bus (1-based).  Defaults to the highest-index bus.
    columns : tuple, optional
        The lines as four sequences ``(from_bus, to_bus, weights, limits)``
        in place of ``lines``, checked as :class:`LineSpec` checks a line.
    """
    records = columns is None
    if records:
        lines = tuple(lines)
        columns = ([ln.from_bus for ln in lines], [ln.to_bus for ln in lines],
                   [ln.weight for ln in lines], [ln.limit for ln in lines])
    f, t, w, F = [col.tolist() if isinstance(col, np.ndarray) else col
                  for col in columns]
    if not len(f) == len(t) == len(w) == len(F):
        raise DimensionMismatch("line columns must have one length")
    if not records:
        _check_lines(f, t, w, F)
    if bus_count < 1:
        raise DimensionMismatch(f"bus_count must be >= 1, got {bus_count}")
    if slack is None:
        slack = bus_count
    if not 1 <= slack <= bus_count:
        raise DimensionMismatch(f"slack bus {slack} outside 1..{bus_count}")
    if f and not (1 <= min(f) and max(f) <= bus_count
                  and 1 <= min(t) and max(t) <= bus_count):
        for ends in zip(f, t):
            if not (1 <= ends[0] <= bus_count and 1 <= ends[1] <= bus_count):
                raise DimensionMismatch(f"line {ends[0]}->{ends[1]} references "
                                        f"a bus outside 1..{bus_count}")
    topology = _tree_topology(bus_count, f, t, slack)
    ends, values = np.array((f, t), dtype=int), np.array((w, F), dtype=float)
    for arr in (ends, values):
        arr.setflags(write=False)  # and so the rows taken from it
    (from_bus, to_bus), (weights, limits) = ends, values
    tree = topology if len(F) == bus_count - 1 else None
    ptdf = _tree_ptdf(tree) if tree is not None else _mesh_ptdf(
        bus_count, from_bus, to_bus, weights, slack)
    ptdf.setflags(write=False)
    net = NetworkModel(bus_count=bus_count, slack=slack, from_bus=from_bus,
                       to_bus=to_bus, weights=weights, ptdf=ptdf,
                       limits=limits, tree=tree)
    if records:
        object.__setattr__(net, "lines", lines)  # the view, as given
    return net


def _tree_ptdf(tree: TreeTopology) -> np.ndarray:
    """The exact PTDF of a radial network: every bus climbs to the root at
    once, one level per step, marking the sign of each line it passes."""
    bus_count, line_count = len(tree.parent), len(tree.child)
    above = np.empty(bus_count, dtype=int)  # the line up from each bus
    above[tree.child] = np.arange(line_count)
    ptdf = np.zeros((bus_count, line_count))
    rows = bus = tree.child  # every bus but the root
    while rows.size:
        lines = above[bus]
        ptdf[rows, lines] = tree.sign[lines]
        bus = tree.parent[bus]
        climbing = bus != tree.root
        rows, bus = rows[climbing], bus[climbing]
    return ptdf


def _mesh_ptdf(bus_count: int, from_bus, to_bus, weights,
               slack: int) -> np.ndarray:
    """The PTDF from the reduced nodal Laplacian; the slack row is zero.

    A connected mesh's Laplacian is positive definite, but in floating point
    it can fail the Cholesky test, or pass it and fail the solve, once the
    line weights span many orders of magnitude; either raises
    :class:`SingularLaplacian`.
    """
    C = _incidence(bus_count, from_bus, to_bus)
    keep = np.arange(bus_count) != slack - 1
    Cr = C[keep, :]
    lap = (Cr * weights) @ Cr.T
    try:
        np.linalg.cholesky(lap)
        solved = np.linalg.solve(lap, Cr * weights)
    except np.linalg.LinAlgError as exc:
        raise SingularLaplacian(
            "the mesh's nodal equations are numerically singular: line "
            f"weights span {weights.min():.6g} to {weights.max():.6g}") from exc
    ptdf = np.zeros((bus_count, len(weights)))
    ptdf[keep, :] = -solved  # purchases are withdrawals
    return ptdf


def _per_bus(net: NetworkModel, values, what: str) -> np.ndarray:
    """``values`` as floats of shape (bus_count,) or (bus_count, k)."""
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != net.bus_count:
        raise DimensionMismatch(
            f"expected {net.bus_count} {what} per column, got shape {v.shape}"
        )
    return v


def line_flows(net: NetworkModel, purchases: np.ndarray) -> np.ndarray:
    """Directed line flows induced by balanced net purchases.

    ``purchases`` has shape (bus_count,), or (bus_count, k) for k purchase
    vectors at once, one per column.  It need not be balanced for the map to
    be evaluated, but only balanced vectors correspond to a physical
    operating point.
    """
    return net.flows(_per_bus(net, purchases, "purchases"))


def dc_flow_oracle(net: NetworkModel, injections: np.ndarray) -> np.ndarray:
    """Line flows from the nodal equations, independent of the PTDF matrix.

    Solves the reduced angle system ``L theta = inj`` and reads flows off the
    line equations ``w_l (theta_from - theta_to)``.  Used as a cross-check for
    :func:`line_flows`; the two agree on ``injections = -purchases``.
    ``injections`` may hold k vectors as the columns of a (bus_count, k)
    matrix; they share one solve, and each must be balanced.
    """
    inj = _per_bus(net, injections, "injections")
    sums = inj.sum(axis=0)
    unbalanced = np.abs(sums) > _BALANCE_TOL * (
        1.0 + np.abs(inj).max(axis=0, initial=0.0))
    if np.any(unbalanced):
        raise UnbalancedInjection(
            f"injections sum to {np.extract(unbalanced, sums)[0]:.3e}, not 0")
    C = _incidence(net.bus_count, net.from_bus, net.to_bus)
    B = net.weights
    keep = np.arange(net.bus_count) != net.slack - 1
    Cr = C[keep, :]
    lap = (Cr * B) @ Cr.T
    theta = np.zeros(inj.shape)
    if lap.size:
        theta[keep] = np.linalg.solve(lap, inj[keep])
    return (B * (C.T @ theta).T).T  # B scales the rows, one per line


def is_radial(net: NetworkModel) -> bool:
    """True when the network carries a tree, as built for bus_count - 1 lines."""
    return net.tree is not None

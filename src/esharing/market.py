"""Market clearing, price regulation, and prosumer cost accounting.

The clearing rule selects the price vector of minimum squared norm among all
prices whose induced demands ``q_i = -a lam_i + b_i`` balance to zero and keep
every line flow within its limit.  It is solved directly in the price
variables so the reported duals (``eta`` for balance, ``alpha`` for the flow
bounds) match the stationarity system

    2 lam_i + a eta + a sum_l pi_il alpha_l_lower - a sum_l pi_il alpha_l_upper = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, TooFewProsumers
from .network import NetworkModel, is_radial
from .qp import QuadraticProgram, QpSolution, solve_qp
from .tree import solve_tree


@dataclass(frozen=True)
class Prosumer:
    """Quadratic-disutility participant.

    ``c`` and ``d`` parameterize the disutility ``J(p) = c p^2 + d p`` of
    reducing its net purchase by ``p``; ``demand_reduction`` is the required
    total reduction D.  The optional baseline triple records the original
    operating point and must satisfy production + purchase = demand.
    """

    c: float
    d: float
    demand_reduction: float
    base_production: float | None = None
    base_purchase: float | None = None
    base_demand: float | None = None

    def __post_init__(self):
        if not self.c > 0.0:
            raise DimensionMismatch(f"prosumer c must be > 0, got {self.c}")
        for name, v in (("c", self.c), ("d", self.d), ("D", self.demand_reduction)):
            if not math.isfinite(v):  # JSON files may hold NaN and Infinity
                raise DimensionMismatch(f"prosumer {name} must be finite, got {v}")
        base = (self.base_production, self.base_purchase, self.base_demand)
        present = [v is not None for v in base]
        if any(present) and not all(present):
            raise DimensionMismatch("baseline fields must be given together")
        if all(present):
            p0, e0, d0 = base
            if abs(p0 + e0 - d0) > 1e-9 * (1.0 + abs(d0)):
                raise DimensionMismatch(
                    f"baseline violates p0 + E0 = D0: {p0} + {e0} != {d0}"
                )

    def disutility(self, p: float) -> float:
        return self.c * p * p + self.d * p


@dataclass(frozen=True, eq=False)
class Scenario:
    """Immutable market instance: network, one prosumer per bus, sensitivity a."""

    network: NetworkModel
    prosumers: tuple
    a: float
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "prosumers", tuple(self.prosumers))
        if len(self.prosumers) != self.network.bus_count:
            raise DimensionMismatch(
                f"{len(self.prosumers)} prosumers for {self.network.bus_count} buses"
            )
        if len(self.prosumers) < 2:
            raise TooFewProsumers("a market needs at least two prosumers")
        if not 0.0 < self.a < np.inf:
            raise DimensionMismatch(
                f"market sensitivity a must be finite and > 0, got {self.a}")
        for name, arr in (("c", [p.c for p in self.prosumers]),
                          ("d", [p.d for p in self.prosumers]),
                          ("D", [p.demand_reduction for p in self.prosumers])):
            v = np.asarray(arr, dtype=float)
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    # arrays set in __post_init__; declared for introspection
    c: np.ndarray = field(init=False, repr=False, default=None)
    d: np.ndarray = field(init=False, repr=False, default=None)
    D: np.ndarray = field(init=False, repr=False, default=None)

    @property
    def size(self) -> int:
        return len(self.prosumers)

    def disutility(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return self.c * p * p + self.d * p


@dataclass(frozen=True, eq=False)
class ClearingOutcome:
    """Prices, cleared quantities, duals, and line flows for one bid vector.

    ``alpha_lower[l]`` is the dual of ``flow_l >= -F_l``; ``alpha_upper[l]``
    of ``flow_l <= F_l``.  ``eta`` is the balance dual.  ``active_set`` is
    the solver's, in the format of :attr:`esharing.qp.QpSolution.active_set`:
    the lines it held at a limit.  It is empty at a uniform price, except
    that the tree solver always holds a zero-limit line.
    """

    prices: np.ndarray
    quantities: np.ndarray
    eta: float
    alpha_lower: np.ndarray
    alpha_upper: np.ndarray
    flows: np.ndarray
    active_set: tuple = ()


def clear_market(scenario: Scenario, bids, active=()) -> ClearingOutcome:
    """Clear the market for a bid vector.

    Solves the price-space program by :func:`_solve_program`: exactly on a
    radial network and by the active-set solver on a meshed one, trying
    ``active`` (the ``active_set`` of a related clearing) as its first
    guess.  With no line at a limit the price is uniform, the mean bid over
    ``a I``, and no program is built for it.
    """
    return _clear(scenario, bids, None, active)


def _clear(scenario: Scenario, bids, anchor, active) -> ClearingOutcome:
    """Price-space clearing, plain or proximal.

    Minimizes ``sum lam_i^2``, plus ``sum (lam_i - anchor_i)^2`` when an
    ``anchor`` is given, over prices whose demands ``b - a lam`` balance and
    keep every line flow within its limit.  :func:`_solve_program` solves it
    with ``active`` as its hot start; on a meshed network its QP starts from
    the no-trade prices ``lam = b / a``, which are feasible for every limit
    >= 0.
    """
    b = np.asarray(bids, dtype=float)
    n = scenario.size
    if b.shape != (n,):
        raise DimensionMismatch(f"expected {n} bids, got shape {b.shape}")
    net = scenario.network
    a = scenario.a
    if anchor is None:
        h, g = 2.0, np.zeros(n)
    else:
        h, g = 4.0, -2.0 * np.asarray(anchor, dtype=float)
    sol = _solve_program(net, np.full(n, h), g, b, a, b / a, active)
    lam = sol.x
    q = b - a * lam
    return ClearingOutcome(
        prices=lam, quantities=q, eta=float(sol.eq_duals[0]) / a,
        alpha_lower=sol.ineq_duals_lower, alpha_upper=sol.ineq_duals_upper,
        flows=net.ptdf.T @ q, active_set=sol.active_set,
    )


def _solve_program(net: NetworkModel, hess, linear, base, k: float, x0,
                   active) -> QpSolution:
    """Minimize ``sum (hess x^2 / 2 + linear x)`` over ``x`` whose purchases
    ``base - k x`` balance and keep every line flow within its limit.

    With no line at a limit the local price ``u = hess x + linear`` is one
    number, at which the purchases ``alpha - beta u`` (``alpha = base + k
    linear / hess``, ``beta = k / hess``) balance.  A radial network is
    solved exactly by :func:`esharing.tree.solve_tree`, whose empty guess is
    this point.  On a meshed one the point is returned when its flows are
    within their limits, and otherwise :func:`esharing.qp.solve_qp` solves
    the program from the feasible ``x0``.  Either way ``active``, a guess of
    the lines at a limit, is a hot start.
    """
    if is_radial(net):
        return solve_tree(net, hess, linear, base, k, active)
    G = net.ptdf.T
    alpha, beta = base + k * linear / hess, k / hess
    u = alpha.sum() / beta.sum()
    q = alpha - beta * u
    if np.all(np.abs(G @ q) <= net.limits):
        none = np.zeros(net.line_count)
        return QpSolution(x=(u - linear) / hess, eq_duals=np.array([-u]),
                          ineq_duals_lower=none, ineq_duals_upper=none,
                          active_set=(), iterations=0,
                          residual=abs(float(q.sum())))
    Gb = G @ base
    qp = QuadraticProgram(
        hessian=np.diag(hess),
        linear=linear,
        eq_matrix=np.ones((1, net.bus_count)),
        eq_rhs=np.array([base.sum() / k]),
        ineq_matrix=-k * G,
        ineq_lower=-net.limits - Gb,
        ineq_upper=net.limits - Gb,
    )
    return solve_qp(qp, x0=x0, active=active)


def clearing_kkt_residual(scenario: Scenario, bids, outcome: ClearingOutcome) -> float:
    """Worst violation of the clearing stationarity/feasibility system."""
    b = np.asarray(bids, dtype=float)
    net = scenario.network
    a = scenario.a
    lam, q = outcome.prices, outcome.quantities
    G = net.ptdf.T
    stat = (2.0 * lam + a * outcome.eta
            + a * (G.T @ outcome.alpha_lower) - a * (G.T @ outcome.alpha_upper))
    parts = [
        float(np.abs(stat).max(initial=0.0)),
        float(np.abs(q - (b - a * lam)).max(initial=0.0)),
        abs(float(q.sum())),
        float(np.max(np.abs(outcome.flows) - net.limits, initial=0.0)),
        float(max(np.max(-outcome.alpha_lower, initial=0.0),
                  np.max(-outcome.alpha_upper, initial=0.0), 0.0)),
    ]
    finite = np.isfinite(net.limits)  # an unlimited line has no bound to meet
    f, F = outcome.flows[finite], net.limits[finite]
    comp = np.concatenate([np.abs(outcome.alpha_lower[finite] * (f + F)),
                           np.abs(outcome.alpha_upper[finite] * (F - f))])
    parts.append(float(np.max(comp, initial=0.0)))
    return max(parts)


def marginal_term(scenario: Scenario, p, q, i=slice(None)):
    """Marginal disutility adjusted by the per-prosumer price privilege.

    ``2 c p + d - q / (a (I-1))`` for the prosumers selected by ``i`` (all
    of them by default), at their productions ``p`` and purchases ``q``.
    """
    n = scenario.size
    return 2.0 * scenario.c[i] * p + scenario.d[i] - q / (scenario.a * (n - 1))


def regulated_price(scenario: Scenario, clearing: ClearingOutcome, p) -> np.ndarray:
    """Cap/floor the cleared prices against the adjusted marginal disutility.

    Buyers (q_i >= 0, including q_i = 0) pay at least the adjusted marginal
    rate; sellers receive at most that rate.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (scenario.size,):
        raise DimensionMismatch(f"expected {scenario.size} productions")
    m = marginal_term(scenario, p, clearing.quantities)
    lam = clearing.prices
    return np.where(clearing.quantities >= 0.0, np.maximum(lam, m),
                    np.minimum(lam, m))


def _payment(scenario: Scenario, prices, purchases, p, i, regulated: bool):
    """Sharing payment ``lam q``; regulated, the max of ``lam q`` and
    ``m q`` with ``m`` the adjusted marginal disutility, which equals
    (regulated price) x quantity for buyers and sellers alike."""
    pay = prices * purchases
    if regulated:
        pay = np.maximum(pay, marginal_term(scenario, p, purchases, i) * purchases)
    return pay


def payment(scenario: Scenario, bids, p_i: float, i: int) -> float:
    """Regulated payment of prosumer ``i`` at production ``p_i`` under bid
    vector ``bids``."""
    out = clear_market(scenario, bids)
    return float(_payment(scenario, out.prices[i], out.quantities[i], p_i, i,
                          True))


def prosumer_cost(scenario: Scenario, bids, i: int, regulated: bool = False) -> float:
    """Cost of prosumer ``i`` at bid vector ``bids``: :func:`cost_at` of
    its clearing."""
    out = clear_market(scenario, bids)
    return float(cost_at(scenario, out.prices[i], out.quantities[i],
                         regulated, i))


def cost_at(scenario: Scenario, prices, purchases, regulated: bool = False,
            i=slice(None)) -> np.ndarray:
    """Costs of the prosumers selected by ``i`` (all of them by default) at
    their cleared ``prices`` and ``purchases``.

    Production is pinned by the market constraint ``p_i = D_i - q_i``; the
    cost is disutility plus the (regulated or raw) sharing payment.  With a
    single ``i``, ``prices`` and ``purchases`` may be arrays of that
    prosumer's outcomes, such as the points of a bid scan.
    """
    p = scenario.D[i] - purchases
    return (scenario.c[i] * p * p + scenario.d[i] * p
            + _payment(scenario, prices, purchases, p, i, regulated))

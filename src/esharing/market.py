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
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch, TooFewProsumers
from .network import NetworkModel, is_radial
from .qp import QuadraticProgram, QpSolution, solve_qp
from .tree import _components as _tree_components, _exact_pass

_RTOL = 1e-12  # rounding-level slack of the optimality check
_EXCHANGE_STEPS = 8  # exchange steps tried before the fallback


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
    the lines held at a limit, every zero-limit line among them.  With no
    other line held the price is uniform.
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

    Solves the price-space program by :func:`_solve_program`, trying
    ``active`` (the ``active_set`` of a related clearing) as its first
    guess.  With no line at a limit the price is uniform, the mean bid over
    ``a I``, and that is the answer to the empty guess.
    """
    return _clear(scenario, bids, None, active)


def _clear(scenario: Scenario, bids, anchor, active) -> ClearingOutcome:
    """Price-space clearing, plain or proximal.

    Minimizes ``sum lam_i^2``, plus ``sum (lam_i - anchor_i)^2`` when an
    ``anchor`` is given, over prices whose demands ``b - a lam`` balance and
    keep every line flow within its limit.  :func:`_solve_program` solves it
    with ``active`` as its hot start.
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
    sol = _solve_program(net, np.full(n, h), g, b, a, active)
    lam = sol.x
    q = b - a * lam
    return ClearingOutcome(
        prices=lam, quantities=q, eta=float(sol.eq_duals[0]) / a,
        alpha_lower=sol.ineq_duals_lower, alpha_upper=sol.ineq_duals_upper,
        flows=net.ptdf.T @ q, active_set=sol.active_set,
    )


def _solve_program(net: NetworkModel, hess, linear, base, k: float,
                   active=()) -> QpSolution:
    """Minimize ``sum (hess x^2 / 2 + linear x)`` over ``x`` whose purchases
    ``q = base - k x`` balance and keep every line flow within its limit.

    Stationarity reads ``u = hess x + linear = -nu + k G' (mu_up - mu_lo)``
    (``G`` the PTDF rows of the lines), so the purchases are ``q = alpha -
    beta u`` with ``alpha = base + k linear / hess`` and ``beta = k /
    hess``.  One hot-start loop serves both topologies:

    * Guess.  ``active``, as ``QpSolution.active_set`` pairs, names the
      lines held at a limit; zero-limit lines are always held, as their
      duals have no sign condition.  The empty guess is the uniform-price
      point, the answer when no line is at a limit.
    * Held-set solve.  Prices, purchases and flows with the held lines at
      their targets, and each held line's push ``k (mu_up - mu_lo)`` in
      price units: the component solve of :mod:`esharing.tree` on a radial
      network, :func:`_mesh_components` on a meshed one.
    * Check.  The program is strictly convex, so the result is its unique
      optimum when every free line is within its limit and every held line
      with a positive limit pushes its flow back (``push >= 0`` at ``+F``,
      ``<= 0`` at ``-F``), to rounding level.
    * Exchange step, when the check fails (Hintermueller, Ito & Kunisch,
      SIAM J. Optim. 13(3), 2002): release the held lines with a
      wrong-signed push, hold the free lines beyond their limit at the side
      they exceed, and solve again.  A guess a few lines off settles in a
      few steps, but the steps can cycle.
    * Fallback after ``_EXCHANGE_STEPS`` steps, or when a mesh's held rows
      are dependent: the exact pass of :mod:`esharing.tree` finds the held
      set on a radial network, and the dual active-set method of
      :func:`esharing.qp.solve_qp`, which starts from the unconstrained
      minimum, solves a meshed one.

    The solution reports the balance dual ``nu`` as its only equality
    dual, the line duals in the sign convention of ``solve_qp`` for rows
    ``-k G x``, the held lines as its ``active_set``, as ``iterations`` the
    held solves made plus the exact pass's one or the QP's iterations and,
    as ``residual``, the worst balance error, flow excess or clipped dual,
    the conditions a held solve does not meet by construction.
    """
    limits = net.limits
    alpha, beta = base + k * linear / hess, k / hess
    held = limits == 0.0
    target = np.zeros(limits.size)  # the flows of the held lines
    if len(active):
        guessed = np.array([l for l, _ in active])
        sides = np.array([1.0 if side == "upper" else -1.0 for _, side in active])
        keep = np.isfinite(limits[guessed]) & ~held[guessed]
        guessed = guessed[keep]
        held[guessed] = True
        target[guessed] = sides[keep] * limits[guessed]
    finite, signed = np.isfinite(limits), limits > 0.0
    radial = is_radial(net)
    components = _tree_components if radial else _mesh_components
    for iterations in range(1, _EXCHANGE_STEPS + 2):
        step = components(net, alpha, beta, held, target)
        if step is None:  # dependent held rows on a mesh
            break
        u, q, flows, push = step
        # written as "not within", so that a NaN counts as a violation
        over = ~held & finite & ~(
            np.abs(flows) - limits <= _RTOL * (1.0 + np.abs(q).sum()))
        wrong = held & signed & ~(
            -np.sign(target) * push <= _RTOL * (1.0 + np.abs(u).max()))
        if not (over.any() or wrong.any()):
            break
        held = (held & ~wrong) | over
        target = np.where(over, np.copysign(limits, flows), target)
    else:  # the steps may cycle
        step = None
    if step is None:
        if not radial:
            sol = _cold_qp(net, hess, linear, base, k)
            return replace(sol, iterations=iterations + sol.iterations)
        held, target = _exact_pass(net.tree, limits, alpha, beta)
        u, q, flows, push = components(net, alpha, beta, held, target)
        iterations += 1

    dual = np.where(held, push / k, 0.0)  # mu_up - mu_lo
    upper = held & np.where(limits == 0.0, dual >= 0.0, target > 0.0)
    lower = held & ~upper
    mu_up = np.where(upper, np.maximum(dual, 0.0), 0.0)
    mu_lo = np.where(lower, np.maximum(-dual, 0.0), 0.0)
    residual = max(abs(float(q.sum())),
                   float(np.max(np.abs(flows) - limits, initial=0.0)),
                   float(np.max(-dual[upper], initial=0.0)),
                   float(np.max(dual[lower], initial=0.0)))
    held_lines = np.flatnonzero(held)
    return QpSolution(
        x=(u - linear) / hess, eq_duals=np.array([-u[net.slack - 1]]),
        ineq_duals_lower=mu_lo, ineq_duals_upper=mu_up,
        active_set=tuple(zip(held_lines.tolist(),
                             np.where(upper[held_lines], "upper", "lower").tolist())),
        iterations=iterations, residual=residual,
    )


def _mesh_components(net, alpha, beta, held, target):
    """Prices ``u``, purchases, flows and pushes on a meshed network with
    the ``held`` lines' flows at ``target``, or None when the held rows are
    (nearly) dependent.

    The price is ``u = R' z`` on the rows ``R`` of the balance and the held
    lines' flows, so ``R diag(beta) R' z = R alpha - t`` puts the purchases
    on their targets ``t``; one refinement pass follows.  A near-singular
    system, such as all lines of a cycle or a line with its parallel twin,
    gives garbage that can pass the optimality check, so the balance and
    every held flow must meet their targets afterwards.
    """
    G = net.ptdf.T
    rows = np.vstack([np.ones(alpha.size), G[held]])
    t = np.concatenate([[0.0], target[held]])
    schur = (rows * beta) @ rows.T
    z, q = np.zeros(t.size), alpha
    try:
        for _ in range(2):
            z = z + np.linalg.solve(schur, rows @ q - t)
            u = z @ rows
            q = alpha - beta * u
    except np.linalg.LinAlgError:
        return None
    flows = G @ q
    gap = max(abs(q.sum()), np.abs(flows[held] - target[held]).max(initial=0.0))
    if not gap <= _RTOL * (1.0 + np.abs(alpha).sum()):
        return None
    push = np.zeros(held.size)
    push[held] = z[1:]
    return u, q, flows, push


def _cold_qp(net, hess, linear, base, k: float) -> QpSolution:
    """The program as a dense QP in ``x``, solved cold by
    :func:`esharing.qp.solve_qp`."""
    G = net.ptdf.T
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
    return solve_qp(qp)


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

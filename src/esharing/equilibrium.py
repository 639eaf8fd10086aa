"""Benchmark solutions and the regulated-mechanism equilibrium.

Three convex programs over the production vector p share the constraint set
"total production preserved, line flows within limits":

* the social optimum minimizes total disutility ``sum J_i(p_i)``;
* the central program adds the vanishing penalty
  ``sum (D_i - p_i)^2 / (2 a (I-1))`` whose unique minimizer, translated
  through the bid identity ``b_i = D_i - p_i + a lam_i``, is the unique
  equilibrium of the regulated sharing game;
* the price-taking benchmark reuses the social optimum with marginal-cost
  prices.

Duals ``kappa`` (balance) and ``tau`` (flow bounds) give the regulated price
its locational structure: price = -kappa - sum_l pi_il tau_l_lower
+ sum_l pi_il tau_l_upper.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBaseline, NonRadialWarning
from .market import (
    ClearingOutcome,
    Scenario,
    _solve_program,
    clear_market,
    cost_at,
    marginal_term,
)
from .network import is_radial

_PARETO_TOL = 1e-8  # a margin this far below zero still counts as no loss


@dataclass(frozen=True, eq=False)
class SocialOptimum:
    """Minimum-total-disutility production plan with its duals."""

    p_tilde: np.ndarray
    kappa: float
    tau_lower: np.ndarray
    tau_upper: np.ndarray
    cost_per_prosumer: np.ndarray
    total_cost: float


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """Unique equilibrium of the regulated sharing game.

    ``costs`` are the per-prosumer regulated costs; ``clearing_residual`` is
    the max price discrepancy when the equilibrium bids are re-cleared through
    the market rule (self-consistency diagnostic).
    """

    p_bar: np.ndarray
    b_bar: np.ndarray
    lambda_r: np.ndarray
    kappa: float
    tau_lower: np.ndarray
    tau_upper: np.ndarray
    costs: np.ndarray
    total_disutility: float
    net_payment: float
    clearing_residual: float
    clearing: ClearingOutcome


@dataclass(frozen=True, eq=False)
class VariationalEquilibrium:
    """Equal-multiplier equilibrium of the unregulated game (radial networks)."""

    p_bar: np.ndarray
    b_bar: np.ndarray
    prices: np.ndarray


@dataclass(frozen=True, eq=False)
class PriceTakingEquilibrium:
    """Large-market benchmark: social optimum supported by marginal-cost prices."""

    p_tilde: np.ndarray
    prices: np.ndarray
    bids: np.ndarray


def _production_program(scenario: Scenario, hessian_diag, linear,
                        active=None) -> tuple:
    """Minimize ``sum (hessian_diag p^2 / 2 + linear p)`` over productions
    that keep total production and every line flow within its limit.

    Solved by :func:`esharing.market._solve_program` with ``active``, a
    side vector guessing the binding lines or None, as its hot start.
    Returns ``(p, kappa, tau_lower, tau_upper)``.
    """
    sol, _ = _solve_program(scenario.network, np.asarray(hessian_diag, dtype=float),
                            np.asarray(linear, dtype=float), scenario.D, 1.0,
                            active)
    return sol.x, float(sol.eq_duals[0]), sol.ineq_duals_lower, sol.ineq_duals_upper


def _binding_lines(tau_lower, tau_upper) -> np.ndarray:
    """Lines with a positive flow dual, as a side vector: +1 where the
    upper limit's dual is positive, -1 where the lower one's is, else 0."""
    return (tau_upper > 0.0) - (tau_lower > 0.0).astype(float)


def social_optimum(scenario: Scenario, active=None) -> SocialOptimum:
    """Minimize total disutility subject to balance and flow limits.

    ``active`` is a guess of the binding lines, a side vector as in
    ``ClearingOutcome.sides``, or None.  The regulated equilibrium's
    binding lines are usually the optimum's, and from them the solve takes
    one held-set solve.
    """
    p, kappa, tau_lo, tau_up = _production_program(
        scenario, 2.0 * scenario.c, scenario.d, active)
    costs = scenario.disutility(p)
    return SocialOptimum(p_tilde=p, kappa=kappa, tau_lower=tau_lo,
                         tau_upper=tau_up, cost_per_prosumer=costs,
                         total_cost=float(costs.sum()))


def central_solution(scenario: Scenario):
    """Unique minimizer of the penalized program and its duals.

    Solved from the uniform-price guess, the empty set of binding lines.
    Returns ``(p_bar, kappa, tau_lower, tau_upper)``.
    """
    w = 1.0 / (scenario.a * (scenario.size - 1))
    return _production_program(scenario, 2.0 * scenario.c + w,
                               scenario.d - w * scenario.D)


def improved_gne(scenario: Scenario) -> EquilibriumResult:
    """Equilibrium of the regulated mechanism, built constructively.

    Production solves the central program; prices and bids follow from the
    marginal-disutility identity and the bid identity.  The result embeds a
    self-consistency residual: re-clearing the equilibrium bids must
    reproduce the equilibrium prices.
    """
    p_bar, kappa, tau_lo, tau_up = central_solution(scenario)
    q_bar = scenario.D - p_bar
    lam_r = marginal_term(scenario, p_bar, q_bar)
    b_bar = q_bar + scenario.a * lam_r
    # a clearing row is the central program's row of the same line, bound
    # for bound, so the central binding lines are the clearing's active set
    clearing = clear_market(scenario, b_bar,
                            active=_binding_lines(tau_lo, tau_up))
    residual = float(np.abs(clearing.prices - lam_r).max())
    costs = cost_at(scenario, clearing.prices, clearing.quantities,
                    regulated=True)
    return EquilibriumResult(
        p_bar=p_bar, b_bar=b_bar, lambda_r=lam_r, kappa=kappa,
        tau_lower=tau_lo, tau_upper=tau_up, costs=costs,
        total_disutility=float(scenario.disutility(p_bar).sum()),
        net_payment=float(lam_r @ q_bar), clearing_residual=residual,
        clearing=clearing,
    )


def variational_equilibrium(scenario: Scenario) -> VariationalEquilibrium:
    """Closed-form equal-multiplier equilibrium of the unregulated game.

    The closed form is justified on radial networks only; a warning (not an
    error) is emitted otherwise.
    """
    if not is_radial(scenario.network):
        warnings.warn(
            "variational-equilibrium closed form assumes a radial network",
            NonRadialWarning, stacklevel=2,
        )
    p_bar, _, _, _ = central_solution(scenario)
    resid = scenario.D - p_bar
    prices = 2.0 * scenario.c * p_bar + scenario.d + resid / scenario.a
    b_bar = (2.0 * scenario.a * scenario.c * p_bar + scenario.a * scenario.d
             + 2.0 * resid)
    return VariationalEquilibrium(p_bar=p_bar, b_bar=b_bar, prices=prices)


def price_taking_equilibrium(scenario: Scenario) -> PriceTakingEquilibrium:
    """Social optimum supported by marginal-disutility prices.

    At the optimum the multiplier of each prosumer's demand-reduction
    constraint equals its marginal disutility, so prices are evaluated
    directly; bids follow from the bid identity.
    """
    so = social_optimum(scenario)
    prices = 2.0 * scenario.c * so.p_tilde + scenario.d
    bids = scenario.D - so.p_tilde + scenario.a * prices
    return PriceTakingEquilibrium(p_tilde=so.p_tilde, prices=prices, bids=bids)


def self_sufficiency(scenario: Scenario):
    """Per-prosumer and total cost of meeting the reduction with no trading."""
    costs = scenario.disutility(scenario.D)
    return costs, float(costs.sum())


def poa(scenario: Scenario, eqm: EquilibriumResult | None = None) -> dict:
    """Efficiency loss of the equilibrium relative to the social optimum.

    ``eqm`` is the equilibrium when the caller already has it (from
    :func:`improved_gne`); otherwise the central program is solved.  The
    social program starts from the equilibrium's binding lines.
    The equilibrium plan is feasible for the social program, so its cost
    bounds the optimum from above; the social cost is the lower of the two,
    which keeps ``poa_value >= 1`` when both plans agree up to rounding.
    Returns ``poa_value``, the instance constants ``C1`` (largest squared
    sharing quantity over both solutions) and ``C2`` (smallest optimal
    per-prosumer cost), and ``upper_bound = 1 + C1/(2a(I-1)C2)`` (``None``
    when C2 <= 0 makes the bound undefined).
    """
    if eqm is None:
        p_bar, _, tau_lo, tau_up = central_solution(scenario)
    else:
        p_bar, tau_lo, tau_up = eqm.p_bar, eqm.tau_lower, eqm.tau_upper
    so = social_optimum(scenario, active=_binding_lines(tau_lo, tau_up))
    j_bar = float(scenario.disutility(p_bar).sum())
    social_cost = min(so.total_cost, j_bar)
    if social_cost <= 0.0:
        raise DegenerateBaseline(
            f"social optimum cost {social_cost} is not positive"
        )
    dev = np.concatenate([scenario.D - so.p_tilde, scenario.D - p_bar])
    c1 = float(np.max(dev * dev))
    c2 = float(so.cost_per_prosumer.min())
    n = scenario.size
    bound = 1.0 + c1 / (2.0 * scenario.a * (n - 1) * c2) if c2 > 0.0 else None
    return {
        "poa_value": j_bar / social_cost,
        "upper_bound": bound,
        "C1": c1,
        "C2": c2,
        "equilibrium_cost": j_bar,
        "social_cost": social_cost,
    }


def price_structure_residual(scenario: Scenario, eqm: EquilibriumResult) -> float:
    """Deviation of the equilibrium prices from their locational form."""
    net = scenario.network
    rebuilt = (-eqm.kappa - net.price_terms(eqm.tau_lower)
               + net.price_terms(eqm.tau_upper))
    return float(np.abs(eqm.lambda_r - rebuilt).max())


def congestion_rent(scenario: Scenario, eqm: EquilibriumResult) -> float:
    """Limit-weighted sum of flow duals; equals the net payment at equilibrium."""
    limits = scenario.network.limits
    finite = np.isfinite(limits)
    duals = eqm.tau_lower + eqm.tau_upper
    return float((limits[finite] * duals[finite]).sum())


def pareto_check(scenario: Scenario, eqm: EquilibriumResult):
    """Compare each regulated equilibrium cost against self-sufficiency.

    Returns ``(ok_vector, margins)`` where ``margins[i] = J_i(D_i) - cost_i``
    (nonnegative margins mean the prosumer is no worse off than going alone).
    """
    baseline, _ = self_sufficiency(scenario)
    margins = baseline - eqm.costs
    return margins >= -_PARETO_TOL, margins

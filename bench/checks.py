"""Output checks of the benchmark, against independent computations.

Nothing here compares with a stored copy of earlier output.  The gne checks
rebuild the flow map from the scenario's line data with plain numpy and
verify the KKT system of the central program, the bid identity, the
re-clearing conditions, the participation margins, the payment identity and
the efficiency bound.  The bidding checks verify convergence, Fejér
monotonicity of the recorded trace and the distance to the equilibrium.  The
scan checks re-price the reported best bid through ``market.prosumer_cost``
(one clearing per point, a different path from the scan's pattern solver).

Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv

import numpy as np

from esharing import market

KKT_TOL = 1e-8          # README contract: KKT residual of the programs
RECLEAR_TOL = 1e-6      # README contract: re-clearing the equilibrium bids
PARETO_TOL = 1e-8       # README contract: participation margins
IDENTITY_RTOL = 1e-9    # recomputed closed-form identities
BID_GAP_EPS = 50.0      # final bids within this many epsilons of b_bar
FEJER_RTOL = 1e-10      # allowed growth of a squared distance, relative
DEVIATION_TOL = 1e-6    # regulated scans: allowed deviation gain, relative
CHAIN_BID_TOL = 2e-3    # location of the counterexample's minima


def flow_map(scenario) -> np.ndarray:
    """Bus-by-line flow per unit purchase, from the nodal equations."""
    net = scenario.network
    n, lines = net.bus_count, net.lines
    inc = np.zeros((n, len(lines)))
    for col, ln in enumerate(lines):
        inc[ln.from_bus - 1, col] = 1.0
        inc[ln.to_bus - 1, col] = -1.0
    weight = np.array([ln.weight for ln in lines])
    keep = np.arange(n) != net.slack - 1
    reduced = inc[keep]
    lap = (reduced * weight) @ reduced.T
    pi = np.zeros((n, len(lines)))
    pi[keep] = -np.linalg.solve(lap, reduced * weight)
    return pi


def _limits(scenario) -> np.ndarray:
    return np.array([ln.limit for ln in scenario.network.lines], dtype=float)


def _scaled(num: float, *scales) -> float:
    return float(num) / (1.0 + max(float(s) for s in scales))


def _amax(v) -> float:
    return float(np.max(np.abs(v), initial=0.0))


def _complementarity(flows, limits, tau_lo, tau_up) -> float:
    """Worst product of a flow dual with its slack; an unlimited line's dual must be 0."""
    finite = np.isfinite(limits)
    comp = np.concatenate([
        np.abs(tau_up[finite] * (limits[finite] - flows[finite])),
        np.abs(tau_lo[finite] * (flows[finite] + limits[finite])),
        np.abs(tau_up[~finite]), np.abs(tau_lo[~finite]),
    ])
    scale = (1.0 + _amax(np.concatenate([tau_lo, tau_up]))) * \
        (1.0 + _amax(np.where(finite, limits, 0.0)))
    return float(np.max(comp, initial=0.0)) / scale


def _feasibility(flows, limits) -> float:
    viol = np.max(np.abs(flows) - limits, initial=0.0)
    return _scaled(max(viol, 0.0), _amax(np.where(np.isfinite(limits), limits, 0.0)))


def central_kkt(scenario, p, kappa, tau_lo, tau_up) -> float:
    """Scaled KKT residual of the central program at a reported solution.

    The program is ``min sum (c + w/2) p^2 + (d - w D) p`` subject to
    ``sum p = sum D`` and ``|flows(D - p)| <= F`` with ``w = 1/(a(I-1))``.
    """
    n, a = scenario.size, scenario.a
    c, d, D = scenario.c, scenario.d, scenario.D
    w = 1.0 / (a * (n - 1))
    hp = (2.0 * c + w) * p
    g = d - w * D
    pi = flow_map(scenario)
    push = pi @ (tau_up - tau_lo)
    stat = _scaled(_amax(hp + g + kappa - push), _amax(hp), _amax(g), abs(kappa),
                   _amax(push))
    limits = _limits(scenario)
    flows = pi.T @ (D - p)
    balance = _scaled(abs(float(p.sum() - D.sum())), float(np.abs(D).sum()))
    sign = _scaled(max(0.0, -float(np.min(tau_lo, initial=0.0)),
                       -float(np.min(tau_up, initial=0.0))),
                   _amax(tau_lo), _amax(tau_up))
    return max(stat, balance, sign, _feasibility(flows, limits),
               _complementarity(flows, limits, tau_lo, tau_up))


def check_equilibrium(scenario, p, kappa, tau_lo, tau_up, lam=None, bids=None) -> list:
    """Central-program KKT, plus the price and bid identities when given."""
    fails = []
    kkt = central_kkt(scenario, p, kappa, tau_lo, tau_up)
    if not kkt <= KKT_TOL:
        fails.append(f"central KKT residual {kkt:.3e} > {KKT_TOL:g}")
    n, a = scenario.size, scenario.a
    q = scenario.D - p
    lam_ref = 2.0 * scenario.c * p + scenario.d - q / (a * (n - 1))
    if lam is not None:
        gap = _scaled(_amax(lam - lam_ref), _amax(lam_ref))
        if not gap <= IDENTITY_RTOL:
            fails.append(f"lambda_r off the marginal identity by {gap:.3e}")
    if bids is not None:
        b_ref = q + a * lam_ref
        gap = _scaled(_amax(bids - b_ref), _amax(b_ref))
        if not gap <= IDENTITY_RTOL:
            fails.append(f"b_bar off the bid identity by {gap:.3e}")
    return fails


def check_gne_report(scenario, report: dict) -> list:
    """Checks on one ``batch`` report: equilibrium, re-clearing, margins, poa."""
    r = report["results"]
    p = np.asarray(r["p_bar"], dtype=float)
    lam = np.asarray(r["lambda_r"], dtype=float)
    bids = np.asarray(r["b_bar"], dtype=float)
    kappa = float(r["kappa"])
    tau_lo = np.asarray(r["tau_lower"], dtype=float)
    tau_up = np.asarray(r["tau_upper"], dtype=float)
    fails = check_equilibrium(scenario, p, kappa, tau_lo, tau_up, lam, bids)
    a = scenario.a
    limits = _limits(scenario)
    pi = flow_map(scenario)

    # re-clearing: lambda_r satisfies the clearing KKT system at b_bar with
    # duals 2 kappa/a and 2 tau/a; the clearing program is strictly convex,
    # so these prices are the ones the market rule returns
    q = bids - a * lam
    flows = pi.T @ q
    located = -kappa - pi @ tau_lo + pi @ tau_up
    reclear = max(
        _scaled(2.0 * _amax(lam - located), _amax(lam)),
        _scaled(abs(float(q.sum())), float(np.abs(bids).sum())),
        _feasibility(flows, limits),
        _complementarity(flows, limits, tau_lo, tau_up),
    )
    if not reclear <= RECLEAR_TOL:
        fails.append(f"re-clearing residual {reclear:.3e} > {RECLEAR_TOL:g}")
    if not float(report["residuals"]["clearing_price_gap"]) <= RECLEAR_TOL:
        fails.append("reported clearing_price_gap above 1e-6")

    disutility = scenario.c * scenario.D ** 2 + scenario.d * scenario.D
    j_p = scenario.c * p * p + scenario.d * p
    costs = j_p + lam * q
    margins = disutility - costs
    if not float(margins.min()) >= -PARETO_TOL:
        fails.append(f"Pareto margin {float(margins.min()):.3e} < -{PARETO_TOL:g}")
    rep_costs = np.asarray(r["costs"], dtype=float)
    if not _scaled(_amax(rep_costs - costs), _amax(costs)) <= IDENTITY_RTOL:
        fails.append("reported costs differ from J(p) + lambda q")

    pay = float(lam @ q)
    finite = np.isfinite(limits)
    rent = float((limits[finite] * (tau_lo + tau_up)[finite]).sum())
    if not _scaled(abs(pay - rent), float(np.abs(lam * q).sum())) <= KKT_TOL:
        fails.append(f"net payment {pay!r} != congestion rent {rent!r}")
    if not _scaled(abs(float(r["net_payment"]) - pay), abs(pay)) <= IDENTITY_RTOL:
        fails.append("reported net_payment differs from lambda . q")

    poa = r["poa"]
    value, bound = float(poa["poa_value"]), poa["upper_bound"]
    if bound is None or not 1.0 - 1e-12 <= value <= float(bound):
        fails.append(f"poa_value {value!r} outside [1, {bound!r}]")
    j_total = float(j_p.sum())
    if not _scaled(abs(float(poa["equilibrium_cost"]) - j_total), j_total) \
            <= IDENTITY_RTOL:
        fails.append("poa equilibrium_cost differs from sum J(p_bar)")
    return fails


def read_trace(path) -> dict:
    """Bidding trace CSV as arrays (iterations x prosumers)."""
    cols = {"lambda": [], "b": [], "p": []}
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    iters = max(int(row["iter"]) for row in rows)
    n = len(rows) // iters
    for key in cols:
        cols[key] = np.array([float(row[key]) for row in rows]).reshape(iters, n)
    return cols


def default_epsilon(scenario) -> float:
    """The bidding stop tolerance the CLI uses when ``--eps`` is not given."""
    return 1e-6 * (1.0 + float(np.abs(scenario.D).max()))


def check_bid(scenario, results: dict, trace: dict, eqm) -> list:
    """Convergence, Fejér monotonicity and closeness to the equilibrium."""
    fails = []
    eps = default_epsilon(scenario)
    if not float(results["final_delta"]) <= eps:
        fails.append(f"final_delta {results['final_delta']!r} > eps {eps!r}")
    bids = np.asarray(results["bids"], dtype=float)
    if trace["b"].shape[0] != int(results["iterations"]) + 1:
        fails.append("trace length differs from iterations + 1")
    if not np.array_equal(trace["b"][-1], bids):
        fails.append("last trace row differs from the reported bids")
    dp = trace["p"] - eqm.p_bar
    db = trace["b"] - eqm.b_bar
    sq = (dp * dp).sum(axis=1) + (db * db).sum(axis=1)
    growth = sq[1:] - sq[:-1] - FEJER_RTOL * (1.0 + sq[:-1])
    if growth.size and float(growth.max()) > 0.0:
        fails.append(f"trace not Fejér monotone: growth {float(growth.max()):.3e}")
    gap = _amax(bids - eqm.b_bar)
    if not gap <= BID_GAP_EPS * eps:
        fails.append(f"final bids {gap:.3e} from b_bar > {BID_GAP_EPS:g} eps")
    lam = np.asarray(results["prices"], dtype=float)
    p = np.asarray(results["production"], dtype=float)
    b_ref = scenario.D - p + scenario.a * lam
    if not _scaled(_amax(bids - b_ref), _amax(bids)) <= IDENTITY_RTOL:
        fails.append("final bids off the bid identity")
    return fails


def check_scan(scenario, results: dict, k: int, fixed_bids, regulated: bool,
               incumbent_cost: float | None = None) -> list:
    """Reported minima are consistent and the best one re-prices exactly."""
    fails = []
    minima = [(float(b), float(c)) for b, c in results["local_minima"]]
    best_bid, best_cost = float(results["best_bid"]), float(results["best_cost"])
    lo, hi = results["interval"]
    if not minima or min(c for _, c in minima) != best_cost \
            or (best_bid, best_cost) not in minima:
        fails.append("best response is not the lowest local minimum")
    if not lo <= best_bid <= hi:
        fails.append("best bid outside the scanned interval")
    bids = np.array(fixed_bids, dtype=float)
    bids[k] = best_bid
    cost = market.prosumer_cost(scenario, bids, k, regulated=regulated)
    if not abs(cost - best_cost) <= IDENTITY_RTOL * (1.0 + abs(cost)):
        fails.append(f"best_cost {best_cost!r} but prosumer_cost gives {cost!r}")
    if incumbent_cost is not None:
        gain = incumbent_cost - best_cost
        if gain > DEVIATION_TOL * (1.0 + abs(incumbent_cost)):
            fails.append(f"regulated deviation gain {gain:.3e} at equilibrium bids")
    return fails


def regulated_cost_at(scenario, eqm, k: int) -> float:
    """Prosumer ``k``'s cost at the equilibrium, where lambda_r equals its marginal."""
    p = float(eqm.p_bar[k])
    q = float(scenario.D[k]) - p
    return float(scenario.c[k]) * p * p + float(scenario.d[k]) * p \
        + float(eqm.lambda_r[k]) * q


def check_chain(results: dict, limit: float) -> list:
    """The paper's counterexample: one minimum at 1.6 for F=0.30; at F=0.27 a
    second, better one near 1.535 appears."""
    minima = sorted((float(b), float(c)) for b, c in results["local_minima"])

    def near(b, ref):
        return abs(b - ref) <= CHAIN_BID_TOL

    if limit >= 0.30:
        if len(minima) != 1 or not near(minima[0][0], 1.6):
            return [f"F={limit}: expected one minimum at 1.6, got {minima}"]
        return []
    if len(minima) != 2 or not near(minima[0][0], 1.535) \
            or not near(minima[1][0], 1.6) or not minima[0][1] < minima[1][1]:
        return [f"F={limit}: expected minima near 1.535 (better) and 1.6, "
                f"got {minima}"]
    if not near(float(results["best_bid"]), 1.535):
        return [f"F={limit}: best bid {results['best_bid']!r} not near 1.535"]
    return []

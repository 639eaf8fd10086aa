"""Best-response laboratory for the unregulated sharing game.

Fixing all bids but one, a prosumer's cost as a function of its own bid is
piecewise quadratic: each set of lines held at a limit by the clearing rule
contributes one affine price segment.  The lab scans that curve on a grid
with recursive refinement, reports every local minimum (so disqualified
equilibrium candidates are visible, not just the best response), verifies
equilibrium candidates by per-prosumer deviation gaps, and classifies the
two-bus closed-form regimes.

A scan evaluates one piecewise-affine clearing path: each piece is built
from one :func:`clear_market` call at the first bid no earlier piece
covers, and holds over an interval whose ends are found in closed form, so
the coarse grid and every refinement window share a handful of clearings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteResult, ScanIntervalEmpty, WrongTopology
from .market import Scenario, _held_solve, clear_market, cost_at
from .network import is_radial

_REFINE_FACTOR = 10  # spacing shrink per refinement round
_DISTINCT_TOL = 1e-5  # refined minima closer than this are one minimum
_FIXED_POINT_TOL = 1e-5  # sweep step below which br_iteration verifies
_CYCLE_TOL = 1e-5  # distance at which a sweep revisits an earlier state
_VERIFY_TOL = 1e-6  # deviation gap a verified fixed point may leave


@dataclass(frozen=True)
class ScanConfig:
    """Grid controls for :func:`best_response`.

    ``interval=None`` auto-sizes around the marginal-cost-consistent bid
    range (see ``_auto_interval``).  Each of the ``refine_rounds`` shrinks
    the spacing tenfold around each local minimum.
    """

    interval: tuple | None = None
    coarse_points: int = 2001
    refine_rounds: int = 3


@dataclass(frozen=True, eq=False)
class BestResponseScan:
    """Scan result for one prosumer against fixed opponent bids."""

    prosumer: int
    fixed_bids: np.ndarray
    interval: tuple
    samples_b: np.ndarray
    samples_cost: np.ndarray
    local_minima: tuple
    best_bid: float
    best_cost: float
    regulated: bool


@dataclass(frozen=True, eq=False)
class GneCheck:
    """Per-prosumer deviation gaps for an equilibrium candidate."""

    is_gne: bool
    gaps: np.ndarray
    incumbent_costs: np.ndarray
    best_bids: np.ndarray
    tol: float


@dataclass(frozen=True, eq=False)
class GneClassification2Bus:
    """Closed-form equilibrium structure of the symmetric two-bus game.

    ``regime`` is ``unique``, ``multiple-upper``, or ``multiple-lower``.  In
    the multiple regimes ``b2_interval`` spans the equilibrium family and
    ``b_bar``/``lam_bar`` are ``None``; production is common to the family.
    """

    regime: str
    c: float
    demands: tuple
    limit: float
    p_bar: np.ndarray
    b_bar: np.ndarray | None = None
    lam_bar: np.ndarray | None = None
    b2_interval: tuple | None = None

    def at(self, b2: float):
        """Bid/price pair of the family member with second bid ``b2``."""
        if self.regime == "unique":
            return self.b_bar, self.lam_bar
        lo, hi = self.b2_interval
        if not lo - 1e-12 <= b2 <= hi + 1e-12:
            raise ValueError(f"b2={b2} outside the equilibrium interval [{lo}, {hi}]")
        F = self.limit
        if self.regime == "multiple-upper":
            b = np.array([b2 + 2.0 * F, b2])
            lam = np.array([b[0] - F, b2 + F])
        else:
            b = np.array([b2 - 2.0 * F, b2])
            lam = np.array([b[0] + F, b2 - F])
        return b, lam


@dataclass(frozen=True, eq=False)
class BrTrajectory:
    """Sequential best-response sweep record."""

    states: tuple
    termination: str  # fixed_point | cycling | max_iter
    fixed_point: bool
    verification: GneCheck | None


@dataclass(frozen=True, eq=False)
class Example2Region:
    region: str  # M | L | U
    prices: np.ndarray


# ---------------------------------------------------------------------------
# the clearing solution along a one-dimensional bid sweep


def _clearing_path(scenario: Scenario, i: int, b_base: np.ndarray):
    """Prosumer ``i``'s clearing price as a function of its own bid ``t``.

    ``b_base`` is the full bid vector with slot ``i`` zeroed.  Returns a
    function mapping an array of bids to the prices ``lam_i(t)``.

    The clearing program is a strictly convex QP whose right-hand side is
    affine in ``t``, so its solution is piecewise affine in ``t``, one piece
    per set of lines held at a limit (Bemporad, Morari, Dua & Pistikopoulos,
    Automatica 38(1), 2002).  A piece is built at the first bid no earlier
    piece covers, by one :func:`clear_market` call that guesses the last
    piece's held lines.  Its slopes are the held-set solve's answer to a
    unit bid at bus ``i`` with zero targets; it holds exactly where every
    free line stays within its limits and every held line with a nonzero
    limit keeps a right-signed dual.  A start clearing that already violates
    one of these beyond rounding, or a refused held solve, gives a piece of
    one point.
    """
    net, a = scenario.network, scenario.a
    F, bounded = net.limits, net.bounded
    unit = np.eye(scenario.size)[i]
    beta = np.full(scenario.size, a / 2.0)  # the clearing program's k / hess
    pieces = []  # (lo, hi, t0, lam_i(t0), d lam_i / dt)
    guess = None

    def build(t0):
        nonlocal guess
        b = b_base.copy()
        b[i] = t0
        out = clear_market(scenario, b, active=guess)
        guess = side = out.sides
        held = side != 0.0
        lam0 = float(out.prices[i])
        slopes = _held_solve(net, unit, beta, held, np.zeros(F.size))
        if slopes is None:
            return t0, t0, t0, lam0, 0.0
        du, _, dflow, dpush = slopes
        free = bounded & ~held
        # a held line's dual is side push / a; with F = 0 it has no sign
        signed = bounded & held
        dual = np.where(side > 0, out.alpha_upper, out.alpha_lower)
        # every condition reads value + slope * (t - t0) >= 0
        value = np.concatenate([F[free] - out.flows[free],
                                F[free] + out.flows[free], dual[signed]])
        slope = np.concatenate([-dflow[free], dflow[free],
                                (side * dpush / a)[signed]])
        scale = 1.0 + np.abs(b).sum() + F[bounded].max(initial=0.0)
        if np.any(value < -1e-9 * scale):
            return t0, t0, t0, lam0, 0.0
        value = np.maximum(value, 0.0)
        lo = t0 - float(np.min(value[slope > 0] / slope[slope > 0],
                               initial=np.inf))
        hi = t0 + float(np.min(value[slope < 0] / -slope[slope < 0],
                               initial=np.inf))
        return lo, hi, t0, lam0, float(du[i] / 2.0)

    def prices(t):
        lam = np.empty(t.size)
        todo = np.ones(t.size, dtype=bool)

        def fill(piece):
            lo, hi, t0, lam0, dlam_i = piece
            hit = todo & (t >= lo) & (t <= hi)
            lam[hit] = lam0 + dlam_i * (t[hit] - t0)
            todo[hit] = False

        for piece in pieces:
            fill(piece)
        for j in np.argsort(t, kind="stable"):
            if todo[j]:
                pieces.append(build(float(t[j])))
                fill(pieces[-1])
        return lam

    return prices


def _auto_interval(scenario: Scenario, i: int, b_base: np.ndarray,
                   include=()) -> tuple:
    """Heuristic bid window guaranteed wide enough in practice.

    Anchors at the bids consistent with marginal-cost pricing over the full
    plausible production range (own demand shifted by the system total),
    takes the hull with zero, the opponents' mean bid, and any requested
    points, then widens threefold.
    """
    a = scenario.a
    c_i, d_i, D_i = scenario.c[i], scenario.d[i], scenario.D[i]
    span = float(np.abs(scenario.D).sum()) + 1.0
    p_ends = np.array([D_i - span, D_i + span])
    anchors = D_i - p_ends + a * (2.0 * c_i * p_ends + d_i)
    others = np.delete(b_base, i)
    pts = [float(anchors.min()), float(anchors.max()), 0.0,
           float(others.mean())]
    pts.extend(float(v) for v in include)
    lo, hi = min(pts), max(pts)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    half = max(half, 1.0 + 0.1 * abs(mid))
    return (mid - 3.0 * half, mid + 3.0 * half)


def _local_minima_indices(cost: np.ndarray) -> list:
    """Indices of local minima, plateau runs collapsed to one representative."""
    tie = 1e-12 * (1.0 + float(np.abs(cost).max()))
    # runs of ties end where a step is not within the tie (NaN included)
    step = np.flatnonzero(~(np.abs(np.diff(cost)) <= tie))
    starts = np.concatenate([[0], step + 1])
    ends = np.concatenate([step, [cost.size - 1]])
    left_ok = cost[starts - 1] > cost[starts] + tie
    right_ok = cost[np.minimum(ends + 1, cost.size - 1)] > cost[ends] + tie
    left_ok[0] = right_ok[-1] = True
    return ((starts + ends) // 2)[left_ok & right_ok].tolist()


def best_response(scenario: Scenario, i: int, b_minus_i,
                  scan_config: ScanConfig | None = None,
                  regulated: bool = False, include=()) -> BestResponseScan:
    """Scan prosumer ``i``'s cost over its own bid, opponents fixed.

    ``b_minus_i`` lists the other prosumers' bids in bus order (length I-1).
    All local minima are reported after refinement; the global one is the
    best response.
    """
    cfg = scan_config or ScanConfig()
    b_minus_i = np.asarray(b_minus_i, dtype=float)
    if b_minus_i.shape != (scenario.size - 1,):
        raise ScanIntervalEmpty(
            f"expected {scenario.size - 1} opponent bids, got {b_minus_i.shape}"
        )
    b_base = np.insert(b_minus_i, i, 0.0)
    interval = cfg.interval or _auto_interval(scenario, i, b_base, include)
    lo, hi = float(interval[0]), float(interval[1])
    if not hi > lo:
        raise ScanIntervalEmpty(f"scan interval [{lo}, {hi}] is empty")

    path = _clearing_path(scenario, i, b_base)

    def evaluate(t):
        lam_i = path(t)
        return cost_at(scenario, lam_i, t - scenario.a * lam_i, regulated, i)

    t = np.linspace(lo, hi, cfg.coarse_points)
    cost = evaluate(t)
    spacing = (hi - lo) / (cfg.coarse_points - 1)

    minima = []
    for j in _local_minima_indices(cost):
        t_best, c_best = float(t[j]), float(cost[j])
        h = spacing
        for _ in range(cfg.refine_rounds):
            wt = np.linspace(max(t_best - h, lo), min(t_best + h, hi),
                             2 * _REFINE_FACTOR + 1)
            wc = evaluate(wt)
            j_best = int(np.argmin(wc))
            t_best, c_best = float(wt[j_best]), float(wc[j_best])
            h /= _REFINE_FACTOR
        minima.append((t_best, c_best))

    # merge refinements that collapsed onto the same point
    minima.sort()
    merged = []
    for t_min, c_min in minima:
        if merged and abs(t_min - merged[-1][0]) <= _DISTINCT_TOL:
            if c_min < merged[-1][1]:
                merged[-1] = (t_min, c_min)
        else:
            merged.append((t_min, c_min))
    if not merged:  # every sample is NaN, as when the costs overflow
        raise NonFiniteResult(
            f"the cost of prosumer {i + 1} is infinite or NaN at every scanned "
            "bid; no best response")
    best_bid, best_cost = min(merged, key=lambda mc: (mc[1], mc[0]))
    return BestResponseScan(
        prosumer=i, fixed_bids=b_minus_i, interval=(lo, hi), samples_b=t,
        samples_cost=cost, local_minima=tuple(merged), best_bid=best_bid,
        best_cost=best_cost, regulated=regulated,
    )


def verify_gne(scenario: Scenario, b, tol: float = 1e-6,
               regulated: bool = False,
               scan_config: ScanConfig | None = None) -> GneCheck:
    """Check an equilibrium candidate by per-prosumer deviation gaps.

    ``gaps[i]`` is the cost saved by prosumer ``i``'s best unilateral
    deviation (clipped at 0 up to scan noise); the candidate passes when
    every gap is at most ``tol``.
    """
    b = np.asarray(b, dtype=float)
    incumbent = clear_market(scenario, b)
    incumbent_costs = cost_at(scenario, incumbent.prices, incumbent.quantities,
                              regulated)
    n = scenario.size
    gaps = np.empty(n)
    best_bids = np.empty(n)
    for i in range(n):
        scan = best_response(scenario, i, np.delete(b, i),
                             scan_config=scan_config, regulated=regulated,
                             include=(float(b[i]),))
        gaps[i] = incumbent_costs[i] - scan.best_cost
        best_bids[i] = scan.best_bid
    return GneCheck(is_gne=bool(np.all(gaps <= tol)), gaps=gaps,
                    incumbent_costs=incumbent_costs, best_bids=best_bids,
                    tol=tol)


def classify_gne_2bus(c: float, D1: float, D2: float, F: float) -> GneClassification2Bus:
    """Equilibrium regimes of the two-bus game with equal quadratic costs.

    Setting: unit sensitivity, no linear cost term, both prosumers with
    coefficient ``c``, one line of limit ``F``.  The demand gap decides
    between a unique equilibrium and a one-parameter family pinned at a flow
    limit.
    """
    threshold = (2.0 * c + 1.0) * F / c
    gap = D1 - D2
    if gap >= threshold:
        lo, hi = 2.0 * c * D2 + 2.0 * c * F, 2.0 * c * D1 - 2.0 * (c + 1.0) * F
        return GneClassification2Bus(
            regime="multiple-upper", c=c, demands=(D1, D2), limit=F,
            p_bar=np.array([D1 - F, D2 + F]), b2_interval=(lo, hi),
        )
    if gap <= -threshold:
        lo, hi = 2.0 * c * D1 + 2.0 * (c + 1.0) * F, 2.0 * c * D2 - 2.0 * c * F
        return GneClassification2Bus(
            regime="multiple-lower", c=c, demands=(D1, D2), limit=F,
            p_bar=np.array([D1 + F, D2 - F]), b2_interval=(lo, hi),
        )
    s = c * (D1 + D2)
    delta = c / (2.0 * c + 1.0) * gap
    b_bar = np.array([s + delta, s - delta])
    lam_bar = np.array([s, s])
    p_bar = np.array([D1, D2]) + lam_bar - b_bar
    return GneClassification2Bus(regime="unique", c=c, demands=(D1, D2),
                                 limit=F, p_bar=p_bar, b_bar=b_bar,
                                 lam_bar=lam_bar)


def br_iteration(scenario: Scenario, b0, iters: int = 20,
                 regulated: bool = False,
                 scan_config: ScanConfig | None = None) -> BrTrajectory:
    """Sequential best-response sweeps from ``b0``.

    Terminates on a verified fixed point, on a revisited state (cycling), or
    at the sweep cap; hitting the cap with no fixed point is evidence (not
    proof) that the game has no equilibrium in the visited region.
    """
    b = np.asarray(b0, dtype=float).copy()
    n = scenario.size
    states = [b.copy()]
    termination = "max_iter"
    verification = None
    for _ in range(iters):
        for i in range(n):
            scan = best_response(scenario, i, np.delete(b, i),
                                 scan_config=scan_config, regulated=regulated,
                                 include=(float(b[i]),))
            b[i] = scan.best_bid
        states.append(b.copy())
        delta = float(np.abs(states[-1] - states[-2]).max())
        if delta <= _FIXED_POINT_TOL:
            verification = verify_gne(scenario, b, tol=_VERIFY_TOL,
                                      regulated=regulated,
                                      scan_config=scan_config)
            if verification.is_gne:
                termination = "fixed_point"
                break
        revisited = any(
            float(np.abs(b - s).max()) <= _CYCLE_TOL for s in states[:-2]
        )
        if revisited:
            termination = "cycling"
            break
    return BrTrajectory(states=tuple(states), termination=termination,
                        fixed_point=termination == "fixed_point",
                        verification=verification)


def example2_region(scenario: Scenario, b) -> Example2Region:
    """Region membership and closed-form prices for the three-bus chain case.

    Requires: three buses, unit sensitivity, radial network whose single
    finite-limit line hangs off bus 1 (bus 1 a leaf).  Regions are named by
    where the swing bid sits relative to the congestion window: ``M`` (no
    congestion, uniform price), ``L``/``U`` (leaf line at its lower/upper
    purchase limit).
    """
    b = np.asarray(b, dtype=float)
    net = scenario.network
    if scenario.size != 3 or b.shape != (3,):
        raise WrongTopology("closed form requires exactly three buses")
    if abs(scenario.a - 1.0) > 1e-12:
        raise WrongTopology("closed form requires unit market sensitivity")
    if not is_radial(net):
        raise WrongTopology("closed form requires a radial network")
    finite = [l for l in range(net.line_count) if np.isfinite(net.limits[l])]
    if len(finite) != 1:
        raise WrongTopology("closed form requires exactly one limited line")
    ln = net.lines[finite[0]]
    if 1 not in (ln.from_bus, ln.to_bus):
        raise WrongTopology("the limited line must be incident to bus 1")
    degree = sum(1 in (l.from_bus, l.to_bus) for l in net.lines)
    if degree != 1:
        raise WrongTopology("bus 1 must be a leaf")
    F = float(net.limits[finite[0]])

    rest = b[1] + b[2]
    if b[0] <= (rest - 3.0 * F) / 2.0:
        lam1 = b[0] + F
        lam_rest = (rest - F) / 2.0
        region = "L"
    elif b[0] >= (rest + 3.0 * F) / 2.0:
        lam1 = b[0] - F
        lam_rest = (rest + F) / 2.0
        region = "U"
    else:
        lam1 = lam_rest = b.sum() / 3.0
        region = "M"
    return Example2Region(region=region,
                          prices=np.array([lam1, lam_rest, lam_rest]))


def write_scan_csv(scan: BestResponseScan, path) -> None:
    """Write the coarse scan curve as two columns: bid, cost."""
    rows = zip(scan.samples_b.tolist(), scan.samples_cost.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("".join(["b,cost\r\n", *(f"{b!r},{c!r}\r\n" for b, c in rows)]))

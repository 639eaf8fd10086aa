"""Best-response laboratory for the sharing game, raw or regulated.

Fixing all bids but one, a prosumer's cost as a function of its own bid is
piecewise quadratic: each set of lines held at a limit by the clearing rule
contributes one affine price piece.  The lab walks that curve piece by
piece, finds every local minimum in closed form (so disqualified
equilibrium candidates are visible, not just the best response), verifies
equilibrium candidates by per-prosumer deviation gaps, and classifies the
two-bus closed-form regimes.

A scan walks the piecewise-affine clearing path from the left end of its
interval to the right.  It clears the market once, at its first point.
Each piece after that costs one held solve, which gives its rates; the
piece ends where a line's condition fails, in closed form, and the
clearing is carried there.  The cost is minimized exactly on each piece;
a grid of samples is kept only to report the curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteResult, ScanIntervalEmpty
from .market import Scenario, clear_market, clearing_slopes, cost_at

_FIXED_POINT_TOL = 1e-5  # sweep step below which br_iteration verifies
_CYCLE_TOL = 1e-5  # distance at which a sweep revisits an earlier state
_VERIFY_TOL = 1e-6  # deviation gap a verified fixed point may leave


@dataclass(frozen=True)
class ScanConfig:
    """Scan controls for :func:`best_response`.

    ``interval``, two finite bids, bounds the scan; None auto-sizes it
    around the marginal-cost-consistent bid range (see
    ``_auto_interval``).  ``coarse_points`` evenly spaced samples, at
    least 1, report the cost curve (``--csv``), and their spacing is the
    walk's step past a piece of one point.  ``refine_rounds`` is unused:
    the minima are exact, so no sample window is refined.
    """

    interval: tuple | None = None
    coarse_points: int = 2001
    refine_rounds: int = 3

    def __post_init__(self):
        if self.coarse_points < 1:
            raise ValueError(f"coarse_points must be >= 1, got {self.coarse_points}")
        if self.interval is not None and not (
                len(self.interval) == 2 and all(map(math.isfinite, self.interval))):
            raise ValueError(f"interval must be two finite bids, got {self.interval}")


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


@dataclass(frozen=True, eq=False)
class BrTrajectory:
    """Sequential best-response sweep record."""

    states: tuple
    termination: str  # fixed_point | cycling | max_iter
    fixed_point: bool
    verification: GneCheck | None


# ---------------------------------------------------------------------------
# the clearing solution along a one-dimensional bid sweep


def _clearing_path(scenario: Scenario, i: int, b_base: np.ndarray,
                   grid: np.ndarray, hi: float) -> tuple:
    """Prosumer ``i``'s clearing price as a function of its own bid ``t``,
    walked from ``grid[0]`` to ``hi``.

    ``b_base`` is the full bid vector with slot ``i`` zeroed, and ``grid``
    the scan's samples, which start at ``grid[0]`` and end at or before
    ``hi``.  Returns the piece table ``(starts, prices, slopes)``: piece
    ``k`` holds from ``starts[k]`` to the next start (the last one to
    ``hi``), with ``lam_i(t) = prices[k] + slopes[k] (t - starts[k])``.

    The clearing program is a strictly convex QP whose right-hand side is
    affine in ``t``, so its solution is piecewise affine in ``t``, one piece
    per set of lines held at a limit (Bemporad, Morari, Dua & Pistikopoulos,
    Automatica 38(1), 2002), and this walk is the homotopy of parametric
    active-set QP (Ferreau, Bock & Diehl, Int. J. Robust Nonlinear Control
    18(8), 2008).  It clears the market once, at ``grid[0]``; each piece
    then costs one held solve (:func:`_piece`), and the clearing is carried
    along it to the next start.  A carried start that makes a piece of one
    point is cleared afresh at the same bid, guessing its held lines.  A
    fresh one steps to the next grid point (past the last one, to ``hi``),
    cleared there with the same guess, and that piece is the chord to the
    next start (at the scan's end, it keeps its own slope, or a flat one
    where the held solve refused).
    """
    net = scenario.network
    scale = 1.0 + np.abs(b_base).sum() + net.limits[net.bounded].max(initial=0.0)
    starts, prices, slopes, stepped = [], [], [], []
    t, guess, state = float(grid[0]), None, None
    while True:
        fresh = state is None
        if fresh:
            b = b_base.copy()
            b[i] = t
            out = clear_market(scenario, b, active=guess)
            state = (float(out.prices[i]), out.flows, out.sides,
                     np.where(out.sides > 0, out.alpha_upper, out.alpha_lower))
        slope, end, carried = _piece(scenario, i, t, state, scale, hi)
        one_point = not end > t  # or NaN
        if one_point:
            guess = state[2]
            if not fresh:
                state = None
                continue
            k = np.searchsorted(grid, t, side="right")
            end = float(grid[k]) if k < grid.size else hi
        starts.append(t)
        prices.append(state[0])
        slopes.append(slope)
        stepped.append(one_point)
        if not end < hi:
            break
        t, state = end, carried
    if math.isnan(slopes[-1]):  # a refused held solve at the scan's end
        slopes[-1] = 0.0
    starts, prices, slopes = np.array(starts), np.array(prices), np.array(slopes)
    chord = np.append(np.diff(prices) / np.diff(starts), slopes[-1])
    return starts, prices, np.where(stepped, chord, slopes)


def _piece(scenario: Scenario, i: int, t: float, state: tuple, scale: float,
           hi: float) -> tuple:
    """The piece of prosumer ``i``'s clearing path that starts at bid ``t``
    in ``state``: ``(price, flows, side, dual)``, prosumer ``i``'s price,
    the line flows, the side vector of the held lines and each held line's
    dual at its own side (0 on the free lines).

    Its rates come from :func:`esharing.market.clearing_slopes`, and it
    holds until a free line reaches the limit its flow moves toward or a
    held line with a positive limit loses its dual's sign.  At a
    breakpoint either side's held set is optimal, so a start may hold the
    left one; its piece then has zero length, and the lines that end it
    are toggled once more in the same state.

    Returns ``(slope, end, carried)``: the price's rate, the bid where the
    piece ends, and the state carried there along the rates, with the
    lines that end the piece toggled (a newly held line with dual 0, a
    released one free); None past ``hi``, as the last piece may be
    unbounded.  A piece of one point ends at ``t``: the held solve refuses
    the set (slope NaN), the state violates a condition beyond rounding,
    or the piece has zero length twice.
    """
    net = scenario.network
    F, lines = net.limits, np.flatnonzero(net.bounded)
    price, flows, side, dual = state
    for _ in range(2):
        slope, end = np.nan, t
        rates = clearing_slopes(scenario, i, side)
        if rates is None:
            break
        slope, dflow, ddual = rates
        # each line with a positive limit has one condition, value + rate
        # (t' - t) >= 0: a free line stays within the limit its flow moves
        # toward, a held line keeps its dual signed; past the condition's
        # root, the line turns to ``turn``
        held = side != 0.0
        toward = np.sign(dflow)
        now = np.where(held, dual, F - np.abs(flows))[lines]
        if (now < -1e-9 * (scale + abs(t))).any():
            break
        value = np.where(held, dual, F - toward * flows)[lines]
        rate = np.where(held, ddual, -np.abs(dflow))[lines]
        turn = np.where(held, 0.0, toward)[lines]
        falls = rate < 0.0
        ahead = np.maximum(value[falls], 0.0) / -rate[falls]
        first = ahead.min(initial=np.inf)
        end = t + float(first)
        hit = ahead == first
        turned = side.copy()
        turned[lines[falls][hit]] = turn[falls][hit]
        if end > t:
            if not end < hi:
                return slope, end, None
            length = end - t
            return slope, end, (
                price + slope * length, flows + dflow * length, turned,
                np.where(turned == side, dual + ddual * length, 0.0))
        side, dual = turned, np.where(turned == side, dual, 0.0)
    return slope, end, None


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


def _minimum_points(scenario: Scenario, i: int, regulated: bool,
                    edges: np.ndarray, prices: np.ndarray,
                    slopes: np.ndarray) -> list | None:
    """Bids of the local minima of prosumer ``i``'s cost over the pieces
    between consecutive ``edges``, in closed form.

    On a piece, ``lam_i`` and the purchase ``q_i = t - a lam_i`` are affine
    in ``t``, so the raw cost is one quadratic.  The regulated payment is
    the larger of ``lam_i q_i`` and ``m_i q_i``, with ``m_i`` affine too, so
    the piece splits at the roots of ``q_i`` and of ``lam_i - m_i`` into
    quadratics.  Each quadratic splits at an inner vertex into monotone
    runs, each of them falling, rising or flat (changing by no more than
    rounding).  A minimum is where a fall meets a rise, or the middle of a
    flat run between the two; the scan's ends count as a fall before its
    start and a rise after its end.  None when the cost is infinite or NaN
    on some stretch, which hides where the lowest point is.
    """
    a, n = scenario.a, scenario.size
    c, d, D = float(scenario.c[i]), float(scenario.d[i]), float(scenario.D[i])
    w = 1.0 / (a * (n - 1))  # the price privilege per unit purchase
    runs = []  # (start, end, direction): -1 fall, 0 flat, 1 rise
    edges = edges.tolist()
    for x0, x1, lam0, s in zip(edges[:-1], edges[1:], prices.tolist(),
                               slopes.tolist()):
        # affine (value at x0, slope) of purchase, production and m_i
        q0, dq = x0 - a * lam0, 1.0 - a * s
        p0, dp = D - q0, -dq
        m0, dm = 2.0 * c * p0 + d - w * q0, 2.0 * c * dp - w * dq
        cuts = [0.0, x1 - x0]
        if regulated:
            for v, r in ((q0, dq), (lam0 - m0, s - dm)):
                if r != 0.0 and 0.0 < -v / r < x1 - x0:
                    cuts.append(-v / r)
        cuts.sort()
        for u0, u1 in zip(cuts[:-1], cuts[1:]):
            # the larger payment on this stretch, as (value at x0, slope)
            pay0, dpay = lam0, s
            mid = 0.5 * (u0 + u1)
            if regulated and (lam0 - m0 + (s - dm) * mid) * (q0 + dq * mid) < 0.0:
                pay0, dpay = m0, dm
            # cost = A + B u + C u^2 with u = t - x0
            A = c * p0 * p0 + d * p0 + pay0 * q0
            B = (2.0 * c * p0 + d) * dp + pay0 * dq + dpay * q0
            C = c * dp * dp + dpay * dq
            vertex = -B / (2.0 * C) if C != 0.0 else u0
            for r0, r1 in ((u0, vertex), (vertex, u1)) if u0 < vertex < u1 \
                    else ((u0, u1),):
                f0, f1 = A + (B + C * r0) * r0, A + (B + C * r1) * r1
                rise = (r1 - r0) * (B + C * (r0 + r1))
                if not math.isfinite(f0 + f1 + rise):
                    return None
                tie = 1e-12 * (1.0 + abs(f0) + abs(f1))
                direction = 1 if rise > tie else -1 if rise < -tie else 0
                if runs and runs[-1][2] == direction:
                    runs[-1] = (runs[-1][0], x0 + r1, direction)
                else:
                    runs.append((x0 + r0, x0 + r1, direction))
    runs = [(edges[0], edges[0], -1), *runs, (edges[-1], edges[-1], 1)]
    points = []
    for k in range(1, len(runs)):
        start, stop, here = runs[k]
        if runs[k - 1][2] == -1 and here == 1:
            points.append(start)
        elif runs[k - 1][2] == -1 and here == 0 and runs[k + 1][2] == 1:
            points.append(0.5 * (start + stop))
    return points


def best_response(scenario: Scenario, i: int, b_minus_i,
                  scan_config: ScanConfig | None = None,
                  regulated: bool = False, include=()) -> BestResponseScan:
    """Scan prosumer ``i``'s cost over its own bid, opponents fixed.

    ``b_minus_i`` lists the other prosumers' bids in bus order (length I-1).
    Every local minimum over the scan interval is reported, in closed form
    on the walked pieces (a flat stretch at its middle); the lowest one is
    the best response.  A cost that is infinite or NaN anywhere on the
    interval raises :class:`NonFiniteResult`.
    """
    cfg = scan_config or ScanConfig()
    b_minus_i = np.asarray(b_minus_i, dtype=float)
    if b_minus_i.shape != (scenario.size - 1,):
        raise DimensionMismatch(
            f"expected {scenario.size - 1} opponent bids, got {b_minus_i.shape}"
        )
    b_base = np.insert(b_minus_i, i, 0.0)
    interval = cfg.interval or _auto_interval(scenario, i, b_base, include)
    lo, hi = float(interval[0]), float(interval[1])
    if not hi > lo:
        raise ScanIntervalEmpty(f"scan interval [{lo}, {hi}] is empty")

    t = np.linspace(lo, hi, cfg.coarse_points)
    starts, prices, slopes = _clearing_path(scenario, i, b_base, t, hi)

    def evaluate(x):
        k = np.searchsorted(starts, x, side="right") - 1
        lam_i = prices[k] + slopes[k] * (x - starts[k])
        return cost_at(scenario, lam_i, x - scenario.a * lam_i, regulated, i)

    cost = evaluate(t)
    points = _minimum_points(scenario, i, regulated, np.append(starts, hi),
                             prices, slopes)
    if points is None or not np.isfinite(cost).all():
        raise NonFiniteResult(
            f"the cost of prosumer {i + 1} is infinite or NaN on the scanned "
            "interval; no best response")
    minima = list(zip(points, evaluate(np.array(points)).tolist()))
    best_bid, best_cost = min(minima, key=lambda mc: (mc[1], mc[0]))
    return BestResponseScan(
        prosumer=i, fixed_bids=b_minus_i, interval=(lo, hi), samples_b=t,
        samples_cost=cost, local_minima=tuple(minima), best_bid=best_bid,
        best_cost=best_cost, regulated=regulated,
    )


def verify_gne(scenario: Scenario, b, tol: float = 1e-6,
               regulated: bool = False,
               scan_config: ScanConfig | None = None) -> GneCheck:
    """Check an equilibrium candidate by per-prosumer deviation gaps.

    ``gaps[i]`` is the cost saved by prosumer ``i``'s best unilateral
    deviation.  The incumbent bid lies in every scan, so a gap is negative
    only by rounding; the candidate passes when every gap is at most
    ``tol``.
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


def write_scan_csv(scan: BestResponseScan, path) -> None:
    """Write the coarse scan curve as two columns: bid, cost."""
    rows = zip(scan.samples_b.tolist(), scan.samples_cost.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("".join(["b,cost\r\n", *(f"{b!r},{c!r}\r\n" for b, c in rows)]))

"""Best-response laboratory for the sharing game, raw or regulated.

Fixing all bids but one, a prosumer's cost as a function of its own bid is
piecewise quadratic: each set of lines held at a limit by the clearing rule
contributes one affine price piece.  The lab walks that curve piece by
piece, finds every local minimum in closed form (so disqualified
equilibrium candidates are visible, not just the best response), verifies
equilibrium candidates by per-prosumer deviation gaps, and classifies the
two-bus closed-form regimes.

A scan walks the piecewise-affine clearing path over the whole bid line.
It clears the market once, at its start bid (the incumbent bid, when there
is one), and walks right and then left from there.  Each piece costs one
held solve, which gives its rates, and the start's rates serve both
directions; a piece ends where a line's condition fails, in closed form,
and the clearing is carried there.  The first and the last piece are
unbounded and affine, so the cost is minimized exactly on every piece, the
two ends included, with no window and no grid.  Samples of the curve are computed only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import (
    DimensionMismatch,
    IterationLimit,
    NonFiniteResult,
    UnboundedCost,
)
from .market import Scenario, clear_market, clearing_slopes, cost_at

_FIXED_POINT_TOL = 1e-5  # sweep step below which br_iteration verifies
_CYCLE_TOL = 1e-5  # distance at which a sweep revisits an earlier state
_VERIFY_TOL = 1e-6  # deviation gap a verified fixed point may leave
_STEP = 1e-6  # first step past a piece of one point, per unit of bid scale
_MAX_STEPS = 64  # doubling steps in a row before a walk gives up
_RATE_TOL = 1e-9  # a dimensionless rate at or below it is rounding


@dataclass(frozen=True)
class ScanConfig:
    """Scan controls for :func:`best_response`.

    ``coarse_points`` evenly spaced samples of the scan's ``interval``, at
    least 1, report the cost curve (``--csv``); they are computed only when
    read.  ``refine_rounds`` is unused, as the minima are exact; it stays
    because ``bench/`` passes it.
    """

    coarse_points: int = 2001
    refine_rounds: int = 3

    def __post_init__(self):
        if self.coarse_points < 1:
            raise ValueError(f"coarse_points must be >= 1, got {self.coarse_points}")


@dataclass(frozen=True, eq=False)
class BestResponseScan:
    """Scan result for one prosumer against fixed opponent bids.

    ``interval`` is finite and holds the start bid, every breakpoint of the
    walked path and every local minimum, with a margin of half their span
    on each side (of 1 plus a tenth of its magnitude when the span is one
    point).  ``samples_b``, ``coarse_points`` evenly spaced bids over it, and
    ``samples_cost`` report the cost curve; both are computed when first
    read, by ``curve``, the cost at an array of bids.
    """

    prosumer: int
    fixed_bids: np.ndarray
    interval: tuple
    local_minima: tuple
    best_bid: float
    best_cost: float
    regulated: bool
    coarse_points: int = field(repr=False)
    curve: object = field(repr=False)

    @cached_property
    def samples_b(self) -> np.ndarray:
        return np.linspace(*self.interval, self.coarse_points)

    @cached_property
    def samples_cost(self) -> np.ndarray:
        return self.curve(self.samples_b)


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
                   start: float, active=None) -> tuple:
    """Prosumer ``i``'s clearing price as a function of its own bid ``t``
    over the whole bid line, walked from ``start``.

    ``b_base`` is the full bid vector with slot ``i`` zeroed.  Returns the
    piece table ``(edges, anchors, prices, slopes)``: piece ``k`` holds
    from ``edges[k]`` to ``edges[k + 1]`` (the first from -inf, the last
    to +inf), with ``lam_i(t) = prices[k] + slopes[k] (t - anchors[k])``;
    its anchor is the end it was walked from.

    The clearing program is a strictly convex QP whose right-hand side is
    affine in ``t``, so its solution is piecewise affine in ``t``, one piece
    per set of lines held at a limit, the first and the last of them
    unbounded (Bemporad, Morari, Dua & Pistikopoulos, Automatica 38(1),
    2002), and this walk is the homotopy of parametric active-set QP
    (Ferreau, Bock & Diehl, Int. J. Robust Nonlinear Control 18(8), 2008).
    It clears the market once, at ``start``, trying the side vector
    ``active`` as its guess, and walks right and then left from there
    (:meth:`_Walk.run`), the start's rates serving both; the two pieces
    that meet at ``start`` are one when their slopes agree.
    """
    walk = _Walk(scenario, i, b_base)
    state = walk.cleared(start, active)
    rates = clearing_slopes(scenario, i, state[4])
    right = walk.run(start, state, rates, 1.0)
    left = walk.run(start, state, rates, -1.0)[::-1]
    edges = [p[3] for p in left] + [start] + [p[3] for p in right]
    if left[-1][2] == right[0][2]:  # one piece across start
        del edges[len(left)], right[0]
    anchors, prices, slopes, _ = map(np.array, zip(*left, *right))
    return np.array(edges), anchors, prices, slopes


class _Walk:
    """The walk along prosumer ``i``'s clearing path with the other bids of
    ``b_base`` fixed: the bounded lines, their limits and the bid scale
    of the walk's tolerances."""

    def __init__(self, scenario: Scenario, i: int, b_base: np.ndarray):
        net = scenario.network
        self.scenario, self.i, self.b_base = scenario, i, b_base
        self.lines = np.flatnonzero(net.bounded)
        self.limits = net.limits[self.lines]
        self.scale = float(1.0 + np.abs(b_base).sum()
                           + self.limits.max(initial=0.0))
        # the rates a condition must fall at to end a piece: a flow's rate
        # is dimensionless, a dual's is once multiplied by a^2
        self.falls = (-_RATE_TOL / scenario.a ** 2, -_RATE_TOL)

    def cleared(self, t: float, guess) -> tuple:
        """The state at bid ``t`` from a fresh clearing that tries ``guess``
        as its held lines: ``(price, flows, dual, side, sides)``, prosumer
        ``i``'s price, each bounded line's flow, dual at its own side (0 on
        a free line) and side, and the side vector of every line."""
        b = self.b_base.copy()
        b[self.i] = t
        out = clear_market(self.scenario, b, active=guess)
        sides, lines = out.sides, self.lines
        dual = np.where(sides > 0.0, out.alpha_upper, out.alpha_lower)
        return (float(out.prices[self.i]), out.flows[lines], dual[lines],
                sides[lines], sides)

    def piece(self, t: float, state: tuple, rates, direction: float) -> tuple:
        """The piece that starts at bid ``t`` in ``state`` and runs in
        ``direction``, +1 to the right and -1 to the left.

        ``rates`` are the held set's (:func:`esharing.market.clearing_slopes`),
        or None to solve for them.  The piece holds until a free line
        reaches the limit its flow moves toward or a held line with a
        positive limit loses its dual's sign.  At a breakpoint either
        side's held set is optimal, so a start may hold the set behind it;
        its piece then has zero length, and the lines that end it are
        toggled once more in the same state.

        Returns ``(slope, end, carried)``: the price's rate, the bid where
        the piece ends, and the state carried there along the rates, with
        the lines that end the piece toggled (a newly held line with dual
        0, a released one free); None when the piece is unbounded, its end
        infinite.
        A piece of one point ends at ``t``: the held solve refuses the set
        (slope NaN), the state violates a condition beyond rounding, or the
        piece has zero length twice.
        """
        price, flows, dual, side, sides = state
        limits, slope = self.limits, math.nan
        for _ in range(2):
            if rates is None:
                rates = clearing_slopes(self.scenario, self.i, sides)
                if rates is None:
                    break
            slope, dflow, ddual = rates
            # every dual (0 on a free line) and every line's room to its
            # limit must be signed, to rounding
            now = np.minimum(dual, limits - np.abs(flows))
            if np.minimum.reduce(now, initial=0.0) < -1e-9 * (self.scale + abs(t)):
                break
            # each bounded line has one condition, value + rate u >= 0 at
            # the bid t + direction u: a free line stays within the limit
            # its flow moves toward, a held line keeps its dual signed;
            # past the condition's root, a free line is held at that limit
            # and a held line is released
            held = side != 0.0
            toward = np.sign(dflow) if direction > 0.0 else -np.sign(dflow)
            value = np.where(held, dual, limits - toward * flows)
            rate = np.where(held, ddual if direction > 0.0 else -ddual,
                            -np.abs(dflow))
            falls = np.flatnonzero(rate < np.where(held, *self.falls))
            ahead = np.maximum(value[falls], 0.0) / -rate[falls]
            first = float(np.minimum.reduce(ahead, initial=np.inf))
            end = t + direction * first
            if math.isinf(end):
                return slope, end, None
            moved = direction * (end - t) > 0.0
            hit = falls[ahead == first]
            turn = np.where(held[hit], 0.0, toward[hit])
            side, sides = side.copy(), sides.copy()
            side[hit] = turn
            sides[self.lines[hit]] = turn
            if moved:
                length = end - t
                dual = dual + ddual * length
                dual[hit] = 0.0
                return slope, end, (price + slope * length,
                                    flows + dflow * length, dual, side, sides)
            dual = dual.copy()
            dual[hit] = 0.0
            rates = None
        return slope, t, None

    def run(self, t: float, state: tuple, rates, direction: float) -> list:
        """The pieces from bid ``t`` in ``state``, whose held set has
        ``rates`` (None to solve for them), to the end of the bid line in
        ``direction``, in walk order, each as ``(anchor, price, slope,
        end)``: the bid it starts from, the price there, the price's rate
        and the bid where it ends.

        A carried start that makes a piece of one point
        (:meth:`piece`) is cleared afresh at the same bid, guessing its
        held lines.  A fresh one steps past it, by ``_STEP`` times the bid
        scale plus ``|t|``, doubled for each fresh piece of one point in a
        row, to a bid cleared afresh with the same guess; its piece is the
        chord to there, exact when no breakpoint lies between.  After
        ``_MAX_STEPS`` such steps in a row the walk raises
        :class:`IterationLimit`.
        """
        pieces, fresh, steps = [], True, 0
        while True:
            slope, end, carried = self.piece(t, state, rates, direction)
            rates = None
            if direction * (end - t) > 0.0:
                pieces.append((t, state[0], slope, end))
                if carried is None:
                    return pieces
                t, state, fresh, steps = end, carried, False, 0
            elif not fresh:
                state, fresh = self.cleared(t, state[4]), True
            elif steps == _MAX_STEPS:
                raise IterationLimit(
                    f"the held-set solve refused prosumer {self.i + 1}'s "
                    f"clearing path at every step past bid {t!r}")
            else:
                step = _STEP * (self.scale + abs(t)) * 2.0 ** steps
                end = t + direction * step
                steps += 1
                ahead = self.cleared(end, state[4])
                pieces.append((t, state[0], (ahead[0] - state[0]) / (end - t), end))
                if math.isinf(end):
                    return pieces
                t, state = end, ahead


def _minimum_points(scenario: Scenario, i: int, regulated: bool, path: tuple,
                    start: float) -> list | None:
    """Bids of the local minima of prosumer ``i``'s cost along the piece
    table ``path`` of :func:`_clearing_path`, in closed form.

    On a piece, ``lam_i`` and the purchase ``q_i = t - a lam_i`` are affine
    in ``t``, so the raw cost is one quadratic.  The regulated payment is
    the larger of ``lam_i q_i`` and ``m_i q_i``, with ``m_i`` affine too, so
    the piece splits at the roots of ``q_i`` and of ``lam_i - m_i`` into
    quadratics.  Each quadratic splits at an inner vertex into monotone
    runs, each of them falling, rising or flat (changing by no more than
    rounding); an unbounded run moves as its quadratic's leading term.  A
    minimum is where a fall meets a rise, or a flat run between the two: at
    its middle, at its finite end when it is unbounded, or at ``start``
    when it is the whole bid line.  The two infinite ends count as a fall
    before the first run and a rise after the last.

    The purchase rate ``1 - a slope`` lies in [0, 1], so on an unbounded
    piece a rate within ``_RATE_TOL`` of 0 is rounding: the purchase is
    fixed there, and the cost is flat when the purchase is within rounding
    of 0.  Returns None when the cost is infinite or NaN on some stretch,
    which hides where the lowest point is, and raises
    :class:`UnboundedCost` when it falls toward an end of the bid line.
    """
    a, n = scenario.a, scenario.size
    c, d, D = float(scenario.c[i]), float(scenario.d[i]), float(scenario.D[i])
    w = 1.0 / (a * (n - 1))  # the price privilege per unit purchase
    runs = []  # (start, end, direction): -1 fall, 0 flat, 1 rise
    edges, anchors, prices, slopes = (v.tolist() for v in path)
    for x_lo, x_hi, x0, lam0, s in zip(edges[:-1], edges[1:], anchors, prices,
                                       slopes):
        # affine (value at x0, slope) of purchase, production and m_i
        q0, dq = x0 - a * lam0, 1.0 - a * s
        if math.isinf(x_hi - x_lo) and abs(dq) <= _RATE_TOL:
            dq = 0.0
            if abs(q0) <= 1e-12 * (abs(x0) + abs(a * lam0)):
                q0 = 0.0
        p0, dp = D - q0, -dq
        m0, dm = 2.0 * c * p0 + d - w * q0, 2.0 * c * dp - w * dq
        cuts = [x_lo - x0, x_hi - x0]
        if regulated:
            for v, r in ((q0, dq), (lam0 - m0, s - dm)):
                if r != 0.0 and cuts[0] < -v / r < cuts[1]:
                    cuts.append(-v / r)
        cuts.sort()
        for u0, u1 in zip(cuts[:-1], cuts[1:]):
            # the larger payment on this stretch, as (value at x0, slope)
            pay0, dpay = lam0, s
            mid = _inner(u0, u1)
            if regulated and (lam0 - m0 + (s - dm) * mid) * (q0 + dq * mid) < 0.0:
                pay0, dpay = m0, dm
            # cost = A + B u + C u^2 with u = t - x0
            A = c * p0 * p0 + d * p0 + pay0 * q0
            B = (2.0 * c * p0 + d) * dp + pay0 * dq + dpay * q0
            C = c * dp * dp + dpay * dq
            vertex = -B / (2.0 * C) if C != 0.0 else u0
            for r0, r1 in ((u0, vertex), (vertex, u1)) if u0 < vertex < u1 \
                    else ((u0, u1),):
                direction = _direction(A, B, C, r0, r1)
                if direction is None:
                    return None
                if runs and runs[-1][2] == direction:
                    runs[-1] = (runs[-1][0], x0 + r1, direction)
                else:
                    runs.append((x0 + r0, x0 + r1, direction))
    for end, falls, toward in ((runs[0][0], runs[0][2] == 1, "-"),
                               (runs[-1][1], runs[-1][2] == -1, "+")):
        if math.isinf(end) and falls:
            raise UnboundedCost(
                f"the cost of prosumer {i + 1} falls without bound as its "
                f"bid goes to {toward}infinity; no best response")
    runs = [(edges[0], edges[0], -1), *runs, (edges[-1], edges[-1], 1)]
    points = []
    for k in range(1, len(runs)):
        begin, stop, here = runs[k]
        if runs[k - 1][2] == -1 and here == 1:
            points.append(begin)
        elif runs[k - 1][2] == -1 and here == 0 and runs[k + 1][2] == 1:
            points.append(_middle(begin, stop, start))
    return points


def _inner(u0: float, u1: float) -> float:
    """A point strictly inside ``(u0, u1)``, either end possibly infinite:
    the middle of a bounded stretch."""
    if math.isinf(u0):
        return 0.0 if math.isinf(u1) else u1 - 1.0 - abs(u1)
    return u0 + 1.0 + abs(u0) if math.isinf(u1) else 0.5 * (u0 + u1)


def _middle(begin: float, stop: float, start: float) -> float:
    """Where a flat run from ``begin`` to ``stop`` has its minimum: its
    middle, its finite end when it is unbounded, or ``start`` when it is
    the whole bid line."""
    if math.isinf(begin):
        return start if math.isinf(stop) else stop
    return begin if math.isinf(stop) else 0.5 * (begin + stop)


def _direction(A: float, B: float, C: float, r0: float, r1: float) -> int | None:
    """-1, 0 or 1 as ``A + B u + C u^2`` falls, stays flat (by no more than
    rounding) or rises from ``u = r0`` to ``r1``, with no vertex between
    them; None when it is infinite or NaN there.  Toward an infinite end it
    moves as its leading term."""
    if math.isinf(r0) or math.isinf(r1):
        at = r0 if math.isfinite(r0) else r1 if math.isfinite(r1) else 0.0
        if not math.isfinite(A + (B + C * at) * at + B + C):
            return None
        if C == 0.0:
            return (B > 0.0) - (B < 0.0)
        if math.isinf(r0) and math.isinf(r1):  # a vertex past the float range
            return None
        return (1 if C > 0.0 else -1) * (1 if math.isinf(r1) else -1)
    f0, f1 = A + (B + C * r0) * r0, A + (B + C * r1) * r1
    rise = (r1 - r0) * (B + C * (r0 + r1))
    if not math.isfinite(f0 + f1 + rise):
        return None
    tie = 1e-12 * (1.0 + abs(f0) + abs(f1))
    return 1 if rise > tie else -1 if rise < -tie else 0


def _cost_on_path(scenario: Scenario, i: int, regulated: bool, path: tuple,
                  x: np.ndarray) -> np.ndarray:
    """Prosumer ``i``'s cost at the bids ``x`` on the piece table ``path``."""
    edges, anchors, prices, slopes = path
    k = np.searchsorted(edges, x, side="right").clip(1, anchors.size) - 1
    lam_i = prices[k] + slopes[k] * (x - anchors[k])
    return cost_at(scenario, lam_i, x - scenario.a * lam_i, regulated, i)


def _span(start: float, edges: np.ndarray, points: list) -> tuple:
    """The reported interval of a walk over the whole bid line: the span of
    its start, its breakpoints and its minima, widened by half its width on
    each side, or by 1 plus a tenth of its magnitude when it is one
    point."""
    marks = np.concatenate([[start], points, edges[1:-1]])
    lo, hi = float(marks.min()), float(marks.max())
    pad = 0.5 * (hi - lo) if hi > lo else 1.0 + 0.1 * abs(lo)
    return lo - pad, hi + pad


def best_response(scenario: Scenario, i: int, b_minus_i,
                  scan_config: ScanConfig | None = None,
                  regulated: bool = False, start: float | None = None,
                  active=None) -> BestResponseScan:
    """Scan prosumer ``i``'s cost over its own bid, opponents fixed.

    ``b_minus_i`` lists the other prosumers' bids in bus order (length I-1).
    The walk covers the whole bid line.  It starts at ``start``, a finite
    bid such as the incumbent one (the opponents' mean bid when None), and
    its one clearing tries the side vector ``active``, such as the
    incumbent clearing's ``sides``, as its guess; neither changes the
    result beyond rounding.  Every local minimum is reported, in closed
    form on the walked pieces (see :func:`_minimum_points`); the lowest one
    is the best response.  A cost that is infinite or NaN on some piece
    raises :class:`NonFiniteResult`; one that falls without bound toward an
    end of the bid line raises :class:`UnboundedCost`.
    """
    cfg = scan_config or ScanConfig()
    b_minus_i = np.asarray(b_minus_i, dtype=float)
    if b_minus_i.shape != (scenario.size - 1,):
        raise DimensionMismatch(
            f"expected {scenario.size - 1} opponent bids, got {b_minus_i.shape}"
        )
    if start is None:
        start = b_minus_i.mean()
    elif not math.isfinite(start):
        raise ValueError(f"start must be a finite bid, got {start}")
    start = float(start)

    b_base = np.insert(b_minus_i, i, 0.0)
    path = _clearing_path(scenario, i, b_base, start, active)
    curve = partial(_cost_on_path, scenario, i, regulated, path)
    points = _minimum_points(scenario, i, regulated, path, start)
    costs = None if points is None else curve(np.array(points))
    if costs is None or not np.isfinite(costs).all():
        raise NonFiniteResult(
            f"the cost of prosumer {i + 1} is infinite or NaN on the scanned "
            "bids; no best response")
    minima = list(zip(points, costs.tolist()))
    best_bid, best_cost = min(minima, key=lambda mc: (mc[1], mc[0]))
    return BestResponseScan(
        prosumer=i, fixed_bids=b_minus_i,
        interval=_span(start, path[0], points),
        local_minima=tuple(minima), best_bid=best_bid, best_cost=best_cost,
        regulated=regulated, coarse_points=cfg.coarse_points, curve=curve,
    )


def verify_gne(scenario: Scenario, b, tol: float = 1e-6,
               regulated: bool = False) -> GneCheck:
    """Check an equilibrium candidate by per-prosumer deviation gaps.

    ``gaps[i]`` is the cost saved by prosumer ``i``'s best unilateral
    deviation.  Each scan starts at the incumbent bid, guessing the
    incumbent clearing's held lines, so a gap is negative only by rounding;
    the candidate passes when every gap is at most ``tol``.
    """
    b = np.asarray(b, dtype=float)
    incumbent = clear_market(scenario, b)
    incumbent_costs = cost_at(scenario, incumbent.prices, incumbent.quantities,
                              regulated)
    n = scenario.size
    gaps = np.empty(n)
    best_bids = np.empty(n)
    for i in range(n):
        scan = best_response(scenario, i, np.delete(b, i), regulated=regulated,
                             start=float(b[i]), active=incumbent.sides)
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
                 regulated: bool = False) -> BrTrajectory:
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
                                 regulated=regulated, start=float(b[i]))
            b[i] = scan.best_bid
        states.append(b.copy())
        delta = float(np.abs(states[-1] - states[-2]).max())
        if delta <= _FIXED_POINT_TOL:
            verification = verify_gne(scenario, b, tol=_VERIFY_TOL,
                                      regulated=regulated)
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
    """Write the scan's sampled cost curve as two columns: bid, cost.  A
    curve that is infinite or NaN at some sample raises
    :class:`NonFiniteResult` and writes nothing."""
    if not np.isfinite(scan.samples_cost).all():
        raise NonFiniteResult("the scan's cost curve is infinite or NaN at "
                              "some sample; no CSV written")
    rows = zip(scan.samples_b.tolist(), scan.samples_cost.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("".join(["b,cost\r\n", *(f"{b!r},{c!r}\r\n" for b, c in rows)]))

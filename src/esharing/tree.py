"""Exact solver for the package's programs on radial networks.

Every package program has one form: over a vector ``x``,

    min  sum_i (h_i x_i^2 / 2 + g_i x_i)
    s.t. sum_i q_i = 0,   -F_l <= flow_l(q) <= F_l,   q_i = r_i - k x_i,

with ``h > 0`` and ``k > 0``.  The clearing programs (plain and proximal)
are solved in prices with ``k = a`` and the bids as ``r``; the central and
social programs in productions with ``k = 1`` and ``r = D``.

On a tree rooted at the slack bus, the flow on line l is ``sign_l`` times
the net purchase ``Q_l`` of the subtree below it, so each limit bounds one
subtree sum and the bounded sums nest (a nested resource-allocation
problem: Hochbaum, Math. Oper. Res. 19(2), 1994; Vidal, Jaillet & Maculan,
SIAM J. Optim. 26(2), 2016).  Stationarity reads

    u_i = h_i x_i + g_i = -nu + k sum_{l above i} sign_l (mu_up_l - mu_lo_l),

so the local price ``u`` is uniform across every line that is not at a
limit and jumps by ``k sign_l (mu_up_l - mu_lo_l)`` across a line that is.
Each purchase ``q_i = alpha_i - beta_i u_i`` (``alpha = r + k g / h``,
``beta = k / h > 0``) falls as its price rises.

Component solve.  Holding a set of lines at ``Q_l = +-F_l`` cuts the tree
into components, each with one uniform price.  A component's purchases
plus the held limits hanging below it must equal the held limit above it
(0 for the root's component): one linear equation in its price, so one
``np.bincount`` pass prices every component.  The result meets
stationarity, balance, the held limits and complementarity by
construction.  The program is strictly convex, so the result is its unique
optimum exactly when the remaining KKT conditions hold: every free line is
within its limit, and every held line with ``F_l > 0`` has a price jump
that pushes its subtree back (up at ``Q_l = F_l``, down at ``-F_l``).  A
zero-limit line is always held, as its dual has no sign condition.  A
guessed set, such as the previous bidding round's, is checked this way in
O(n) numpy work.

Exchange steps, for a guess that fails the check.  A primal-dual active-set
step (Hintermueller, Ito & Kunisch, SIAM J. Optim. 13(3), 2002) releases
every held line with ``F_l > 0`` whose price jump has the wrong sign, holds
every free line beyond its limit at the side it exceeds, and solves the
components again; zero-limit lines stay held.  Each step costs one more
component solve, and ``iterations`` counts the component solves made.  A
guess a few lines off settles in a few steps, but the steps can cycle
between held sets, so after ``_EXCHANGE_STEPS`` of them the exact pass
below finds the set instead and guarantees termination.

Exact pass, the fallback.  Bottom-up, the purchase of the subtree below
line l is a strictly decreasing piecewise-linear function of the price at
its top,

    P_l(u) = q_c(u) + sum_{lines m below bus c} clip(P_m(u), -F_m, F_m),

with a knot wherever some line further down reaches a limit.  The root's
sum solves ``P(u) = 0``; top-down, line l is held when ``P_l`` at its
parent's price is at or beyond ``+-F_l``, and its subtree then takes the
price at which it sits at that limit.  The pass only finds the held set;
the answer is the component solve on it, which puts held flows on their
limits to rounding.
"""

from __future__ import annotations

import numpy as np

from .qp import QpSolution

_RTOL = 1e-12  # rounding-level slack of the optimality check
_EXCHANGE_STEPS = 8  # exchange steps tried before the exact pass


def solve_tree(net, hess, linear, base, k: float, active=()) -> QpSolution:
    """Solve the program above on the radial network ``net``.

    ``hess`` and ``linear`` are ``h`` and ``g``, ``base`` is ``r`` and ``k``
    the purchase scale.  ``active`` is a guess of the lines at a limit, as
    ``QpSolution.active_set`` pairs; the empty guess is the uniform-price
    solution.  The solution reports the balance dual ``nu`` as its only
    equality dual, the line duals in the sign convention of
    :func:`esharing.qp.solve_qp` for rows ``-k G x``, the held lines as its
    ``active_set``, the component solves made as ``iterations`` (1 when the
    guess is right, one more per exchange step and for the exact pass) and,
    as ``residual``, the worst balance error, flow excess or clipped dual,
    the conditions not met exactly by construction.
    """
    tree, limits = net.tree, net.limits
    alpha, beta = base + k * linear / hess, k / hess
    held = limits == 0.0
    target = np.zeros(limits.size)
    if len(active):
        guessed = np.array([l for l, _ in active])
        sides = np.array([1.0 if side == "upper" else -1.0 for _, side in active])
        keep = np.isfinite(limits[guessed]) & ~held[guessed]
        guessed = guessed[keep]
        held[guessed] = True
        target[guessed] = tree.sign[guessed] * sides[keep] * limits[guessed]
    u, q, flows = _components(net, alpha, beta, held, target)
    iterations = 1
    while True:
        over, wrong = _violations(tree, limits, held, target, u, q, flows)
        if not (over.any() or wrong.any()):
            break
        if iterations > _EXCHANGE_STEPS:  # the steps may cycle
            held, target = _exact_pass(tree, limits, alpha, beta)
            u, q, flows = _components(net, alpha, beta, held, target)
            iterations += 1
            break
        # exchange step: release the lines pulling the wrong way, hold the
        # free lines beyond their limit at the side they exceed
        held = (held & ~wrong) | over
        target = np.where(over, np.copysign(limits, tree.sign * flows), target)
        u, q, flows = _components(net, alpha, beta, held, target)
        iterations += 1

    jump = u[tree.child] - u[tree.parent[tree.child]]
    dual = np.where(held, tree.sign * jump / k, 0.0)  # mu_up - mu_lo
    upper = held & np.where(limits == 0.0, dual >= 0.0, tree.sign * target > 0.0)
    lower = held & ~upper
    mu_up = np.where(upper, np.maximum(dual, 0.0), 0.0)
    mu_lo = np.where(lower, np.maximum(-dual, 0.0), 0.0)
    residual = max(abs(float(q.sum())),
                   float(np.max(np.abs(flows) - limits, initial=0.0)),
                   float(np.max(-dual[upper], initial=0.0)),
                   float(np.max(dual[lower], initial=0.0)))
    held_lines = np.flatnonzero(held)
    return QpSolution(
        x=(u - linear) / hess, eq_duals=np.array([-u[tree.root]]),
        ineq_duals_lower=mu_lo, ineq_duals_upper=mu_up,
        active_set=tuple(zip(held_lines.tolist(),
                             np.where(upper[held_lines], "upper", "lower").tolist())),
        iterations=iterations, residual=residual,
    )


def _components(net, alpha, beta, held, target):
    """Prices ``u``, purchases and flows with the ``held`` lines at ``target``.

    ``target[l]`` is the net purchase of the subtree below held line l.
    """
    tree = net.tree
    n = alpha.size
    cut = tree.child[held]
    comp = tree.parent.copy()
    comp[cut] = cut
    while True:  # pointer jumping: each bus ends at the top of its component
        top = comp[comp]
        if np.array_equal(top, comp):
            break
        comp = top
    t = target[held]
    # own purchases = held limit above - held limits below
    rhs = (np.bincount(comp, alpha, n) - np.bincount(cut, t, n)
           + np.bincount(comp[tree.parent[cut]], t, n))
    u = rhs[comp] / np.bincount(comp, beta, n)[comp]
    q = alpha - beta * u
    return u, q, net.ptdf.T @ q


def _violations(tree, limits, held, target, u, q, flows):
    """The KKT conditions the component solve leaves open, beyond rounding:
    the free lines past their limit and the held lines with ``F_l > 0``
    whose price jump has the wrong sign, as two line masks."""
    free = ~held & np.isfinite(limits)
    signed = held & (limits > 0.0)
    jump = u[tree.child] - u[tree.parent[tree.child]]
    # written as "not within", so that a NaN counts as a violation
    over = free & ~(np.abs(flows) - limits <= _RTOL * (1.0 + np.abs(q).sum()))
    wrong = signed & ~(-np.sign(target) * jump <= _RTOL * (1.0 + np.abs(u).max()))
    return over, wrong


# A curve is (knots, values, left slope, right slope): piecewise linear
# through the knots, extended linearly beyond them.

def _value(curve, u):
    knots, values, left, right = curve
    return (np.interp(u, knots, values) + left * np.minimum(u - knots[0], 0.0)
            + right * np.maximum(u - knots[-1], 0.0))


def _inverse(curve, y: float) -> float:
    """The price at which a strictly decreasing curve equals ``y``."""
    knots, values, left, right = curve
    if y >= values[0]:
        return float(knots[0] + (y - values[0]) / left)
    if y <= values[-1]:
        return float(knots[-1] + (y - values[-1]) / right)
    return float(np.interp(-y, -values, knots))


def _subtree_curve(alpha: float, beta: float, below: list):
    """Own purchase ``alpha - beta u`` plus the clipped curves hanging below."""
    if not below:
        return np.array([alpha / beta]), np.zeros(1), -beta, -beta
    knots = np.unique(np.concatenate([c[0] for c in below]))
    values = alpha - beta * knots
    left = right = -beta
    for c in below:
        values += _value(c, knots)
        left += c[2]
        right += c[3]
    return knots, values, left, right


def _clip(curve, limit: float):
    """``clip(curve, -limit, limit)``: what a line passes up to its parent."""
    if not np.isfinite(limit):
        return curve
    knots, values, _, _ = curve
    lo, hi = _inverse(curve, limit), _inverse(curve, -limit)
    if hi <= lo:  # a zero limit
        return np.array([lo]), np.zeros(1), 0.0, 0.0
    inner = (knots > lo) & (knots < hi)
    return (np.concatenate([[lo], knots[inner], [hi]]),
            np.concatenate([[limit], values[inner], [-limit]]), 0.0, 0.0)


def _exact_pass(tree, limits, alpha, beta):
    """The optimal held lines and their subtree purchases."""
    below = [[] for _ in range(alpha.size)]
    curves = [None] * limits.size
    for l in tree.order[::-1]:
        c = tree.child[l]
        curves[l] = _subtree_curve(alpha[c], beta[c], below[c])
        below[tree.parent[c]].append(_clip(curves[l], limits[l]))
    root = tree.root
    u = np.empty(alpha.size)
    u[root] = _inverse(_subtree_curve(alpha[root], beta[root], below[root]), 0.0)
    held = np.zeros(limits.size, dtype=bool)
    target = np.zeros(limits.size)
    for l in tree.order:
        c = tree.child[l]
        up = u[tree.parent[c]]
        purchase = _value(curves[l], up) if np.isfinite(limits[l]) else 0.0
        if abs(purchase) >= limits[l]:
            held[l] = True
            target[l] = np.copysign(limits[l], purchase)
            u[c] = _inverse(curves[l], target[l])
        else:
            u[c] = up
    return held, target

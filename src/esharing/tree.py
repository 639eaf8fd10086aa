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

Exact pass, for a guess that fails the check.  Bottom-up, the purchase of
the subtree below line l is a strictly decreasing piecewise-linear function
of the price at its top,

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


def solve_tree(net, hess, linear, base, k: float, active=()) -> QpSolution:
    """Solve the program above on the radial network ``net``.

    ``hess`` and ``linear`` are ``h`` and ``g``, ``base`` is ``r`` and ``k``
    the purchase scale.  ``active`` is a guess of the lines at a limit, as
    ``QpSolution.active_set`` pairs; the empty guess is the uniform-price
    solution.  The solution reports the balance dual ``nu`` as its only
    equality dual, the line duals in the sign convention of
    :func:`esharing.qp.solve_qp` for rows ``-k G x``, the held lines as its
    ``active_set``, the component solves made as ``iterations`` (1 when the
    guess is right) and, as ``residual``, the worst balance error, flow
    excess or clipped dual, the conditions not met exactly by construction.
    """
    tree, limits = net.tree, net.limits
    alpha, beta = base + k * linear / hess, k / hess
    held = limits == 0.0
    target = np.zeros(limits.size)
    for l, side in active:
        if np.isfinite(limits[l]) and not held[l]:
            held[l] = True
            target[l] = tree.sign[l] * (limits[l] if side == "upper" else -limits[l])
    u, q, flows = _components(net, alpha, beta, held, target)
    iterations = 1
    if not _optimal(tree, limits, held, target, u, q, flows):
        held, target = _exact_pass(tree, limits, alpha, beta)
        u, q, flows = _components(net, alpha, beta, held, target)
        iterations = 2

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
    return QpSolution(
        x=(u - linear) / hess, eq_duals=np.array([-u[tree.root]]),
        ineq_duals_lower=mu_lo, ineq_duals_upper=mu_up,
        active_set=tuple((int(l), "upper" if upper[l] else "lower")
                         for l in np.flatnonzero(held)),
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


def _optimal(tree, limits, held, target, u, q, flows) -> bool:
    """The KKT conditions the component solve leaves open, to rounding."""
    free = ~held & np.isfinite(limits)
    excess = np.abs(flows[free]) - limits[free]
    signed = np.flatnonzero(held & (limits > 0.0))
    below = tree.child[signed]
    wrong = -np.sign(target[signed]) * (u[below] - u[tree.parent[below]])
    return bool(np.all(excess <= _RTOL * (1.0 + np.abs(q).sum()))
                and np.all(wrong <= _RTOL * (1.0 + np.abs(u).max())))


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

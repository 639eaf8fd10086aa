"""The radial network's pieces of the package's one hot-start loop.

Every package program has one form: over a vector ``x``,

    min  sum_i (h_i x_i^2 / 2 + g_i x_i)
    s.t. sum_i q_i = 0,   -F_l <= flow_l(q) <= F_l,   q_i = r_i - k x_i,

with ``h > 0`` and ``k > 0``.  The clearing programs (plain and proximal)
are solved in prices with ``k = a`` and the bids as ``r``; the central and
social programs in productions with ``k = 1`` and ``r = D``.
:func:`esharing.market._solve_program` guesses the lines at a limit,
solves with them held, checks the result and repairs a wrong guess by
exchange steps, or by the dual active-set steps of its finish; this
module gives it the held-set solve on a tree.

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

Component solve, the held-set solve.  Holding a set of lines at ``Q_l =
+-F_l`` cuts the tree into components, each with one uniform price.  A
component's purchases plus the held limits hanging below it must equal the
held limit above it (0 for the root's component): one linear equation in
its price, so one ``np.bincount`` pass prices every component.  The result
meets stationarity, balance, the held limits and complementarity by
construction, in O(n) numpy work.  The components and every sum that does
not involve ``alpha`` form the held set's factor, which the network keeps
from one solve to the next, so that a settled bidding round only sums its
purchases.
"""

from __future__ import annotations

import numpy as np


def _components(net, alpha, beta, held, target):
    """Prices ``u``, purchases, flows and pushes with the ``held`` lines'
    flows at ``target``.

    A held line's push is its price jump signed by its direction, ``k
    (mu_up - mu_lo)``.  Only ``alpha`` enters after :func:`_factor`, whose
    result the network keeps for the last held set, targets and ``beta`` it
    saw; a hot-started solve that repeats them (a settled bidding round)
    reuses it.  Both paths run the same float operations on the same
    arrays, so reuse never changes a bit.
    """
    tree = net.tree
    comp, below, above, weight = _kept_factor(net, beta, held, target)
    # own purchases = held limit above - held limits below
    rhs = (np.bincount(comp, alpha, alpha.size) - below) + above
    u = rhs[comp] / weight
    q = alpha - beta * u
    jump = u[tree.child] - u[tree.head]
    return u, q, net.flows(q), tree.sign * jump


def _price_map(net, beta, held, target, line, step):
    """For rounds that solve with the ``held`` lines at ``target`` again
    and again: a function that runs them, and one that gives the pushes of
    rows of prices (read off the prices alone).

    A round at prices ``lam`` solves with ``alpha = offset + slope lam``,
    ``(offset, slope) = line``, and moves on to the prices ``cu u + cl
    lam``, ``(cu, cl) = step``.  ``rounds(anchor, count)`` runs ``count``
    rounds from the prices ``anchor`` and returns the prices of the rounds
    (the anchor first), the solves' prices ``u``, and ``u`` again, one row
    per round.  The components' sums of ``alpha`` follow one affine map
    from round to round, elementwise on the components, so a round costs
    O(components); the buses' prices follow at once, by a scaled running
    sum.
    """
    comp, below, above, weight = _kept_factor(net, beta, held, target)
    tops = np.flatnonzero(comp == np.arange(comp.size))
    index = np.searchsorted(tops, comp)  # each bus's component, from 0
    # each component's own purchases: the held limit above, less those below
    held_net = below[tops] - above[tops]
    weight = weight[tops]
    (offset, slope), (cu, cl) = line, step
    # sums' = cl sums + cu E z + (1 - cl) A, with A and E the components'
    # sums of offset and slope, and z = (sums - held_net) / weight the
    # components' prices
    rate = cu * np.bincount(index, slope) / weight
    scale = rate + cl
    shift = (1.0 - cl) * np.bincount(index, offset) - rate * held_net

    def rounds(anchor, count):
        sums = np.empty((count, tops.size))
        y = np.bincount(index, offset + slope * anchor)
        for row in sums:
            row[:] = y
            y = scale * y + shift
        u = ((sums - held_net) / weight)[:, index]
        # lam_j = cl^j (anchor + sum_{i<j} cu u_i / cl^(i+1))
        power = cl ** np.arange(count + 1.0)[:, None]
        lams = np.cumsum(np.concatenate((anchor[None], cu * u / power[1:])),
                         axis=0) * power
        return lams, u, u
    tree = net.tree  # the pushes of _components, one row per round
    return rounds, lambda u: tree.sign * (u[:, tree.child] - u[:, tree.head])


def _kept_factor(net, beta, held, target):
    """:func:`_factor`'s result for these arguments, kept on the network."""
    return net._kept(held.tobytes() + target.tobytes() + beta.tobytes(),
                     lambda: _factor(net.tree, beta, held, target))


def _factor(tree, beta, held, target):
    """The parts of a component solve that ``alpha`` does not enter: each
    bus's component (the bus at its top), the held lines' targets as net
    purchases of their subtrees, summed into the component below and above
    each held line, and each bus's component sum of ``beta``."""
    n = beta.size
    t = (tree.sign * target)[held]
    cut = tree.child[held]
    comp = tree.parent.copy()
    comp[cut] = cut
    while True:  # pointer jumping: each bus ends at the top of its component
        top = comp[comp]
        if (top == comp).all():
            break
        comp = top
    factor = (comp, np.bincount(cut, t, n), np.bincount(comp[tree.head[held]], t, n),
              np.bincount(comp, beta, n)[comp])
    for part in factor:  # kept on the network
        part.setflags(write=False)
    return factor

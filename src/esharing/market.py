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
from functools import cached_property, lru_cache
from itertools import starmap

import numpy as np

from .errors import DimensionMismatch, Infeasible, IterationLimit, TooFewProsumers
from .network import NetworkModel, is_radial
from .tree import _components as _tree_components
from .tree import _price_map as _tree_price_map

_RTOL = 1e-12  # rounding-level slack of the optimality check
_EXCHANGE_STEPS = 8  # exchange steps tried before the finish
_HESS = 2.0  # curvature of each lam_i^2 in the clearing program


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
        # one test for the common case; written so that NaN fails it
        if not (0.0 < self.c < math.inf and -math.inf < self.d < math.inf
                and -math.inf < self.demand_reduction < math.inf):
            if not self.c > 0.0:
                raise DimensionMismatch(f"prosumer c must be > 0, got {self.c}")
            for name, v in (("c", self.c), ("d", self.d),
                            ("D", self.demand_reduction)):
                if not math.isfinite(v):  # JSON files may hold NaN and Infinity
                    raise DimensionMismatch(
                        f"prosumer {name} must be finite, got {v}")
        base = (self.base_production, self.base_purchase, self.base_demand)
        if base[0] is None and base[1] is None and base[2] is None:
            return
        if any(v is None for v in base):
            raise DimensionMismatch("baseline fields must be given together")
        for name, v in zip(_BASELINE, base):
            if not math.isfinite(v):
                raise DimensionMismatch(f"prosumer {name} must be finite, got {v}")
        p0, e0, d0 = base
        if abs(p0 + e0 - d0) > 1e-9 * (1.0 + abs(d0)):
            raise DimensionMismatch(
                f"baseline violates p0 + E0 = D0: {p0} + {e0} != {d0}"
            )

    def disutility(self, p: float) -> float:
        return self.c * p * p + self.d * p


_BASELINE = ("p0", "E0", "D0")  # the baseline columns of a scenario


def _check_prosumers(data, base) -> None:
    """Check prosumer columns as :class:`Prosumer` checks each record: the
    first record it refuses raises its error.  ``data`` stacks ``c``, ``d``
    and ``D``; ``base`` stacks ``p0``, ``E0`` and ``D0``, NaN where a
    prosumer has no baseline, or is None for none."""
    c, d, D = data.tolist()
    # a finite sum has no NaN and no infinity in it, so min() is exact
    fine = math.isfinite(sum(c) + sum(d) + sum(D)) and min(c, default=1.0) > 0.0
    if fine and base is not None:
        p0, e0, d0 = base
        fine = bool(np.all((np.isnan(base).all(axis=0) | np.isfinite(base).all(axis=0))
                           & ~(np.abs(p0 + e0 - d0) > 1e-9 * (1.0 + np.abs(d0)))))
    if not fine:
        for row in _prosumer_rows(data, base):
            Prosumer(*row)


def _prosumer_rows(data, base):
    """The :class:`Prosumer` arguments of each column of ``data`` and
    ``base``, as :func:`_check_prosumers` takes them."""
    columns = data.tolist()
    if base is not None:
        columns += [[None if v != v else v for v in col] for col in base.tolist()]
    return zip(*columns)


def _stack(columns, message: str) -> np.ndarray:
    """``columns`` as the rows of one float array; columns of unequal
    shapes, or a ragged column, raise :class:`DimensionMismatch` with
    ``message``."""
    try:
        return np.array(columns, dtype=float)
    except ValueError:  # numpy refuses a ragged stack, and a bad value
        try:
            shapes = {np.shape(col) for col in columns}
        except ValueError:  # a ragged column
            shapes = ()
        if len(shapes) == 1:
            raise
        raise DimensionMismatch(message) from None


def _sensitivity_threshold(c) -> float:
    """The paper's sensitivity threshold for prosumers with quadratic cost
    coefficients ``c``: (I-2)/(2(I-1)) max_i 1/c_i, I = len(c).  The
    bidding protocol settles for every ``a`` at or above it."""
    n = len(c)
    return (n - 2) / (2.0 * (n - 1)) * float(np.max(1.0 / c))


def _check_count(count: int, bus_count: int) -> None:
    if count != bus_count:
        raise DimensionMismatch(f"{count} prosumers for {bus_count} buses")


@dataclass(frozen=True, eq=False, init=False)
class Scenario:
    """Immutable market instance: network, one prosumer per bus, sensitivity a.

    The prosumers are stored as columns, one entry per bus: ``c``, ``d``
    and ``D`` (the demand reductions), and ``p0``, ``E0`` and ``D0``, the
    baselines, NaN for a prosumer without one, or all three None when no
    prosumer has one.  Build it from ``prosumers``, a sequence of
    :class:`Prosumer`, or from the columns by keyword (a baseline column
    left out is NaN throughout); records become columns, and the columns
    are checked as :class:`Prosumer` checks each record, with its messages.
    ``prosumers`` is the tuple of records, built from the columns when
    first read.
    """

    network: NetworkModel
    a: float
    label: str | None
    c: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    D: np.ndarray = field(repr=False)
    p0: np.ndarray | None = field(repr=False)
    E0: np.ndarray | None = field(repr=False)
    D0: np.ndarray | None = field(repr=False)
    _response: tuple = field(init=False, repr=False)

    def __init__(self, network: NetworkModel, prosumers=None, *, a: float,
                 label: str | None = None, c=None, d=None, D=None,
                 p0=None, E0=None, D0=None):
        if prosumers is not None:
            prosumers = tuple(prosumers)
            c = [p.c for p in prosumers]
            d = [p.d for p in prosumers]
            D = [p.demand_reduction for p in prosumers]
            if any(p.base_production is not None for p in prosumers):
                p0, E0, D0 = np.array(  # a None becomes NaN
                    [(p.base_production, p.base_purchase, p.base_demand)
                     for p in prosumers], dtype=float).T
        data = _stack((c, d, D), "prosumer columns must have one length")
        if data.ndim != 2:
            raise DimensionMismatch("prosumer columns must be one-dimensional")
        base = None
        if not (p0 is None and E0 is None and D0 is None):
            message = "baseline columns must match the others"
            base = _stack([np.full(data.shape[1], np.nan) if col is None else col
                           for col in (p0, E0, D0)], message)
            if base.shape != data.shape:
                raise DimensionMismatch(message)
        _check_prosumers(data, base)
        if base is not None and np.isnan(base).all():
            base = None
        n = data.shape[1]
        _check_count(n, network.bus_count)
        if n < 2:
            raise TooFewProsumers("a market needs at least two prosumers")
        if not 0.0 < a < np.inf:
            raise DimensionMismatch(
                f"market sensitivity a must be finite and > 0, got {a}")
        data.setflags(write=False)
        c, d, D = data
        p0 = E0 = D0 = None
        if base is not None:
            base.setflags(write=False)
            p0, E0, D0 = base
        # the terms of bidding.prosumer_update that only the data enter
        s = a * (n - 1)
        sd, den = s * d, 2.0 * s * c + 1.0
        sd.setflags(write=False)
        den.setflags(write=False)
        vars(self).update(  # frozen: set through the instance dict
            network=network, a=a, label=label, c=c, d=d, D=D, p0=p0, E0=E0,
            D0=D0, _response=(s, sd, den))

    @cached_property
    def prosumers(self) -> tuple:
        base = None if self.p0 is None else np.array((self.p0, self.E0, self.D0))
        return tuple(starmap(Prosumer, _prosumer_rows(
            np.array((self.c, self.d, self.D)), base)))

    @property
    def size(self) -> int:
        return len(self.c)

    def disutility(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return self.c * p * p + self.d * p


@dataclass(frozen=True, eq=False)
class ClearingOutcome:
    """Prices, cleared quantities, duals, and line flows for one bid vector.

    ``alpha_lower[l]`` is the dual of ``flow_l >= -F_l``; ``alpha_upper[l]``
    of ``flow_l <= F_l``.  ``eta`` is the balance dual.  ``sides`` marks the
    lines the solver held at a limit, one entry per line: +1 at ``+F_l``,
    -1 at ``-F_l`` and 0 for a free line.  Every zero-limit line is among
    them, at the side of its dual, unless the solver's finish skipped it as
    dependent, as the twin of another zero-limit line is; that one is
    reported free.  With no line held the price is uniform.

    The clearing sets ``prices``, ``flows`` and ``sides``.  ``quantities``
    (``bids - a prices``), ``eta`` and the ``alpha`` duals are derived when
    first read, from ``solution`` (the :class:`_HeldSolution` of the solve),
    ``bids`` (the clearing's own copy of them) and the sensitivity ``a``;
    so a caller that reads only the prices, as the bidding loop does, pays
    for none of them.
    """

    prices: np.ndarray
    flows: np.ndarray
    sides: np.ndarray
    solution: object = field(repr=False)
    bids: np.ndarray = field(repr=False)
    a: float = field(repr=False)

    @cached_property
    def quantities(self) -> np.ndarray:
        return self.bids - self.a * self.prices

    @cached_property
    def eta(self) -> float:
        return float(self.solution.eq_duals[0]) / self.a

    @property
    def alpha_lower(self) -> np.ndarray:
        return self.solution.ineq_duals_lower

    @property
    def alpha_upper(self) -> np.ndarray:
        return self.solution.ineq_duals_upper


def clear_market(scenario: Scenario, bids, active=None) -> ClearingOutcome:
    """Clear the market for a bid vector.

    Solves the price-space program by :func:`_solve_program`, trying
    ``active`` as its first guess: the ``sides`` of a related clearing, or
    None for none.  With no line at a limit the price is uniform, the mean
    bid over ``a I``, and that is the answer to the empty guess.
    """
    return _clear(scenario, bids, None, active)


def _clear(scenario: Scenario, bids, anchor, active) -> ClearingOutcome:
    """Price-space clearing, plain or proximal.

    Minimizes ``sum lam_i^2``, plus ``sum (lam_i - anchor_i)^2`` when an
    ``anchor`` is given, over prices whose demands ``b - a lam`` balance and
    keep every line flow within its limit.  :func:`_solve_program` solves it
    with ``active`` as its hot start.
    """
    b = np.array(bids, dtype=float)  # a copy: quantities are read off it later
    n = scenario.size
    if b.shape != (n,):
        raise DimensionMismatch(f"expected {n} bids, got shape {b.shape}")
    net = scenario.network
    a = scenario.a
    if anchor is None:
        h, g = _HESS, np.zeros(n)
    else:
        anchor = np.asarray(anchor, dtype=float)
        if anchor.shape != (n,):
            raise DimensionMismatch(
                f"expected {n} anchor prices, got shape {anchor.shape}")
        h, g = _proximal_terms(anchor)
    hess = np.empty(n)
    hess.fill(h)  # np.full(n, h), at a third of its cost
    sol, flows = _solve_program(net, hess, g, b, a, active)
    return ClearingOutcome(prices=sol.x, flows=flows, sides=sol.sides,
                           solution=sol, bids=b, a=a)


def _proximal_terms(anchor):
    """The curvature and the linear term of the proximal clearing anchored
    at the prices ``anchor``, one vector of them or several rows."""
    return 2.0 * _HESS, -_HESS * anchor


def clearing_slopes(scenario: Scenario, i: int, sides) -> tuple | None:
    """Rates of change of :func:`clear_market`'s outcome per unit of bid
    ``i``, while the lines marked in the side vector ``sides`` stay held.

    Returns ``(price, flows, duals)``: the rate of ``prices[i]``, and of
    each bounded line's flow and dual at its own side (0 on the free
    lines), in line order; or None when the held-set solve refuses the
    held set.  The lines without a positive finite limit, which a walk
    along the rates never toggles, are left out.
    """
    k, n = scenario.a, scenario.size
    net = scenario.network
    unit = np.zeros(n)
    unit[i] = 1.0
    solve = _held_solve(net, unit, _constant(n, k / _HESS), sides != 0.0,
                        _constant(sides.size, 0.0))
    if solve is None:
        return None
    du, _, dflow, dpush = solve
    bounded = net.bounded
    return float(du[i] / _HESS), dflow[bounded], (sides * dpush)[bounded] / k


@lru_cache(maxsize=8)
def _constant(size: int, value: float) -> np.ndarray:
    """A read-only vector of ``size`` copies of ``value``, built once for
    the held solves of a walk."""
    v = np.full(size, value)
    v.setflags(write=False)
    return v


def _solve_program(net: NetworkModel, hess, linear, base, k: float,
                   active=None) -> tuple:
    """Minimize ``sum (hess x^2 / 2 + linear x)`` over ``x`` whose purchases
    ``q = base - k x`` balance and keep every line flow within its limit.

    Stationarity reads ``u = hess x + linear = -nu + k G' (mu_up - mu_lo)``
    (``G`` the PTDF rows of the lines), so the purchases are ``q = alpha -
    beta u`` with ``alpha = base + k linear / hess`` and ``beta = k /
    hess``.  One hot-start loop serves both topologies:

    * Guess.  ``active``, a side vector (+1 for a line held at ``+F``, -1
      at ``-F``, 0 free) or None for the empty guess, names the lines held
      at a limit; zero-limit lines are always held, as their duals have no
      sign condition.  The empty guess is the uniform-price point, the
      answer when no line is at a limit.  The vectors made of the last
      guess are kept on the network (:func:`_guess_vectors`), so a
      repeated guess rebuilds none of them.
    * Held-set solve by :func:`_held_solve`: prices, purchases and flows
      with the held lines at their targets, and each held line's push
      ``k (mu_up - mu_lo)`` in price units.
    * Check.  The program is strictly convex, so the result is its unique
      optimum when every free line is within its limit and every held line
      with a positive limit pushes its flow back (``push >= 0`` at ``+F``,
      ``<= 0`` at ``-F``), to rounding level.  One masked comparison tests
      both, a held line's push or a free line's flow; only a failed check
      builds the masks of the exchange step.
    * Exchange step, when the check fails (Hintermueller, Ito & Kunisch,
      SIAM J. Optim. 13(3), 2002): release the held lines with a
      wrong-signed push, hold the free lines beyond their limit at the side
      they exceed, and solve again.  A guess a few lines off settles in a
      few steps, but the steps can cycle.
    * Finish after ``_EXCHANGE_STEPS`` steps, or when a mesh's held rows
      are dependent: the dual active-set steps of :func:`_finish` start
      from the last held set the held solve accepted.  They are finite, and
      their only solver is the held-set solve.

    Returns the solution and the flows of its purchases.  The solution is
    a :class:`_HeldSolution`: it sets ``x``, ``sides`` and ``iterations``
    and derives the duals and the residual from the last held solve when
    they are first read, so a caller that reads only ``x`` pays for
    neither.  It reports the balance dual ``nu`` as its only equality
    dual (``eq_duals``), the duals ``mu_lo, mu_up >= 0`` of ``flow >= -F``
    and ``flow <= F`` as they enter the stationarity above
    (``ineq_duals_lower``, ``ineq_duals_upper``), the held lines as its
    ``sides`` (a zero-limit line at its dual's side, or free where the
    finish skipped it as dependent), as ``iterations`` the held solves
    made, the finish's included, and as ``residual`` the worst balance
    error, flow excess or wrong-signed dual, which a held solve does not
    rule out.
    """
    limits, bounded, pinned = net.limits, net.bounded, net.pinned
    alpha, beta = _purchase_terms(base, linear, hess, k)
    if active is None:
        active = np.zeros(limits.size)
    if np.shape(active) != limits.shape:
        raise DimensionMismatch(f"active must be None or a side vector of "
                                f"{limits.size} lines")
    guess = np.asarray(active, dtype=float)
    side, held, target = net._kept(
        "_guess", guess.tobytes(), lambda: _guess_vectors(net, guess))
    accepted = None  # the last held set the held solve accepted, and its solve
    for iterations in range(1, _EXCHANGE_STEPS + 2):
        # the held lines' flows; the rest are not read
        step = _held_solve(net, alpha, beta, held, target)
        if step is None:  # dependent held rows on a mesh
            break
        u, q, flows, push = step
        excess, within = _check(limits, side, held, u, q, flows, push)
        if np.count_nonzero(within) == within.size:
            break
        # a bounded line is held exactly where its side is not 0; a line
        # that is not bounded has no limit to check
        failed = ~within & bounded
        if not failed.any():
            break
        accepted = side, held, step
        # release the failed held lines, hold the failed free ones
        side = np.where(failed, np.where(held, 0.0, np.copysign(1.0, flows)), side)
        held = held ^ failed
        target = np.copysign(limits, side)
    else:  # the steps may cycle
        step = None
    if step is None:
        side, held, step, solves = _finish(net, alpha, beta, accepted)
        u, q, flows, push = step
        excess = np.abs(flows) - limits
        iterations += solves

    if pinned.size:  # a held zero-limit line sits at its dual's side
        side = side.copy()
        side[pinned] = np.where(held[pinned],
                                np.where(push[pinned] / k >= 0.0, 1.0, -1.0), 0.0)
    return _HeldSolution((u - linear) / hess, side, iterations, u[net.slack - 1],
                         q, push, k, excess), flows


def _purchase_terms(base, linear, hess, k):
    """``alpha`` and ``beta`` of a program's purchases ``q = alpha - beta
    u`` at its local prices ``u = hess x + linear``."""
    return base + k * linear / hess, k / hess


def _check(limits, side, held, u, q, flows, push) -> tuple:
    """The optimality check of held solves, one row per solve or one
    solve: each line's flow excess over its limit, and whether each line
    passes, a held line by its push and a free line by its flow."""
    excess = np.abs(flows) - limits
    scale_u = np.maximum.reduce(np.abs(u), axis=-1)
    scale_q = np.add.reduce(np.abs(q), axis=-1)
    if u.ndim == 2:  # one scale per row
        scale_u, scale_q = scale_u[:, None], scale_q[:, None]
    # written as "within", so that a NaN counts as a violation
    return excess, np.where(held, side * push >= -_RTOL * (1.0 + scale_u),
                            excess <= _RTOL * (1.0 + scale_q))


def _finish(net, alpha, beta, start) -> tuple:
    """Dual active-set steps (Goldfarb & Idnani, Math. Programming 27,
    1983) whose only solver is the held-set solve, from ``start``: the side
    and held vectors of the last held set the loop's held solve accepted,
    and that solve, or None for no lines.

    The held lines with a wrong-signed push are released first, until none
    is left.  Then each free zero-limit line, an equality never released,
    and after them the most violated free line (least index on ties) is
    added: its push, signed to move its flow back, grows until the flow
    reaches its limit, where the line is held, or until a held push
    reaches 0, where that line is released (least index on ties) and the
    push grows on.  The held solve is linear in ``(alpha, target)``, so one
    solve with ``alpha = -beta G_p`` and zero targets gives the rate of
    every flow and held push, and the state moves along it.  A line whose
    row depends on the held rows (the fall ``sigma`` of its own flow is 0)
    moves only the pushes; a zero-limit one is skipped and reported free,
    as its flow is already 0.  One held solve of the final set gives the
    answer.  The method is finite: a cap of ``50 (n + lines) + 10`` steps,
    ``n`` the buses, only guards it (:class:`IterationLimit` past it), and
    the tolerances are the loop's check.

    Returns the side and held vectors, the final held solve and the number
    of held solves made.
    """
    limits, bounded = net.limits, net.bounded
    lines, cap = limits.size, 50 * (alpha.size + limits.size) + 10
    solves = steps = 0

    def solve(alpha, target):
        nonlocal solves
        solves += 1
        solved = _held_solve(net, alpha, beta, held, target)
        if solved is None:
            raise IterationLimit("the held-set solve refused the held set "
                                 "of a dual active-set step")
        return solved

    if start is None:
        side, held, step = np.zeros(lines), np.zeros(lines, dtype=bool), None
    else:  # copies: the vectors of a guess are kept on the network
        side, held, step = start[0].copy(), start[1].copy(), start[2]
    while True:
        if step is None:
            step = solve(alpha, np.copysign(limits, side))
        u, q, flows, push = step
        # only a held line with a positive limit has a side
        wrong = side * push < -_RTOL * (1.0 + np.abs(u).max())
        if not wrong.any():
            break
        held[wrong], side[wrong], step = False, 0.0, None

    def add(p):
        """Move line ``p``'s flow to its limit and hold it there, or skip
        a dependent zero-limit line."""
        nonlocal q, flows, push, steps
        g, zeros = net.rows(p), np.zeros(lines)
        s, t, scale = np.copysign(1.0, flows[p]), 0.0, 1e-10 * (beta * g * g).sum()
        while True:
            steps += 1
            if steps > cap:
                raise IterationLimit(f"dual active-set steps exceeded {cap}")
            _, dq, dflows, dpush = solve(-beta * g, zeros)
            sigma, gap = -dflows[p], abs(flows[p]) - limits[p]
            dependent = sigma <= scale
            if dependent and limits[p] == 0.0:
                if gap <= _RTOL * (1.0 + np.abs(q).sum()):
                    return
                raise Infeasible("zero-limit lines are inconsistent")
            full = np.inf if dependent else gap / sigma
            # the step at which each held push reaches 0
            rate = s * side * dpush
            stops = np.divide(np.maximum(side * push, 0.0), -rate,
                              out=np.full(lines, np.inf), where=rate < 0.0)
            l = int(np.argmin(stops))  # the least index wins ties
            length = min(full, stops[l])
            if length == np.inf:
                raise Infeasible("constraint set is empty")
            ds = s * length
            if not dependent:
                q, flows = q + ds * dq, flows + ds * dflows
            push, t = push + ds * dpush, t + ds
            if length == full:
                held[p], side[p], push[p] = True, s if bounded[p] else 0.0, t
                return
            held[l], side[l], push[l] = False, 0.0, 0.0

    for p in net.pinned[~held[net.pinned]]:
        add(p)
    while True:
        excess = np.where(bounded & ~held, np.abs(flows) - limits, 0.0)
        p = int(np.argmax(excess))
        if not excess[p] > _RTOL * (1.0 + np.abs(q).sum()):
            break
        add(p)
    return side, held, solve(alpha, np.copysign(limits, side)), solves


class _HeldSolution:
    """A solution of :func:`_solve_program` read off its last held solve.

    ``x``, ``sides`` (a copy of the side vector, which stays private, as it
    may be the one kept on the network) and ``iterations`` are set.  The
    balance dual, the line duals and the residual are derived when first
    read, from the held solve's arrays: the slack bus's price, the
    purchases, the pushes and the flows' excess over their limits.  None
    of those is handed out, so what a caller does to the fields it reads
    changes nothing derived later.
    """

    def __init__(self, x, side, iterations, slack_price, q, push, k, excess):
        self.x, self.sides, self.iterations = x, side.copy(), iterations
        self._side, self._slack_price, self._q, self._push = side, slack_price, q, push
        self._k, self._excess = k, excess

    @cached_property
    def eq_duals(self) -> np.ndarray:
        return np.array([-self._slack_price])

    @cached_property
    def _signed(self) -> np.ndarray:
        """Each held line's dual ``mu_up - mu_lo`` at its own side."""
        return self._side * (self._push / self._k)

    @cached_property
    def _line_duals(self) -> tuple:
        """Each line's duals at its lower and upper limit."""
        side, mu = self._side, np.maximum(self._signed, 0.0)
        return np.where(side < 0.0, mu, 0.0), np.where(side > 0.0, mu, 0.0)

    @property
    def ineq_duals_lower(self) -> np.ndarray:
        return self._line_duals[0]

    @property
    def ineq_duals_upper(self) -> np.ndarray:
        return self._line_duals[1]

    @cached_property
    def residual(self) -> float:
        """The worst balance error, flow excess or wrong-signed dual."""
        return max(abs(float(np.add.reduce(self._q))), float(
            np.maximum.reduce(np.maximum(self._excess, -self._signed), initial=0.0)))


def _guess_vectors(net: NetworkModel, guess) -> tuple:
    """The side, held and target vectors of the side vector ``guess``, all
    read-only: +1 or -1 on each guessed line with a positive limit and 0
    elsewhere, every such line and every zero-limit line held (a
    zero-limit line with side 0 until its dual sides it), and each line's
    limit at its side as its flow's target."""
    side = np.where(net.bounded, np.sign(guess), 0.0)
    held = side != 0.0
    held[net.pinned] = True
    target = np.copysign(net.limits, side)
    for v in (side, held, target):
        v.setflags(write=False)
    return side, held, target


def _held_solve(net, alpha, beta, held, target):
    """The held-set solve: the component solve of :mod:`esharing.tree` on a
    radial network, :func:`_mesh_components` on a meshed one.  Its answer
    is linear in ``(alpha, target)``."""
    components = _tree_components if is_radial(net) else _mesh_components
    return components(net, alpha, beta, held, target)


def _price_map(net, beta, held, target, line, step):
    """For rounds that solve with the ``held`` lines at ``target`` again
    and again, a function that runs them and one that gives the pushes of
    their rows, as :func:`esharing.tree._price_map` describes: that one on
    a radial network, :func:`_mesh_price_map` on a meshed one.  The held
    set must be one the held solve has accepted."""
    price_map = _tree_price_map if is_radial(net) else _mesh_price_map
    return price_map(net, beta, held, target, line, step)


def _mesh_components(net, alpha, beta, held, target):
    """Prices ``u``, purchases, flows and pushes on a meshed network with
    the ``held`` lines' flows at ``target``, or None when the held rows are
    (nearly) dependent.

    The price is ``u = R' z`` on the rows ``R`` of the balance and the held
    lines' flows, so ``R diag(beta) R' z = R alpha - t`` puts the purchases
    on their targets ``t``; one refinement pass follows.  A near-singular
    system, such as all lines of a cycle or a line with its parallel twin,
    gives garbage that can pass the optimality check, so the balance and
    every held flow must meet their targets afterwards.  Dependent rows
    whose targets agree, as two held zero-limit lines may be, pass that
    test with pushes split at random between them; so with two or more
    held, each Cholesky pivot must keep the share of its row that
    :func:`_finish` asks of a line it holds.  The Schur matrix and that
    verdict come from :func:`_mesh_factor`, kept on the network as the
    tree's factor is (:func:`esharing.tree._components`) but keyed on the
    held lines and ``beta`` alone, as the targets do not enter it; the rows
    are gathered and the system solved on every call (:func:`_mesh_system`).
    """
    system = _mesh_system(net, beta, held, target)
    if system is None:
        return None
    rows, t, schur = system
    z, q = np.zeros(t.size), alpha
    try:
        for _ in range(2):
            z = z + np.linalg.solve(schur, rows @ q - t)
            u = z @ rows
            q = alpha - beta * u
    except np.linalg.LinAlgError:
        return None
    flows = net.flows(q)
    gap = max(abs(q.sum()), np.abs(flows[held] - target[held]).max(initial=0.0))
    if not gap <= _RTOL * (1.0 + np.abs(alpha).sum()):
        return None
    push = np.zeros(held.size)
    push[held] = z[1:]
    return u, q, flows, push


def _mesh_system(net, beta, held, target):
    """The rows ``R`` of the balance and the ``held`` lines' flows, their
    targets ``t`` and the Schur matrix, kept on the network; None when its
    Cholesky pivots show a dependent row."""
    rows = np.vstack([np.ones(beta.size), net.rows(held)])
    t = np.concatenate([[0.0], target[held]])
    schur, dependent = net._kept(
        "_factor", held.tobytes() + beta.tobytes(),
        lambda: _mesh_factor(rows, beta, np.count_nonzero(held[net.pinned]) > 1))
    return None if dependent else (rows, t, schur)


def _mesh_price_map(net, beta, held, target, line, step):
    """:func:`_price_map` on a meshed network: each round is the solve and
    the refinement pass of :func:`_mesh_components`, on the kept Schur
    matrix inverted once, and a pushes' row is the round's ``z`` but its
    first entry.  The held solve accepted the held set, so its rows are
    independent and the matrix, which that solve factored, inverts."""
    rows, t, schur = _mesh_system(net, beta, held, target)
    inverse = np.linalg.inv(schur)
    (offset, slope), (cu, cl) = line, step

    def rounds(anchor, count):
        lams, us, zs, lam = [anchor], [], [], anchor
        for _ in range(count):
            alpha = offset + slope * lam
            z, q = np.zeros(t.size), alpha
            for _ in range(2):
                z = z + inverse @ (rows @ q - t)
                u = z @ rows
                q = alpha - beta * u
            lam = cu * u + cl * lam
            lams.append(lam)
            us.append(u)
            zs.append(z)
        return np.array(lams), np.array(us), np.array(zs)

    def pushes(z):
        push = np.zeros((len(z), held.size))
        push[:, held] = z[:, 1:]
        return push
    return rounds, pushes


def _mesh_factor(rows, beta, check_pivots: bool) -> tuple:
    """The Schur matrix of the held ``rows``, and whether its Cholesky
    pivots, checked only when ``check_pivots``, show a dependent row."""
    schur = (rows * beta) @ rows.T
    schur.setflags(write=False)  # kept on the network
    if not check_pivots:
        return schur, False
    try:
        pivots = np.diagonal(np.linalg.cholesky(schur)) ** 2
    except np.linalg.LinAlgError:
        return schur, True
    return schur, not (pivots > 1e-10 * np.diagonal(schur)).all()


def clearing_kkt_residual(scenario: Scenario, bids, outcome: ClearingOutcome) -> float:
    """Worst violation of the clearing stationarity/feasibility system."""
    b = np.asarray(bids, dtype=float)
    net = scenario.network
    a = scenario.a
    lam, q = outcome.prices, outcome.quantities
    stat = (2.0 * lam + a * outcome.eta + a * net.price_terms(outcome.alpha_lower)
            - a * net.price_terms(outcome.alpha_upper))
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


def _payment(scenario: Scenario, prices, purchases, p, i, regulated: bool):
    """Sharing payment ``lam q``; regulated, the max of ``lam q`` and
    ``m q`` with ``m`` the adjusted marginal disutility, which equals
    (regulated price) x quantity for buyers and sellers alike."""
    pay = prices * purchases
    if regulated:
        pay = np.maximum(pay, marginal_term(scenario, p, purchases, i) * purchases)
    return pay


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

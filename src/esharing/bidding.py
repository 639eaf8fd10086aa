"""Iterative bidding protocol: proximal platform price update + closed-form
prosumer response.

Each round, the platform re-clears the standing bids through a proximal
variant of the clearing rule (squared-norm objective plus a damping term
anchored at the previous prices), and every prosumer simultaneously best
responds with the closed-form production/bid update.  The loop stops when the
bid vector moves less than ``epsilon`` in the infinity norm.

Once a round's clearing keeps the previous round's held lines in one held
solve, the round is settled: with the held set fixed, a round maps prices
to prices by one affine map (the held solve is linear in its data, and the
data are affine in the anchor prices once the bids respond to them).  The
rounds after it run along that map without re-clearing, a block at a time
(:func:`_settled_rounds`), with each round still checked as its clearing
would check it; the first round that fails is cleared again.  The map's
float operations differ from the clearing's, so the iterates agree with
those of clearing every round to rounding level, not bit for bit.

Convergence is guaranteed when the market sensitivity satisfies
``a >= (I-2)/(2(I-1)) * max_i (1/c_i)``; below that threshold the run only
emits a warning, since the condition is sufficient, not necessary.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, MaxIterExceeded, WeakSensitivityWarning
from .market import (
    _RTOL,
    ClearingOutcome,
    Scenario,
    _check,
    _clear,
    _guess_vectors,
    _price_map,
    _proximal_terms,
    _purchase_terms,
    _sensitivity_threshold,
)
from .network import is_radial
from .equilibrium import EquilibriumResult

_FEJER_RTOL = 1e-10  # relative slack of one Fejer step, see fejer_check


@dataclass(frozen=True)
class BiddingConfig:
    """Loop controls.  ``epsilon=None`` selects 1e-6 * (1 + max |D_i|).

    Every run starts from zero bids and prices.
    """

    epsilon: float | None = None
    max_iter: int = 500

    def __post_init__(self):
        if self.epsilon is not None and not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if isinstance(self.max_iter, bool) or not isinstance(
                self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")

    def resolved_epsilon(self, scenario: Scenario) -> float:
        if self.epsilon is not None:
            return self.epsilon
        return 1e-6 * (1.0 + float(np.abs(scenario.D).max()))


@dataclass(eq=False)
class BiddingTrace:
    """Recorded iterates.  Row k holds the state entering iteration k+1.

    The initial row stores the all-zero starting bids and prices with the
    production the bid identity ``p = D + a*lam - b`` gives them, the
    self-sufficient plan.  ``delta_b`` entries are the stopping-norm values;
    the initial row carries ``nan``.
    """

    prices: list = field(default_factory=list)
    bids: list = field(default_factory=list)
    production: list = field(default_factory=list)
    delta_b: list = field(default_factory=list)
    termination: str = "running"

    def __len__(self) -> int:
        return len(self.bids)

    def record(self, prices, bids, production, delta_b: float) -> None:
        self.prices.append(prices)
        self.bids.append(bids)
        self.production.append(production)
        self.delta_b.append(delta_b)

    def distances(self, eqm: EquilibriumResult) -> np.ndarray:
        """Euclidean distance of each iterate (p, b) to the equilibrium."""
        shape = (len(self), eqm.p_bar.size)
        dp = np.reshape(self.production, shape) - eqm.p_bar
        db = np.reshape(self.bids, shape) - eqm.b_bar
        # row by row dot products, each summed as ``dp[k] @ dp[k]`` sums it
        sq = dp[:, None, :] @ dp[:, :, None] + db[:, None, :] @ db[:, :, None]
        return np.sqrt(sq[:, 0, 0])


@dataclass(frozen=True, eq=False)
class BiddingResult:
    production: np.ndarray
    bids: np.ndarray
    prices: np.ndarray
    iterations: int
    final_delta: float
    trace: BiddingTrace


@dataclass(frozen=True, eq=False)
class FejerReport:
    """Monotonicity report for the squared distances along a trace."""

    monotone: bool
    max_violation: float
    distances: np.ndarray


def platform_update(scenario: Scenario, prices_k, bids_k,
                    active=None) -> ClearingOutcome:
    """Proximal re-clearing of the standing bids.

    Minimizes ``sum lam_i^2 + sum (lam_i - lam_i^k)^2`` over prices whose
    induced demands at ``bids_k`` balance and respect the flow limits, by
    :func:`esharing.market._solve_program`: with no line at a limit the
    answer is the stationary point ``lam_i = lam_i^k / 2 - a eta / 4``.
    ``prices_k`` holds one price per prosumer, as ``bids_k`` one bid.
    ``active`` (the previous round's ``sides``, or None) is the solver's
    first guess.
    """
    return _clear(scenario, bids_k, prices_k, active)


def prosumer_update(scenario: Scenario, prices_next):
    """Closed-form simultaneous response of all prosumers to the prices
    ``prices_next``, one per prosumer.

    Returns ``(production, bids)``.
    """
    lam = np.asarray(prices_next, dtype=float)
    if lam.shape != scenario.D.shape:
        raise DimensionMismatch(
            f"expected {scenario.size} prices, got shape {lam.shape}")
    return _response(scenario, lam)


def _response(scenario: Scenario, lam):
    """:func:`prosumer_update` for the prices ``lam``, one vector or
    several rows."""
    # s = a (I - 1); s d and 2 s c + 1 are kept with the scenario
    s, sd, den = scenario._response
    p = (s * lam - sd + scenario.D) / den
    b = scenario.D - p + scenario.a * lam
    return p, b


def a_min(scenario: Scenario) -> float:
    """Sensitivity threshold sufficient for convergence of the protocol."""
    return _sensitivity_threshold(scenario.c)


def run_bidding(scenario: Scenario, config: BiddingConfig | None = None) -> BiddingResult:
    """Run the protocol from zero bids/prices until the bid vector settles.

    A round whose clearing repeats the previous round's held set in one
    held solve is settled.  From there the rounds run along that held set
    by :func:`_settled_rounds`, which does not re-clear, until a round
    meets ``epsilon``, the cap is hit, or a round fails the clearing's own
    check; that round and the ones after it are cleared by
    :func:`platform_update` again.  The iterates match those of clearing
    every round to rounding level.

    Raises :class:`MaxIterExceeded` (with the trace and last residual
    attached) if the cap is hit first.
    """
    config = config or BiddingConfig()
    eps = config.resolved_epsilon(scenario)
    threshold = a_min(scenario)
    if scenario.a < threshold:
        warnings.warn(
            f"market sensitivity a={scenario.a} below the convergence "
            f"threshold {threshold:.6g}; the protocol may not settle",
            WeakSensitivityWarning, stacklevel=2,
        )
    n = scenario.size
    # zero bids and prices; the bid identity gives the self-sufficient plan
    lam, b, p = np.zeros(n), np.zeros(n), scenario.D

    trace = BiddingTrace()
    trace.record(lam.copy(), b.copy(), p.copy(), float("nan"))

    def result():
        trace.termination = "converged"
        return BiddingResult(production=p, bids=b, prices=lam,
                             iterations=len(trace) - 1, final_delta=delta,
                             trace=trace)

    active = None
    while len(trace) <= config.max_iter:
        cleared = platform_update(scenario, lam, b, active)
        settled = active is not None and cleared.solution.iterations == 1
        lam_next, active = cleared.prices, cleared.sides
        p_next, b_next = prosumer_update(scenario, lam_next)
        delta = float(np.abs(b_next - b).max())
        trace.record(lam_next, b_next, p_next, delta)
        lam, b, p = lam_next, b_next, p_next
        if delta <= eps:
            return result()
        if not settled:
            continue
        for prices, production, bids, deltas in _settled_rounds(
                scenario, lam, b, active, config.max_iter + 1 - len(trace), eps):
            for row in zip(prices, bids, production, deltas.tolist()):
                trace.record(*row)
            lam, b, p, delta = prices[-1], bids[-1], production[-1], trace.delta_b[-1]
            if delta <= eps:
                return result()
    trace.termination = "max_iter"
    raise MaxIterExceeded(
        f"bidding did not settle within {config.max_iter} iterations "
        f"(last delta {delta:.3e} > epsilon {eps:.3e})",
        trace=trace, residual=delta,
    )


def _settled_rounds(scenario: Scenario, prices, bids, sides, rounds: int, eps: float):
    """The rounds after a settled one, which ended at ``prices`` and
    ``bids`` holding the lines at ``sides``, carried along that held set
    without re-clearing; at most ``rounds`` of them.

    While the held set stays the clearing's, a round is one held solve of
    it, linear in the purchase terms ``alpha``, and ``alpha`` is affine in
    the round's anchor prices once the bids respond to them, so one affine
    map takes the prices from round to round.  Only that map runs round by
    round, by :func:`esharing.market._price_map` on the network's kept
    factor, with ``alpha``'s slope taken from :func:`prosumer_update`'s
    closed form by linearity.  The rounds' responses, flows (one flow
    operation), pushes, checks and stop-norm values then run at once, each
    round checked on its own anchor and bids by the clearing's check, and
    on a mesh by the balance and target test of
    :func:`esharing.market._mesh_components` as well.

    Yields blocks of rounds: their prices, productions and bids, one row
    per round, and their stop-norm values.  Ends with the first round whose
    value is at most ``eps``, or before the first round that fails a check.
    The blocks start at 4 rounds and double up to 64, but stop near the
    round where the stop norm, falling at the rate of the last block,
    would meet ``eps``, so that neither a short stretch nor the end of a
    long one runs many rounds for nothing.
    """
    net, a, n = scenario.network, scenario.a, scenario.size
    side, held, target = net._kept(
        "_guess", sides.tobytes(), lambda: _guess_vectors(net, sides))
    h, g = _proximal_terms(prices)
    hess = np.empty(n)
    hess.fill(h)
    alpha, beta = _purchase_terms(bids, g, hess, a)
    shift = prices + 1.0
    slope = (_purchase_terms(_response(scenario, shift)[1], _proximal_terms(shift)[1],
                             hess, a)[0] - alpha) / (shift - prices)
    # a round's prices are (u - g) / h, and g is g1 times its anchor
    h, g1 = _proximal_terms(1.0)
    run, pushes = _price_map(net, beta, held, target, (alpha - slope * prices, slope),
                             (1.0 / h, -g1 / h))
    size = count = min(4, rounds)
    while count > 0:
        lams, u, basis = run(prices, count)
        production, after = _response(scenario, lams[1:])
        standing = np.concatenate((bids[None], after[:-1]))
        alphas = _purchase_terms(standing, _proximal_terms(lams[:-1])[1], hess, a)[0]
        q = alphas - beta * u
        flows = net.flows(q.T).T
        _, within = _check(net.limits, side, held, u, q, flows, pushes(basis))
        passed = within.all(axis=1)
        if not is_radial(net):  # the target test of _mesh_components, by rows
            gap = np.maximum(np.abs(q.sum(axis=1)), np.abs(
                flows[:, held] - target[held]).max(axis=1, initial=0.0))
            passed &= gap <= _RTOL * (1.0 + np.abs(alphas).sum(axis=1))
        done = count if passed.all() else int(passed.argmin())
        deltas = np.abs(after[:done] - standing[:done]).max(axis=1)
        met = np.flatnonzero(deltas <= eps)
        if met.size:
            done = met[0] + 1
        if done:
            yield lams[1:done + 1], production[:done], after[:done], deltas[:done]
        if met.size or done < count:
            return
        prices, bids, rounds = lams[done], after[done - 1], rounds - done
        size = min(2 * size, 64)
        count = min(size, rounds)
        first, last = deltas[0], deltas[-1]
        if done > 1 and 0.0 < last < first < np.inf:
            count = min(count, 2 + int(
                math.log(eps / last) * (done - 1) / math.log(last / first)))


def fejer_check(trace: BiddingTrace, eqm: EquilibriumResult) -> FejerReport:
    """Check that squared distances to the equilibrium never increase.

    A step from d_k to d_{k+1} counts as a violation when
    ``d_{k+1}^2 > d_k^2 + _FEJER_RTOL * (1 + d_k^2)``.
    """
    dist = trace.distances(eqm)
    sq = dist * dist
    if len(sq) < 2:
        return FejerReport(monotone=True, max_violation=0.0, distances=dist)
    excess = sq[1:] - sq[:-1] - _FEJER_RTOL * (1.0 + sq[:-1])
    worst = float(excess.max())
    return FejerReport(monotone=bool(worst <= 0.0),
                       max_violation=max(worst, 0.0), distances=dist)


def write_trace_csv(trace: BiddingTrace, path, eqm: EquilibriumResult | None = None):
    """Write the trace in long form: one row per (iteration, prosumer).

    Columns: iter, i, lambda, b, p, delta_b_norm, dist_to_eqm (blank when no
    equilibrium was supplied).  Iterations and prosumers are 1-based.
    """
    dist = trace.distances(eqm) if eqm is not None else None
    columns = [np.asarray(rows, dtype=float).tolist()
               for rows in (trace.prices, trace.bids, trace.production)]
    # the text csv.writer makes of these rows, one write per iterate
    with open(path, "w", newline="") as fh:
        fh.write("iter,i,lambda,b,p,delta_b_norm,dist_to_eqm\r\n")
        for k, (delta, *iterate) in enumerate(zip(trace.delta_b, *columns)):
            tail = ("" if np.isnan(delta) else repr(float(delta))) + "," \
                + ("" if dist is None else repr(float(dist[k])))
            fh.write("".join([f"{k + 1},{i},{lam!r},{b!r},{p!r},{tail}\r\n"
                              for i, (lam, b, p) in enumerate(zip(*iterate), 1)]))

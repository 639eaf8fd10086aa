"""Dense strictly convex quadratic programming with exact dual recovery.

Solves

    min  0.5 x' diag(h) x + g' x
    s.t. A x = b                 (equality rows, duals ``nu``)
         lo <= C x <= up         (two-sided rows, duals ``mu_lo``/``mu_up``)

by the dual active-set method of Goldfarb & Idnani (Math. Programming
27, 1983).  H = diag(h) with every ``h > 0``, as in every program of the
paper, so H^-1 [A; C]' is one division for all rows, and each step solves
only the small Schur system on the held rows.  Multipliers come out
consistent with the stationarity condition

    h * x + g + A' nu + C' (mu_up - mu_lo) = 0,      mu_lo, mu_up >= 0.

The loop starts at the unconstrained minimum with nothing held.  The
equality and equal-bound rows are held first and never released; one that
depends on the rows already held is skipped when it is met and raises
``Infeasible`` when it is not.  Then each step adds the most violated row,
releasing on the way any held row whose multiplier would change sign.  A
violated row that depends on the held rows, with no held multiplier to
release, proves the program infeasible.  A least-index rule breaks ties
both when a row is added and when one is released, so identical inputs
produce bit-identical outputs.  A Schur solve on the final held set,
refined once against the rows themselves, gives the reported solution.

This is the tests' oracle, not part of the package.  The package solves
its programs with the hot-start loop of
:func:`esharing.market._solve_program`, whose finish runs the same dual
active-set steps on its held-set solve; the tests check those answers
against this dense solver, field by field.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from esharing.errors import DimensionMismatch, EsharingError, IterationLimit

_FEAS_RTOL = 1e-9


class Infeasible(EsharingError):
    """The constraint set is empty."""


class NotPositiveDefinite(EsharingError):
    """The quadratic term is not symmetric positive definite."""


def _as_array(a, shape_hint=None):
    if a is None:
        return np.zeros(shape_hint if shape_hint is not None else (0,))
    return np.array(a, dtype=float)


@dataclass(frozen=True, eq=False)
class QuadraticProgram:
    """Immutable problem data.  Missing blocks default to empty.

    ``hessian`` holds the diagonal of H, each entry positive and finite.
    ``ineq_lower``/``ineq_upper`` entries may be ``-inf``/``+inf`` for
    one-sided rows; a row with equal bounds is treated as a pinned equality.
    """

    hessian: np.ndarray
    linear: np.ndarray
    eq_matrix: np.ndarray = None
    eq_rhs: np.ndarray = None
    ineq_matrix: np.ndarray = None
    ineq_lower: np.ndarray = None
    ineq_upper: np.ndarray = None

    def __post_init__(self):
        h = _as_array(self.hessian)
        g = _as_array(self.linear)
        n = g.size
        if g.shape != (n,) or h.shape != (n,) or n == 0:
            raise DimensionMismatch(f"hessian {h.shape} and linear {g.shape} "
                                    "must be vectors of one nonzero length")
        if not np.all((0.0 < h) & (h < np.inf)):  # also refuses NaN
            raise NotPositiveDefinite("hessian entries must be positive and finite")
        A = _as_array(self.eq_matrix, (0, n))
        b = _as_array(self.eq_rhs, (0,))
        C = _as_array(self.ineq_matrix, (0, n))
        lo = _as_array(self.ineq_lower, (0,))
        up = _as_array(self.ineq_upper, (0,))
        if A.ndim != 2 or A.shape[1] != n or b.shape != (A.shape[0],):
            raise DimensionMismatch("equality block shapes are inconsistent")
        if C.ndim != 2 or C.shape[1] != n or lo.shape != (C.shape[0],) \
                or up.shape != (C.shape[0],):
            raise DimensionMismatch("inequality block shapes are inconsistent")
        if np.any(lo > up):
            raise Infeasible("a row has ineq_lower > ineq_upper")
        for name, arr in (("hessian", h), ("linear", g), ("eq_matrix", A),
                          ("eq_rhs", b), ("ineq_matrix", C),
                          ("ineq_lower", lo), ("ineq_upper", up)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.linear.shape[0]

    @property
    def eq_count(self) -> int:
        return self.eq_matrix.shape[0]

    @property
    def ineq_count(self) -> int:
        return self.ineq_matrix.shape[0]


@dataclass(frozen=True, eq=False)
class QpSolution:
    """Primal-dual solution.

    ``sides`` holds one entry per inequality row: +1 where the solver held
    it at its upper bound, -1 at its lower one, 0 where it did not hold it.
    An equal-bound row that depends on rows already held is skipped by the
    solver, and is reported free, with side 0 and dual 0.
    """

    x: np.ndarray
    eq_duals: np.ndarray
    ineq_duals_lower: np.ndarray
    ineq_duals_upper: np.ndarray
    sides: np.ndarray
    iterations: int
    residual: float = field(default=0.0)


def solve_qp(qp: QuadraticProgram) -> QpSolution:
    """Solve the diagonal-Hessian ``qp`` to residuals at the 1e-9 (scaled) level.

    ``sides`` marks the rows held at the end, which are independent: an
    equal-bound row skipped as dependent on the held rows is reported free.

    Raises
    ------
    Infeasible
        If the constraint set is empty.
    IterationLimit
        If the active-set loop exceeds ``50 * (n + ineq_count)`` steps.
    """
    C, lo, up = qp.ineq_matrix, qp.ineq_lower, qp.ineq_upper
    m_eq, m_in = qp.eq_count, qp.ineq_count
    # range space of every row at once: the held-set subproblem
    #   min 0.5 x'Hx + g'x  s.t.  R x = t   (R: some rows of [A; C])
    # has x = x_u - H^-1 R' y with (R H^-1 R') y = R x_u - t, x_u = -H^-1 g
    rows = np.vstack([qp.eq_matrix, C])
    x_u = -qp.linear / qp.hessian
    hinv_rt = rows.T / qp.hessian[:, None]
    gram = rows @ hinv_rt

    # per row of [A; C]: its target when held, and the sign its multiplier
    # y (stationarity H x + g + R' y = 0) keeps, +1 at an upper bound and -1
    # at a lower one; the pinned rows, equalities and equal bounds, keep 0
    pinned = np.concatenate([np.ones(m_eq, bool), lo == up])
    target = np.concatenate([qp.eq_rhs, lo])
    side = np.zeros(m_eq + m_in)
    held = np.zeros(m_eq + m_in, bool)
    y = np.zeros(m_eq + m_in)
    x = x_u
    row_l1 = np.abs(rows).sum(axis=1)
    max_iter = 50 * (qp.n + m_in) + 10
    iterations = 0

    def add(p):
        """Move row ``p`` onto its target, dropping each held row whose
        multiplier would change sign on the way; hold ``p`` at the end."""
        nonlocal x, iterations
        while True:
            iterations += 1
            if iterations > max_iter:
                raise IterationLimit(
                    f"active-set loop exceeded {max_iter} iterations")
            idx = np.flatnonzero(held)
            # moving p's multiplier by dy moves the held ones by -r dy, x by
            # -z dy and row p by -sigma dy; sigma is 0 when p depends on the
            # held rows, and then only the multipliers move
            r = np.linalg.solve(gram[np.ix_(idx, idx)], gram[idx, p])
            z = hinv_rt[:, p] - hinv_rt[:, idx] @ r
            # sigma = z' H z, from p's residual against the held rows: the
            # form gram[p, p] - gram[p, idx] r cancels to noise well above
            # the test below when the held rows are badly conditioned
            sigma = z @ (rows[p] - r @ rows[idx])
            gap = rows[p] @ x - target[p]
            dependent = sigma <= 1e-10 * gram[p, p]
            if dependent and pinned[p]:
                if abs(gap) <= _FEAS_RTOL * (1.0 + abs(target[p])
                                             + row_l1[p] * np.abs(x).max()):
                    return
                raise Infeasible("equality rows are inconsistent")
            direction = np.sign(gap)
            full = np.inf if dependent else abs(gap) / sigma
            # the partial steps at which a held multiplier reaches zero
            rate = side[idx] * r * direction
            blocks = rate > 0.0
            limit = np.full(idx.size, np.inf)
            limit[blocks] = np.maximum(side[idx] * y[idx], 0.0)[blocks] \
                / rate[blocks]
            step = min(full, limit.min(initial=np.inf))
            if step == np.inf:
                raise Infeasible("constraint set is empty")
            dy = direction * step
            if not dependent:
                x = x - z * dy
            y[idx] -= r * dy
            y[p] += dy
            if step == full:
                held[p] = True
                return
            drop = idx[np.argmin(limit)]  # the least index wins ties
            held[drop] = False
            y[drop] = 0.0

    # hold the pinned rows, then add the most violated free row (least
    # index on ties) until none is violated
    for p in np.flatnonzero(pinned):
        add(p)
    free = ~pinned[m_eq:]
    while m_in:
        cx = C @ x
        violation = np.where(free & ~held[m_eq:],
                             np.maximum(cx - up, lo - cx), 0.0)
        j = int(np.argmax(violation))
        if violation[j] <= 1e-12 * (1.0 + row_l1[m_eq + j] * np.abs(x).max()):
            break
        side[m_eq + j] = 1.0 if cx[j] > up[j] else -1.0
        target[m_eq + j] = up[j] if cx[j] > up[j] else lo[j]
        add(m_eq + j)

    # one Schur solve on the final held set, refined once against the rows
    # themselves, brings feasibility and stationarity back to the dense
    # solve's rounding level after the loop's many updates
    idx = np.flatnonzero(held)
    x, y = x_u, np.zeros(m_eq + m_in)
    schur = gram[np.ix_(idx, idx)]
    for _ in range(2):
        dy = np.linalg.solve(schur, rows[idx] @ x - target[idx])
        x = x - hinv_rt[:, idx] @ dy
        y[idx] += dy

    mu = y[m_eq:]
    # a held equal-bound row is reported at the side its multiplier pushes
    # from; a skipped one is free, so that the reported rows are independent
    upper = np.where(pinned[m_eq:], mu >= 0.0, side[m_eq:] > 0.0)
    sol = QpSolution(
        x=x, eq_duals=y[:m_eq],
        ineq_duals_lower=np.where(upper, 0.0, np.maximum(-mu, 0.0)),
        ineq_duals_upper=np.where(upper, np.maximum(mu, 0.0), 0.0),
        sides=np.where(held[m_eq:], np.where(upper, 1.0, -1.0), 0.0),
        iterations=iterations, residual=0.0)
    object.__setattr__(sol, "residual", kkt_residual(qp, sol))
    return sol


def kkt_residual(qp: QuadraticProgram, sol: QpSolution) -> float:
    """Worst violation of stationarity, feasibility, sign, or complementarity.

    Returns the unscaled infinity norm over all conditions; a valid solution
    of a well-scaled problem sits at or below ``1e-9 * (1 + data norms)``.
    """
    x = sol.x
    parts = []
    stat = qp.hessian * x + qp.linear
    if qp.eq_count:
        stat = stat + qp.eq_matrix.T @ sol.eq_duals
        parts.append(np.abs(qp.eq_matrix @ x - qp.eq_rhs).max())
    if qp.ineq_count:
        stat = stat + qp.ineq_matrix.T @ (sol.ineq_duals_upper - sol.ineq_duals_lower)
        cx = qp.ineq_matrix @ x
        viol_up = cx - qp.ineq_upper
        viol_lo = qp.ineq_lower - cx
        parts.append(max(np.max(viol_up[np.isfinite(qp.ineq_upper)], initial=0.0),
                         np.max(viol_lo[np.isfinite(qp.ineq_lower)], initial=0.0),
                         0.0))
        parts.append(max(np.max(-sol.ineq_duals_lower, initial=0.0),
                         np.max(-sol.ineq_duals_upper, initial=0.0), 0.0))
        up_gap = np.where(np.isfinite(qp.ineq_upper),
                          np.abs(qp.ineq_upper - cx), 0.0)
        lo_gap = np.where(np.isfinite(qp.ineq_lower),
                          np.abs(cx - qp.ineq_lower), 0.0)
        comp = np.concatenate([np.abs(sol.ineq_duals_upper) * up_gap,
                               np.abs(sol.ineq_duals_lower) * lo_gap])
        parts.append(np.max(comp, initial=0.0))
    parts.append(np.abs(stat).max(initial=0.0))
    return float(max(parts))

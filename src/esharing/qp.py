"""Dense strictly convex quadratic programming with exact dual recovery.

Solves

    min  0.5 x' H x + g' x
    s.t. A x = b                 (equality rows, duals ``nu``)
         lo <= C x <= up         (two-sided rows, duals ``mu_lo``/``mu_up``)

by a primal active-set method in range-space form.  H passes a Cholesky
test for positive definiteness, and H^-1 [A; C]' is formed once for all
rows (by division when H is diagonal, as in every package program), so
each working-set subproblem is the small Schur system on the working rows
alone, refined once against the rows themselves.  Multipliers come out
consistent with the stationarity condition

    H x + g + A' nu + C' (mu_up - mu_lo) = 0,      mu_lo, mu_up >= 0.

The method is deterministic: a least-index rule breaks ties both when a
blocking row is added and when a wrong-signed multiplier is dropped, so
identical inputs produce bit-identical outputs.

The loop starts cold from ``x0``, a feasible point with an empty working
set.  ``x0`` must satisfy every row to :func:`feasibility_tolerance`, or
the solve raises ``ValueError``.  Only when no ``x0`` is given is a
feasible point found with one linear-programming call (:func:`linprog`,
the phase 1).  The package's programs hot-start elsewhere, in
:func:`esharing.market._solve_program`, and reach this solver only as the
mesh fallback, from their no-trade point.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    Infeasible,
    IterationLimit,
    NotPositiveDefinite,
)

_FEAS_RTOL = 1e-9


def _as_array(a, shape_hint=None):
    if a is None:
        return np.zeros(shape_hint if shape_hint is not None else (0,))
    return np.array(a, dtype=float)


@dataclass(frozen=True, eq=False)
class QuadraticProgram:
    """Immutable problem data.  Missing blocks default to empty.

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
        H = _as_array(self.hessian)
        g = _as_array(self.linear)
        n = g.shape[0] if g.ndim == 1 else -1
        if H.shape != (n, n) or n < 0:
            raise DimensionMismatch(
                f"hessian shape {H.shape} incompatible with linear shape {g.shape}"
            )
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
        scale = 1.0 + (np.abs(H).max() if H.size else 0.0)
        if H.size and np.abs(H - H.T).max() > 1e-12 * scale:
            raise NotPositiveDefinite("hessian is not symmetric")
        if np.any(lo > up):
            raise Infeasible("a row has ineq_lower > ineq_upper")
        for name, arr in (("hessian", H), ("linear", g), ("eq_matrix", A),
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

    ``active_set`` lists the inequality rows at a bound at the solution as
    ``(row, side)`` pairs with side ``'lower'`` or ``'upper'``, sorted by row.
    """

    x: np.ndarray
    eq_duals: np.ndarray
    ineq_duals_lower: np.ndarray
    ineq_duals_upper: np.ndarray
    active_set: tuple
    iterations: int
    residual: float = field(default=0.0)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use: no package program
    reaches the phase 1, so importing the package does not load scipy."""
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


def _phase1(qp: QuadraticProgram) -> np.ndarray:
    """Any feasible point, via one LP solve.  Raises Infeasible if none."""
    n = qp.n
    if qp.ineq_count == 0:
        if qp.eq_count == 0:
            return np.zeros(n)
        x, *_ = np.linalg.lstsq(qp.eq_matrix, qp.eq_rhs, rcond=None)
        resid = qp.eq_matrix @ x - qp.eq_rhs
        if np.abs(resid).max(initial=0.0) > _FEAS_RTOL * (
                1.0 + np.abs(qp.eq_rhs).max(initial=0.0)):
            raise Infeasible("equality constraints are inconsistent")
        return x
    rows_ub = []
    rhs_ub = []
    for j in range(qp.ineq_count):
        if np.isfinite(qp.ineq_upper[j]):
            rows_ub.append(qp.ineq_matrix[j])
            rhs_ub.append(qp.ineq_upper[j])
        if np.isfinite(qp.ineq_lower[j]):
            rows_ub.append(-qp.ineq_matrix[j])
            rhs_ub.append(-qp.ineq_lower[j])
    kwargs = {}
    if qp.eq_count:
        kwargs["A_eq"] = qp.eq_matrix
        kwargs["b_eq"] = qp.eq_rhs
    if rows_ub:
        kwargs["A_ub"] = np.asarray(rows_ub)
        kwargs["b_ub"] = np.asarray(rhs_ub)
    res = linprog(c=np.zeros(n), bounds=[(None, None)] * n, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-9},
                  **kwargs)
    if res.status == 2:
        raise Infeasible("constraint set is empty")
    if res.status != 0:
        raise IterationLimit(f"feasibility solve failed with status {res.status}")
    return np.asarray(res.x, dtype=float)


def _violation(qp: QuadraticProgram, x: np.ndarray) -> float:
    """Largest violation of any constraint row at ``x``; NaN if ``x`` has NaN."""
    parts = [np.abs(qp.eq_matrix @ x - qp.eq_rhs)]
    if qp.ineq_count:
        cx = qp.ineq_matrix @ x
        parts += [cx - qp.ineq_upper, qp.ineq_lower - cx]
    return float(np.max(np.concatenate(parts), initial=0.0))


def solve_qp(qp: QuadraticProgram, x0=None) -> QpSolution:
    """Solve to stationarity/feasibility residuals at the 1e-9 (scaled) level.

    ``x0`` is a feasible start point; without one, a phase-1 linear program
    finds one.

    Raises
    ------
    DimensionMismatch
        If ``x0`` has the wrong shape.
    ValueError
        If ``x0`` violates a constraint by more than
        :func:`feasibility_tolerance`.
    Infeasible
        If the constraint set is empty.
    NotPositiveDefinite
        If the hessian fails a Cholesky test.
    IterationLimit
        If the active-set loop exceeds ``50 * (n + ineq_count)`` changes.
    """
    n = qp.n
    if n == 0:
        feas_scale = 1.0 + np.abs(qp.eq_rhs).max(initial=0.0)
        if qp.eq_count and np.abs(qp.eq_rhs).max() > _FEAS_RTOL * feas_scale:
            raise Infeasible("zero-variable program with nonzero equality rhs")
        if qp.ineq_count and (np.any(qp.ineq_lower > 0) or np.any(qp.ineq_upper < 0)):
            raise Infeasible("zero-variable program with infeasible rows")
        empty = np.zeros(0)
        return QpSolution(x=empty, eq_duals=np.zeros(qp.eq_count),
                          ineq_duals_lower=np.zeros(qp.ineq_count),
                          ineq_duals_upper=np.zeros(qp.ineq_count),
                          active_set=(), iterations=0, residual=0.0)
    try:
        np.linalg.cholesky(qp.hessian)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("hessian is not positive definite") from exc

    g = qp.linear
    C, lo, up = qp.ineq_matrix, qp.ineq_lower, qp.ineq_upper
    m_eq, m_in = qp.eq_count, qp.ineq_count
    # range space of every row at once: the working-set subproblem
    #   min 0.5 x'Hx + g'x  s.t.  R x = t   (R: some rows of [A; C])
    # has x = x_u - H^-1 R' y with (R H^-1 R') y = R x_u - t, x_u = -H^-1 g
    rows = np.vstack([qp.eq_matrix, C])
    rhs = np.column_stack([g, rows.T])
    h = np.diagonal(qp.hessian)
    if np.array_equal(qp.hessian, np.diag(h)):  # every package program
        solved = rhs / h[:, None]
    else:
        # numpy has no triangular solve: one LU solve of H costs less than
        # two general solves with the Cholesky factor
        solved = np.linalg.solve(qp.hessian, rhs)
    x_u = -solved[:, 0]
    hinv_rt = solved[:, 1:]
    gram = rows @ hinv_rt

    # rows with equal bounds are equalities in disguise: pin them permanently
    fixed = np.flatnonzero(lo == up)
    free = lo != up
    pinned = np.concatenate([np.arange(m_eq), m_eq + fixed])
    pinned_rhs = np.concatenate([qp.eq_rhs, lo[fixed]])
    dual_tol = 1e-10 * (1.0 + np.abs(g).max(initial=0.0))

    def minimize_on(working):
        """Minimizer and multipliers with the working rows held at their bounds."""
        idx = np.concatenate([pinned, [m_eq + r for r, _ in working]]).astype(int)
        x, y = x_u, np.zeros(idx.size)
        if idx.size == 0:
            return x, y
        target = np.concatenate(
            [pinned_rhs, [up[r] if s > 0 else lo[r] for r, s in working]])
        schur = gram[np.ix_(idx, idx)]
        # the second pass is one step of iterative refinement against the
        # rows themselves, which keeps feasibility at the dense KKT
        # solve's rounding level on badly scaled rows
        for _ in range(2):
            residual = rows[idx] @ x - target
            try:
                dy = np.linalg.solve(schur, residual)
            except np.linalg.LinAlgError:
                dy, *_ = np.linalg.lstsq(schur, residual, rcond=None)
            x, y = x - hinv_rt[:, idx] @ dy, y + dy
        return x, y

    def wrong_signed(working, duals):
        """Positions in ``working`` whose multiplier has the wrong sign."""
        sides = np.array([s for _, s in working], dtype=float)
        return np.flatnonzero(sides * duals[pinned.size:] < -dual_tol)

    if x0 is None:
        x = _phase1(qp)
    else:
        x = np.array(x0, dtype=float)
        if x.shape != (n,):
            raise DimensionMismatch(f"x0 has shape {x.shape}, expected ({n},)")
        if not _violation(qp, x) <= feasibility_tolerance(qp):
            raise ValueError("x0 is not a feasible point of the program")
    working: list[tuple[int, int]] = []  # (row, side) with side -1=lower, +1=upper
    iterations = 0
    row_l1 = np.abs(C).sum(axis=1)
    max_iter = 50 * (n + m_in) + 10
    for _ in range(max_iter):
        iterations += 1
        x_star, duals = minimize_on(working)
        d = x_star - x
        if np.abs(d).max() > 1e-13 * (1.0 + np.abs(x).max()):
            # largest step along d that keeps the rows outside the set
            # feasible; the least index wins ties
            cd = C @ d
            cx = C @ x
            thresh = 1e-14 * (1.0 + row_l1 * np.abs(d).max())
            candidate = free.copy()
            candidate[[r for r, _ in working]] = False
            hits_up = candidate & (cd > thresh) & np.isfinite(up)
            hits_lo = candidate & (cd < -thresh) & np.isfinite(lo)
            limit = np.full(m_in, np.inf)
            limit[hits_up] = (up[hits_up] - cx[hits_up]) / cd[hits_up]
            limit[hits_lo] = (lo[hits_lo] - cx[hits_lo]) / cd[hits_lo]
            np.maximum(limit, 0.0, out=limit)
            j = int(np.argmin(limit)) if m_in else 0
            if m_in and limit[j] < 1.0:
                x = x + limit[j] * d
                working.append((j, 1 if hits_up[j] else -1))
                working.sort()
                continue
            x = x_star
        # x minimizes on the working set: least-index drop of a
        # wrong-signed multiplier, else optimal
        drop = wrong_signed(working, duals)
        if not drop.size:
            break
        del working[drop[0]]
    else:
        raise IterationLimit(f"active-set loop exceeded {max_iter} iterations")

    nu = duals[:m_eq]
    mu_fixed = duals[m_eq:pinned.size]
    mu_w = duals[pinned.size:]
    mu_lower = np.zeros(m_in)
    mu_upper = np.zeros(m_in)
    for k, j in enumerate(fixed):
        if mu_fixed[k] >= 0.0:
            mu_upper[j] = mu_fixed[k]
        else:
            mu_lower[j] = -mu_fixed[k]
    for k, (r, s) in enumerate(working):
        if s > 0:
            mu_upper[r] = max(mu_w[k], 0.0)
        else:
            mu_lower[r] = max(-mu_w[k], 0.0)
    active_set = sorted(
        [(r, "upper" if s > 0 else "lower") for r, s in working]
        + [(int(j), "upper" if mu_fixed[k] >= 0 else "lower")
           for k, j in enumerate(fixed)]
    )
    sol = QpSolution(x=x, eq_duals=nu, ineq_duals_lower=mu_lower,
                     ineq_duals_upper=mu_upper, active_set=tuple(active_set),
                     iterations=iterations, residual=0.0)
    object.__setattr__(sol, "residual", kkt_residual(qp, sol))
    return sol


def kkt_residual(qp: QuadraticProgram, sol: QpSolution) -> float:
    """Worst violation of stationarity, feasibility, sign, or complementarity.

    Returns the unscaled infinity norm over all conditions; a valid solution
    of a well-scaled problem sits at or below ``1e-9 * (1 + data norms)``.
    """
    x = sol.x
    if qp.n == 0:
        return 0.0
    parts = []
    stat = qp.hessian @ x + qp.linear
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


def feasibility_tolerance(qp: QuadraticProgram) -> float:
    """Scaled feasibility tolerance used by the solution contract."""
    rhs_scale = max(np.abs(qp.eq_rhs).max(initial=0.0),
                    np.abs(qp.ineq_lower[np.isfinite(qp.ineq_lower)]).max(initial=0.0)
                    if qp.ineq_count else 0.0,
                    np.abs(qp.ineq_upper[np.isfinite(qp.ineq_upper)]).max(initial=0.0)
                    if qp.ineq_count else 0.0)
    return _FEAS_RTOL * (1.0 + rhs_scale)


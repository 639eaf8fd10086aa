import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from esharing import brlab, equilibrium
from esharing import qp as qp_module
from esharing.bidding import run_bidding
from esharing.errors import DimensionMismatch, Infeasible, NotPositiveDefinite
from esharing.market import clear_market
from esharing.qp import (QuadraticProgram, feasibility_tolerance, kkt_residual,
                         solve_qp)
from esharing.scenario_io import gen_scenario


def box_qp(hessian, linear, lower, upper, eq=None, rhs=None):
    n = len(linear)
    return QuadraticProgram(
        hessian=np.asarray(hessian, float),
        linear=np.asarray(linear, float),
        eq_matrix=None if eq is None else np.atleast_2d(eq),
        eq_rhs=None if rhs is None else np.atleast_1d(rhs),
        ineq_matrix=np.eye(n),
        ineq_lower=np.asarray(lower, float),
        ineq_upper=np.asarray(upper, float),
    )


def test_sum_constrained_box_with_binding_upper():
    # minimize x1^2 + x2^2 subject to x1 + x2 = 4.11 and 0.55 <= x1 <= 1.55
    qp = QuadraticProgram(
        hessian=2.0 * np.eye(2),
        linear=np.zeros(2),
        eq_matrix=np.ones((1, 2)),
        eq_rhs=np.array([4.11]),
        ineq_matrix=np.array([[1.0, 0.0]]),
        ineq_lower=np.array([0.55]),
        ineq_upper=np.array([1.55]),
    )
    sol = solve_qp(qp)
    assert sol.x == pytest.approx([1.55, 2.56], abs=1e-10)
    assert sol.eq_duals == pytest.approx([-5.12], abs=1e-10)
    assert sol.ineq_duals_upper == pytest.approx([2.02], abs=1e-10)
    assert sol.ineq_duals_lower == pytest.approx([0.0])
    assert sol.residual <= 1e-9 * 6.0


def test_unconstrained_interior():
    qp = box_qp(np.diag([2.0, 4.0]), [-2.0, -8.0],
                [-10.0, -10.0], [10.0, 10.0])
    sol = solve_qp(qp)
    assert sol.x == pytest.approx([1.0, 2.0])
    assert sol.active_set == ()


def test_equality_only():
    qp = QuadraticProgram(hessian=2.0 * np.eye(3), linear=np.zeros(3),
                          eq_matrix=np.ones((1, 3)), eq_rhs=np.array([6.0]))
    sol = solve_qp(qp)
    assert sol.x == pytest.approx([2.0, 2.0, 2.0])
    assert sol.eq_duals == pytest.approx([-4.0])


def test_equal_bounds_are_pinned():
    qp = box_qp(2.0 * np.eye(2), [0.0, 0.0], [3.0, -1.0], [3.0, 1.0])
    sol = solve_qp(qp)
    assert sol.x == pytest.approx([3.0, 0.0])
    rows = {row for row, _ in sol.active_set}
    assert 0 in rows


def test_redundant_duplicate_rows_do_not_cycle():
    # the same face described three times must not confuse the pivoting
    qp = QuadraticProgram(
        hessian=2.0 * np.eye(2),
        linear=np.array([-10.0, -10.0]),
        ineq_matrix=np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]),
        ineq_lower=np.array([-np.inf, -np.inf, -np.inf]),
        ineq_upper=np.array([2.0, 2.0, 4.0]),
    )
    sol = solve_qp(qp)
    assert sol.x == pytest.approx([1.0, 1.0])
    assert kkt_residual(qp, sol) <= 1e-8


def test_infeasible_box_raises():
    qp = box_qp(np.eye(2), [0.0, 0.0], [1.0, 0.0], [1.0, 0.0],
                eq=np.ones((1, 2)), rhs=[5.0])
    with pytest.raises(Infeasible):
        solve_qp(qp)


def test_crossed_bounds_rejected_at_construction():
    with pytest.raises(Infeasible):
        box_qp(np.eye(1), [0.0], [2.0], [1.0])


def test_inconsistent_equalities_raise():
    qp = QuadraticProgram(hessian=2.0 * np.eye(2), linear=np.zeros(2),
                          eq_matrix=np.array([[1.0, 1.0], [1.0, 1.0]]),
                          eq_rhs=np.array([1.0, 2.0]))
    with pytest.raises(Infeasible):
        solve_qp(qp)


def test_consistent_redundant_equalities_ok():
    qp = QuadraticProgram(hessian=2.0 * np.eye(2), linear=np.zeros(2),
                          eq_matrix=np.array([[1.0, 1.0], [2.0, 2.0]]),
                          eq_rhs=np.array([2.0, 4.0]))
    sol = solve_qp(qp)
    assert sol.x == pytest.approx([1.0, 1.0])


def test_indefinite_hessian_rejected():
    with pytest.raises(NotPositiveDefinite):
        solve_qp(box_qp(-np.eye(2), [0.0, 0.0], [-1.0, -1.0], [1.0, 1.0]))


def test_asymmetric_hessian_rejected():
    with pytest.raises(NotPositiveDefinite):
        QuadraticProgram(hessian=np.array([[1.0, 0.5], [0.0, 1.0]]),
                         linear=np.zeros(2))


def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        QuadraticProgram(hessian=np.eye(2), linear=np.zeros(3))


def test_zero_dimensional_program():
    qp = QuadraticProgram(hessian=np.zeros((0, 0)), linear=np.zeros(0))
    sol = solve_qp(qp)
    assert sol.x.shape == (0,)
    assert sol.residual == 0.0


def test_determinism_bit_identical():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((4, 4))
    qp = box_qp(m @ m.T + 4.0 * np.eye(4), rng.standard_normal(4),
                -np.ones(4), np.ones(4), eq=np.ones((1, 4)), rhs=[0.5])
    a = solve_qp(qp)
    b = solve_qp(qp)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.active_set == b.active_set
    assert a.iterations == b.iterations


def test_kkt_residual_flags_perturbed_solution():
    qp = box_qp(2.0 * np.eye(2), [-2.0, -2.0], [0.0, 0.0], [10.0, 10.0])
    sol = solve_qp(qp)
    assert kkt_residual(qp, sol) <= 1e-9
    shifted = type(sol)(
        x=sol.x + 0.01, eq_duals=sol.eq_duals,
        ineq_duals_lower=sol.ineq_duals_lower,
        ineq_duals_upper=sol.ineq_duals_upper,
        active_set=sol.active_set, iterations=sol.iterations,
        residual=sol.residual)
    assert kkt_residual(qp, shifted) >= 1e-4


def grid_oracle(qp, points=241):
    """Brute-force minimum of a 2-variable box program on a dense grid."""
    xs = np.linspace(qp.ineq_lower[0], qp.ineq_upper[0], points)
    ys = np.linspace(qp.ineq_lower[1], qp.ineq_upper[1], points)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    vals = 0.5 * np.einsum("ni,ij,nj->n", pts, qp.hessian, pts) \
        + pts @ qp.linear
    return vals.min()


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_matches_grid_oracle_on_random_boxes(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((2, 2))
    h = m @ m.T + np.eye(2)
    g = rng.uniform(-3.0, 3.0, 2)
    lo = rng.uniform(-2.0, 0.0, 2)
    up = lo + rng.uniform(0.5, 3.0, 2)
    qp = box_qp(h, g, lo, up)
    sol = solve_qp(qp)
    val = 0.5 * sol.x @ h @ sol.x + g @ sol.x
    assert val <= grid_oracle(qp) + 1e-3
    assert kkt_residual(qp, sol) <= 1e-8


@given(st.integers(0, 10 ** 6), st.integers(2, 7))
@settings(max_examples=60)
def test_random_qps_satisfy_kkt_and_scipy_agrees(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    h = m @ m.T + np.eye(n)
    g = rng.uniform(-2.0, 2.0, n)
    lo = rng.uniform(-3.0, -0.5, n)
    up = rng.uniform(0.5, 3.0, n)
    eq = rng.standard_normal((1, n))
    rhs = np.array([float(rng.uniform(-0.5, 0.5))])
    qp = QuadraticProgram(hessian=h, linear=g, eq_matrix=eq, eq_rhs=rhs,
                          ineq_matrix=np.eye(n), ineq_lower=lo, ineq_upper=up)
    try:
        sol = solve_qp(qp)
    except Infeasible:
        return
    assert kkt_residual(qp, sol) <= 1e-7 * (1.0 + np.abs(g).max())
    assert sol.ineq_duals_lower.min(initial=0.0) >= 0.0
    assert sol.ineq_duals_upper.min(initial=0.0) >= 0.0
    ref = optimize.minimize(
        lambda x: 0.5 * x @ h @ x + g @ x,
        jac=lambda x: h @ x + g,
        x0=np.clip(np.zeros(n), lo, up),
        bounds=optimize.Bounds(lo, up),
        constraints=[optimize.LinearConstraint(eq, rhs, rhs)],
        method="SLSQP",
        options={"ftol": 1e-12, "maxiter": 300},
    )
    if ref.success:
        ours = 0.5 * sol.x @ h @ sol.x + g @ sol.x
        assert ours <= ref.fun + 1e-6


def random_feasible_qp(rng, n):
    """Dense-H program with general rows, feasible at a known point ``x0``."""
    m = rng.standard_normal((n, n))
    h = m @ m.T + np.eye(n)
    x0 = rng.uniform(-1.0, 1.0, n)
    rows = rng.standard_normal((int(rng.integers(1, n + 3)), n))
    lo = rows @ x0 - rng.uniform(0.0, 1.0, rows.shape[0])
    up = rows @ x0 + rng.uniform(0.0, 1.0, rows.shape[0])
    lo[rng.random(rows.shape[0]) < 0.2] = -np.inf
    eq = rng.standard_normal((1, n))
    qp = QuadraticProgram(hessian=h, linear=rng.uniform(-3.0, 3.0, n),
                          eq_matrix=eq, eq_rhs=eq @ x0, ineq_matrix=rows,
                          ineq_lower=lo, ineq_upper=up)
    return qp, x0


def assert_same_solution(cold, warm):
    for a, b in ((cold.x, warm.x), (cold.eq_duals, warm.eq_duals),
                 (cold.ineq_duals_lower, warm.ineq_duals_lower),
                 (cold.ineq_duals_upper, warm.ineq_duals_upper)):
        assert np.abs(a - b).max(initial=0.0) <= 1e-9 * (1.0 + np.abs(a).max(initial=0.0))


@given(st.integers(0, 10 ** 6), st.integers(2, 7))
@settings(max_examples=100)
def test_warm_starts_match_the_cold_solve(seed, n):
    rng = np.random.default_rng(seed)
    qp, x0 = random_feasible_qp(rng, n)
    cold = solve_qp(qp)
    rows = rng.choice(qp.ineq_count, int(rng.integers(0, qp.ineq_count + 1)),
                      replace=False)
    random_guess = [(int(r), "upper" if rng.random() < 0.5 else "lower")
                    for r in rows]
    right_guess = solve_qp(qp, x0=x0, active=cold.active_set)
    for warm in (solve_qp(qp, x0=x0), solve_qp(qp, x0=x0, active=random_guess),
                 right_guess):
        assert kkt_residual(qp, warm) <= 1e-8
        assert_same_solution(cold, warm)
    if cold.active_set:
        assert right_guess.iterations == 1


@given(st.integers(0, 10 ** 6), st.integers(2, 7))
@settings(max_examples=100)
def test_hot_starts_from_a_nearby_optimum(seed, n):
    # x0 and its active set come from the same rows with a perturbed
    # linear term, as the social optimum's start comes from the equilibrium
    rng = np.random.default_rng(seed)
    qp, _ = random_feasible_qp(rng, n)
    near = solve_qp(QuadraticProgram(
        hessian=qp.hessian, linear=qp.linear + 1e-3 * rng.standard_normal(n),
        eq_matrix=qp.eq_matrix, eq_rhs=qp.eq_rhs, ineq_matrix=qp.ineq_matrix,
        ineq_lower=qp.ineq_lower, ineq_upper=qp.ineq_upper))
    x0, held = near.x, list(near.active_set)
    cold = solve_qp(qp, x0=x0)
    cx = qp.ineq_matrix @ x0
    slack = [(r, side) for r in range(qp.ineq_count)
             for side, bound in (("lower", qp.ineq_lower[r]),
                                 ("upper", qp.ineq_upper[r]))
             if np.isfinite(bound)
             and abs(cx[r] - bound) > feasibility_tolerance(qp)]
    guesses = [held, [p for p in held if rng.random() < 0.5]]
    if slack:
        guesses.append(held + [slack[rng.integers(len(slack))]])
    for guess in guesses:
        warm = solve_qp(qp, x0=x0, active=guess)
        assert kkt_residual(qp, warm) <= 1e-8
        assert_same_solution(cold, warm)
        # a guessed row that the optimum does not hold may cost one
        # iteration: its drop, or the guess solve that x0 cannot start from
        wrong = set(guess) - set(cold.active_set)
        assert warm.iterations <= cold.iterations + len(wrong)


def test_feasible_guess_with_a_wrong_signed_multiplier_is_kept():
    # min sum (x_i - t_i)^2 on [0, 1]^4, t = (2, 2, 2, 0.5): the optimum
    # holds rows 0-2 at 1; guessing row 3 at 1 too gives a feasible point
    # whose row-3 multiplier is negative
    t = np.array([2.0, 2.0, 2.0, 0.5])
    qp = box_qp(2.0 * np.eye(4), -2.0 * t, np.zeros(4), np.ones(4))
    cold = solve_qp(qp, x0=np.zeros(4))
    warm = solve_qp(qp, x0=np.zeros(4),
                    active=[(r, "upper") for r in range(4)])
    assert warm.x == pytest.approx([1.0, 1.0, 1.0, 0.5], abs=1e-12)
    assert warm.active_set == cold.active_set == ((0, "upper"), (1, "upper"),
                                                  (2, "upper"))
    # the guess point's step drops row 3 and the next reaches the optimum;
    # a cold restart would add rows 0-2 one at a time after the guess's solve
    assert cold.iterations == 4
    assert warm.iterations == 2


def test_infeasible_start_is_refused():
    qp = box_qp(2.0 * np.eye(2), [0.0, 0.0], [-1.0, -1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        solve_qp(qp, x0=[1.5, 0.0])
    with pytest.raises(DimensionMismatch):
        solve_qp(qp, x0=[0.0, 0.0, 0.0])


def test_package_programs_never_reach_the_phase1_lp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("phase-1 linear program called")

    monkeypatch.setattr(qp_module, "linprog", refuse)
    tight = gen_scenario(7, 38, "tight")
    eqm = equilibrium.improved_gne(tight)
    assert eqm.clearing.active_set  # the re-clearing ran the solver
    equilibrium.poa(tight)
    assert clear_market(tight, 1.1 * eqm.b_bar).active_set
    run_bidding(tight)
    eight = gen_scenario(1, 8, "tight")
    b_bar = equilibrium.improved_gne(eight).b_bar
    brlab.best_response(eight, 0, b_bar[1:],
                        scan_config=brlab.ScanConfig(coarse_points=201,
                                                     refine_rounds=1))

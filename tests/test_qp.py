import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from esharing.errors import DimensionMismatch, Infeasible, NotPositiveDefinite
from esharing.qp import QuadraticProgram, kkt_residual, solve_qp

MESH = str(Path(__file__).resolve().parents[1] / "scenarios"
           / "mesh38_chords.json")


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
        hessian=np.full(2, 2.0),
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
    qp = box_qp([2.0, 4.0], [-2.0, -8.0],
                [-10.0, -10.0], [10.0, 10.0])
    sol = solve_qp(qp)
    assert sol.x == pytest.approx([1.0, 2.0])
    assert not sol.sides.any()


def test_equality_only():
    qp = QuadraticProgram(hessian=np.full(3, 2.0), linear=np.zeros(3),
                          eq_matrix=np.ones((1, 3)), eq_rhs=np.array([6.0]))
    sol = solve_qp(qp)
    assert sol.x == pytest.approx([2.0, 2.0, 2.0])
    assert sol.eq_duals == pytest.approx([-4.0])


def test_equal_bounds_are_pinned():
    qp = box_qp([2.0, 2.0], [0.0, 0.0], [3.0, -1.0], [3.0, 1.0])
    sol = solve_qp(qp)
    assert sol.x == pytest.approx([3.0, 0.0])
    assert sol.sides[0] != 0.0


def test_redundant_duplicate_rows_do_not_cycle():
    # the same face described three times must not confuse the pivoting
    qp = QuadraticProgram(
        hessian=np.full(2, 2.0),
        linear=np.array([-10.0, -10.0]),
        ineq_matrix=np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]),
        ineq_lower=np.array([-np.inf, -np.inf, -np.inf]),
        ineq_upper=np.array([2.0, 2.0, 4.0]),
    )
    sol = solve_qp(qp)
    assert sol.x == pytest.approx([1.0, 1.0])
    assert kkt_residual(qp, sol) <= 1e-8


def test_a_dependent_equal_bound_row_is_reported_free():
    # row 1 pins the same face as row 0, so the solver holds row 0 and skips
    # row 1; the reported rows are the held ones, and stay independent
    qp = QuadraticProgram(
        hessian=np.full(2, 2.0),
        linear=np.array([-10.0, -2.0]),
        ineq_matrix=np.array([[1.0, 0.0], [2.0, 0.0]]),
        ineq_lower=np.array([1.0, 2.0]),
        ineq_upper=np.array([1.0, 2.0]),
    )
    sol = solve_qp(qp)
    assert sol.x == pytest.approx([1.0, 1.0])
    assert sol.sides.tolist() == [1.0, 0.0]
    assert sol.ineq_duals_upper[1] == sol.ineq_duals_lower[1] == 0.0
    assert sol.ineq_duals_upper[0] == pytest.approx(8.0)
    assert kkt_residual(qp, sol) <= 1e-8


def test_infeasible_box_raises():
    qp = box_qp([1.0, 1.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0],
                eq=np.ones((1, 2)), rhs=[5.0])
    with pytest.raises(Infeasible):
        solve_qp(qp)


def test_crossed_bounds_rejected_at_construction():
    with pytest.raises(Infeasible):
        box_qp([1.0], [0.0], [2.0], [1.0])


def test_inconsistent_equalities_raise():
    qp = QuadraticProgram(hessian=np.full(2, 2.0), linear=np.zeros(2),
                          eq_matrix=np.array([[1.0, 1.0], [1.0, 1.0]]),
                          eq_rhs=np.array([1.0, 2.0]))
    with pytest.raises(Infeasible):
        solve_qp(qp)


def test_consistent_redundant_equalities_ok():
    qp = QuadraticProgram(hessian=np.full(2, 2.0), linear=np.zeros(2),
                          eq_matrix=np.array([[1.0, 1.0], [2.0, 2.0]]),
                          eq_rhs=np.array([2.0, 4.0]))
    sol = solve_qp(qp)
    assert sol.x == pytest.approx([1.0, 1.0])


@pytest.mark.parametrize("entry", [0.0, -1.0, np.nan, np.inf])
def test_indefinite_hessian_rejected(entry):
    with pytest.raises(NotPositiveDefinite):
        box_qp([1.0, entry], [0.0, 0.0], [-1.0, -1.0], [1.0, 1.0])


def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        QuadraticProgram(hessian=np.ones(2), linear=np.zeros(3))
    with pytest.raises(DimensionMismatch):  # the Hessian is its diagonal
        QuadraticProgram(hessian=np.eye(2), linear=np.zeros(2))


@pytest.mark.parametrize("blocks", [
    {"eq_matrix": np.ones((1, 3)), "eq_rhs": np.zeros(1)},
    {"eq_matrix": np.ones((1, 2)), "eq_rhs": np.zeros(2)},
    {"eq_matrix": np.ones(2), "eq_rhs": np.zeros(1)},
    {"ineq_matrix": np.ones((2, 3)), "ineq_lower": np.zeros(2),
     "ineq_upper": np.ones(2)},
    {"ineq_matrix": np.ones((2, 2)), "ineq_lower": np.zeros(1),
     "ineq_upper": np.ones(2)},
    {"ineq_matrix": np.ones((2, 2)), "ineq_lower": np.zeros(2),
     "ineq_upper": np.ones(3)},
], ids=["eq-columns", "eq-rhs", "eq-vector", "ineq-columns", "ineq-lower",
        "ineq-upper"])
def test_inconsistent_block_shapes(blocks):
    with pytest.raises(DimensionMismatch):
        QuadraticProgram(hessian=np.ones(2), linear=np.zeros(2), **blocks)


def test_zero_dimensional_program():
    with pytest.raises(DimensionMismatch):
        QuadraticProgram(hessian=np.zeros(0), linear=np.zeros(0))


def test_determinism_bit_identical():
    rng = np.random.default_rng(11)
    qp = box_qp(rng.uniform(0.5, 4.0, 4), rng.standard_normal(4),
                -np.ones(4), np.ones(4), eq=rng.standard_normal((1, 4)),
                rhs=[0.5])
    a = solve_qp(qp)
    b = solve_qp(qp)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.sides.tobytes() == b.sides.tobytes()
    assert a.iterations == b.iterations


def test_kkt_residual_flags_perturbed_solution():
    qp = box_qp([2.0, 2.0], [-2.0, -2.0], [0.0, 0.0], [10.0, 10.0])
    sol = solve_qp(qp)
    assert kkt_residual(qp, sol) <= 1e-9
    shifted = type(sol)(
        x=sol.x + 0.01, eq_duals=sol.eq_duals,
        ineq_duals_lower=sol.ineq_duals_lower,
        ineq_duals_upper=sol.ineq_duals_upper,
        sides=sol.sides, iterations=sol.iterations,
        residual=sol.residual)
    assert kkt_residual(qp, shifted) >= 1e-4


def grid_oracle(qp, points=241):
    """Brute-force minimum of a 2-variable program on a dense grid over the
    box of its first two rows; grid points that break a later row are
    masked."""
    xs = np.linspace(qp.ineq_lower[0], qp.ineq_upper[0], points)
    ys = np.linspace(qp.ineq_lower[1], qp.ineq_upper[1], points)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    cx = pts @ qp.ineq_matrix[2:].T
    feasible = np.all((qp.ineq_lower[2:] <= cx) & (cx <= qp.ineq_upper[2:]),
                      axis=1)
    vals = 0.5 * (pts ** 2) @ qp.hessian + pts @ qp.linear
    return vals[feasible].min()


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_matches_grid_oracle_on_random_boxes(seed):
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.5, 3.0, 2)
    g = rng.uniform(-3.0, 3.0, 2)
    lo = rng.uniform(-2.0, 0.0, 2)
    up = lo + rng.uniform(0.5, 3.0, 2)
    # a general row through a point of the box couples the variables; its
    # slab is at least 0.1 wide, so it holds many grid points
    row = rng.standard_normal(2)
    centre = row @ rng.uniform(lo, up)
    half = np.linalg.norm(row) * rng.uniform(0.1, 1.0, 2)
    qp = QuadraticProgram(
        hessian=h, linear=g, ineq_matrix=np.vstack([np.eye(2), row]),
        ineq_lower=np.append(lo, centre - half[0]),
        ineq_upper=np.append(up, centre + half[1]))
    sol = solve_qp(qp)
    val = 0.5 * h @ sol.x ** 2 + g @ sol.x
    assert val <= grid_oracle(qp) + 1e-3
    assert kkt_residual(qp, sol) <= 1e-8


@given(st.integers(0, 10 ** 6), st.integers(2, 7), st.booleans())
@settings(max_examples=60)
def test_random_qps_satisfy_kkt_and_scipy_agrees(seed, n, dependent):
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.5, 3.0, n)
    g = rng.uniform(-2.0, 2.0, n)
    lo = rng.uniform(-3.0, -0.5, n)
    up = rng.uniform(0.5, 3.0, n)
    eq = rng.standard_normal((1, n))  # couples every variable
    rhs = np.array([float(rng.uniform(-0.5, 0.5))])
    rows = np.eye(n)
    constraints = [optimize.LinearConstraint(eq, rhs, rhs)]
    if dependent:
        # a box row again, a scaled box row and an equal-bound row, each
        # with bounds of its own, so that rows may depend on held ones and
        # the program may be infeasible.  Box row j is narrowed so that it
        # binds, and its scaled copy, a little narrower still but less
        # violated, then makes the solver release it
        i, j = rng.integers(n, size=2)
        lo[j], up[j] = 0.1 * lo[j], 0.1 * up[j]
        scale = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.5)
        rows = np.vstack([rows, rows[i], scale * rows[j],
                          rng.standard_normal(n)])
        twin = np.sort(rng.uniform(-3.0, 3.0, 2))
        scaled = np.sort(scale * rng.uniform(0.8, 1.0)
                         * np.array([lo[j], up[j]]))
        pinned = rng.uniform(-1.0, 1.0)
        lo = np.concatenate([lo, [twin[0], scaled[0], pinned]])
        up = np.concatenate([up, [twin[1], scaled[1], pinned]])
        # SLSQP takes the equal-bound row apart from the range rows
        constraints += [
            optimize.LinearConstraint(rows[n:-1], lo[n:-1], up[n:-1]),
            optimize.LinearConstraint(rows[-1:], lo[-1:], up[-1:])]
    qp = QuadraticProgram(hessian=h, linear=g, eq_matrix=eq, eq_rhs=rhs,
                          ineq_matrix=rows, ineq_lower=lo, ineq_upper=up)
    ref = optimize.minimize(
        lambda x: 0.5 * h @ x ** 2 + g @ x,
        jac=lambda x: h * x + g,
        x0=np.clip(np.zeros(n), lo[:n], up[:n]),
        bounds=optimize.Bounds(lo[:n], up[:n]),
        constraints=constraints,
        method="SLSQP",
        options={"ftol": 1e-12, "maxiter": 300},
    )
    try:
        sol = solve_qp(qp)
    except Infeasible:
        # SLSQP finds no feasible point either
        excess = max(np.abs(eq @ ref.x - rhs).max(),
                     np.max(rows @ ref.x - up), np.max(lo - rows @ ref.x))
        assert excess > 1e-6
        return
    assert kkt_residual(qp, sol) <= 1e-7 * (1.0 + np.abs(g).max())
    assert sol.ineq_duals_lower.min(initial=0.0) >= 0.0
    assert sol.ineq_duals_upper.min(initial=0.0) >= 0.0
    if ref.success:
        ours = 0.5 * h @ sol.x ** 2 + g @ sol.x
        assert ours <= ref.fun + 1e-6


def test_solver_and_mesh_fallback_need_no_scipy():
    # the dense solver runs on numpy alone, and so does the mesh fixture's
    # central program, which reaches the finish
    script = f"""
import sys
sys.modules["scipy"] = None
import numpy as np
from esharing import equilibrium, market
from esharing.qp import QuadraticProgram, solve_qp
from esharing.scenario_io import load_scenario

sol = solve_qp(QuadraticProgram(
    hessian=np.full(2, 2.0), linear=np.zeros(2),
    eq_matrix=np.ones((1, 2)), eq_rhs=np.array([4.11]),
    ineq_matrix=np.array([[1.0, 0.0]]),
    ineq_lower=np.array([0.55]), ineq_upper=np.array([1.55])))
assert np.abs(sol.x - [1.55, 2.56]).max() <= 1e-10
finished = []
def counted(*args, finish=market._finish):
    finished.append(args)
    return finish(*args)
market._finish = counted
eqm = equilibrium.improved_gne(load_scenario({MESH!r}))
assert finished and eqm.clearing_residual <= 1e-6
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

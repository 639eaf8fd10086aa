import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import limited_scenarios, random_tree, with_chords
from esharing import equilibrium, market
from esharing.network import LineSpec, build_network
from esharing.qp import QuadraticProgram, kkt_residual, solve_qp
from esharing.scenario_io import gen_scenario

FORMS = ("clearing", "proximal", "central", "social")


@st.composite
def tree_programs(draw):
    """A random tree with zero, finite and unlimited lines, any slack bus and
    random line directions, and one of the four package programs on it as
    ``(net, hess, linear, base, k)``, its curvature scaled over 1e+-2."""
    size = draw(st.integers(2, 24))
    form = draw(st.sampled_from(FORMS))
    return random_program(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                          size, form)


def random_program(rng, size, form):
    """The program ``tree_programs`` draws, on ``size`` buses."""
    label = rng.permutation(size) + 1
    lines = []
    for child in range(2, size + 1):
        ends = [int(label[rng.integers(child - 1)]), int(label[child - 1])]
        rng.shuffle(ends)
        limit = rng.choice([0.0, np.inf, *rng.uniform(0.05, 1.0, 4)])
        lines.append(LineSpec(*ends, float(rng.uniform(0.5, 2.0)), float(limit)))
    net = build_network(size, lines, slack=int(rng.integers(1, size + 1)))
    scale = 10.0 ** rng.uniform(-2.0, 2.0)
    if form in ("clearing", "proximal"):
        a = float(rng.uniform(0.5, 2.0)) * scale
        bids = rng.uniform(-2.0, 3.0, size)
        if form == "clearing":
            return net, np.full(size, 2.0), np.zeros(size), bids, a
        anchor = rng.uniform(-1.0, 2.0, size) / a
        return net, np.full(size, 4.0), -2.0 * anchor, bids, a
    c = rng.uniform(0.5, 2.0, size) * scale
    d = rng.uniform(0.0, 1.0, size) * scale
    D = rng.uniform(0.0, 2.0, size)
    if form == "social":
        return net, 2.0 * c, d, D, 1.0
    w = 1.0 / (float(rng.uniform(0.5, 2.0)) * (size - 1))
    return net, 2.0 * c + w, d - w * D, D, 1.0


@st.composite
def mesh_programs(draw):
    """One of the four package programs on a mesh drawn by
    ``limited_scenarios``: chords, a parallel twin, sometimes a zero limit."""
    scenario = draw(limited_scenarios(mesh=True))
    form = draw(st.sampled_from(FORMS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net, n, a = scenario.network, scenario.size, scenario.a
    if form in ("clearing", "proximal"):
        bids = rng.uniform(-2.0, 3.0, n)
        if form == "clearing":
            return net, np.full(n, 2.0), np.zeros(n), bids, a
        return net, np.full(n, 4.0), -2.0 * rng.uniform(-1.0, 2.0, n) / a, bids, a
    c, d, D = scenario.c, scenario.d, scenario.D
    if form == "social":
        return net, 2.0 * c, d, D, 1.0
    w = 1.0 / (a * (n - 1))
    return net, 2.0 * c + w, d - w * D, D, 1.0


def random_guess(net, seed):
    """About half of the lines, each at a random side, as a side vector."""
    rng = np.random.default_rng(seed)
    sides = np.zeros(net.line_count)
    for l in range(net.line_count):
        if rng.random() < 0.5:
            sides[l] = rng.choice([-1.0, 1.0])
    return sides


def solve(program, active=None):
    """The solution of ``_solve_program`` from the guess ``active``."""
    return market._solve_program(*program, active)[0]


def exact_pass_only(program, active):
    """``_solve_program`` with no exchange steps: a failed guess goes
    straight to the exact pass."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(market, "_EXCHANGE_STEPS", 0)
        return solve(program, active)


def oracle(net, hess, linear, base, k):
    """The program as a dense QP, and its active-set solution."""
    G = net.ptdf.T
    qp = QuadraticProgram(
        hessian=hess, linear=linear,
        eq_matrix=np.ones((1, net.bus_count)), eq_rhs=[base.sum() / k],
        ineq_matrix=-k * G, ineq_lower=-net.limits - G @ base,
        ineq_upper=net.limits - G @ base)
    return qp, solve_qp(qp)


def assert_same(sol, ref):
    def close(x, y):
        return np.abs(x - y).max() <= 1e-9 * np.abs(y).max() + 1e-12

    assert close(sol.x, ref.x)
    assert close(np.concatenate([sol.eq_duals, sol.ineq_duals_lower,
                                 sol.ineq_duals_upper]),
                 np.concatenate([ref.eq_duals, ref.ineq_duals_lower,
                                 ref.ineq_duals_upper]))


@settings(max_examples=300)
@given(tree_programs())
def test_tree_solver_matches_the_qp(program):
    qp, ref = oracle(*program)
    sol = solve(program)
    assert_same(sol, ref)
    assert kkt_residual(qp, sol) <= 1e-8
    assert sol.residual <= 1e-8


@settings(max_examples=150)
@given(tree_programs(), st.integers(0, 2**32 - 1))
def test_any_hot_start_gives_the_same_answer(program, seed):
    rng = np.random.default_rng(seed)
    _, ref = oracle(*program)
    right = ref.sides
    subset = right * (rng.random(right.size) < 0.5)
    spare = np.flatnonzero(right == 0.0)
    extra = right.copy()
    if spare.size:
        extra[rng.choice(spare)] = rng.choice([-1.0, 1.0])
    for guess in (right, subset, extra):
        assert_same(solve(program, guess), ref)
    assert solve(program, right).iterations == 1


@settings(max_examples=150)
@given(tree_programs(), st.integers(0, 2**32 - 1))
def test_the_exact_pass_alone_matches_the_qp(program, seed):
    qp, ref = oracle(*program)
    for active in (None, random_guess(program[0], seed)):
        sol = exact_pass_only(program, active)
        assert sol.iterations <= 2
        assert_same(sol, ref)
        assert kkt_residual(qp, sol) <= 1e-8


@settings(max_examples=150)
@given(tree_programs(), st.integers(0, 2**32 - 1))
def test_exchange_steps_hold_the_lines_the_exact_pass_holds(program, seed):
    for active in (None, random_guess(program[0], seed)):
        stepped = solve(program, active)
        exact = exact_pass_only(program, active)
        assert np.array_equal(stepped.sides, exact.sides)
        assert np.array_equal(stepped.x, exact.x)


def test_exchange_steps_that_cycle_fall_back_to_the_exact_pass(monkeypatch):
    # on this congested 40-bus tree the exchange steps from the empty guess
    # come back to a held set every 4 steps; the exact pass settles it
    program = random_program(np.random.default_rng(4441), 40, "social")
    components, exact_pass = market._tree_components, market._exact_pass
    held_sets, passes = [], []

    def recording(net, alpha, beta, held, target):
        held_sets.append(held.tobytes())
        return components(net, alpha, beta, held, target)

    def counting(*args):
        passes.append(args)
        return exact_pass(*args)

    monkeypatch.setattr(market, "_tree_components", recording)
    monkeypatch.setattr(market, "_exact_pass", counting)
    sol = solve(program)
    stepped = held_sets[:-1]  # the last solve is on the exact pass's set
    assert len(passes) == 1
    assert len(set(stepped)) < len(stepped) == market._EXCHANGE_STEPS + 1
    assert sol.iterations == market._EXCHANGE_STEPS + 2
    qp, ref = oracle(*program)
    assert_same(sol, ref)
    assert kkt_residual(qp, sol) <= 1e-8


@settings(max_examples=300)
@given(mesh_programs(), st.integers(0, 2**32 - 1))
def test_mesh_hot_starts_match_the_cold_qp(program, seed):
    qp, ref = oracle(*program)
    for active in (None, random_guess(program[0], seed)):
        sol = solve(program, active)
        assert_same(sol, ref)
        assert kkt_residual(qp, sol) <= 1e-8


def test_a_singular_held_set_falls_back_to_the_qp(monkeypatch):
    # line 0 has a zero limit and line 3 is its parallel twin, so their
    # flows are one row up to scale and rounding: holding the twin at its
    # limit leaves no solution, and the held solve must refuse the garbage
    # of the near-singular system at once
    lines = [LineSpec(1, 2, 1.0, 0.0), LineSpec(2, 3, 1.0, 0.5),
             LineSpec(1, 3, 1.0, 0.5), LineSpec(1, 2, 0.3, 0.4)]
    net = build_network(3, lines)
    program = net, np.full(3, 2.0), np.zeros(3), np.array([3.0, -1.0, 0.5]), 1.0
    qps = []

    def recording(*args, **kwargs):
        qps.append(solve_qp(*args, **kwargs))
        return qps[-1]

    monkeypatch.setattr(market, "solve_qp", recording)
    qp, ref = oracle(*program)
    sol = solve(program, np.array([0.0, 0.0, 0.0, 1.0]))
    assert len(qps) == 1
    assert sol.iterations == 1 + qps[0].iterations
    assert_same(sol, ref)
    assert kkt_residual(qp, sol) <= 1e-8


def test_topology_agrees_with_the_ptdf():
    rng = np.random.default_rng(5)
    for size in (2, 3, 9, 30):
        lines = random_tree(rng, size).lines
        net = build_network(size, lines, slack=int(rng.integers(1, size + 1)))
        topo = net.tree
        expected = np.zeros_like(net.ptdf)
        for l in topo.order:  # a bus below line l sees the lines above l too
            below = topo.child[l]
            expected[below] = expected[topo.parent[below]]
            expected[below, l] = topo.sign[l]
        assert topo.root == net.slack - 1
        assert topo.parent[topo.root] == topo.root
        assert np.abs(net.ptdf - expected).max() <= 1e-12


def test_meshes_have_no_tree_and_keep_the_qp(monkeypatch):
    scenario = with_chords(gen_scenario(3, 12, "tight"), 2)
    assert scenario.network.tree is None
    monkeypatch.setattr(market, "_tree_components", None)
    monkeypatch.setattr(market, "_exact_pass", None)
    equilibrium.improved_gne(scenario)



@pytest.mark.parametrize("change", ["alpha", "targets", "beta", "held"])
def test_a_kept_factor_serves_only_its_own_held_set(change):
    # after a solve of one held set, a solve that changes one input gives
    # the bytes of the same solve on a network that kept nothing
    net = gen_scenario(7, 38, "tight").network
    rng = np.random.default_rng(3)
    alpha, beta = rng.uniform(-50.0, 50.0, 38), rng.uniform(0.5, 2.0, 38)
    held = rng.random(37) < 0.3
    target = np.copysign(net.limits, rng.uniform(-1.0, 1.0, 37))
    market._held_solve(net, alpha, beta, held, target)
    if change == "alpha":
        alpha = alpha + 1.0
    elif change == "targets":
        target = -target
    elif change == "beta":
        beta = 2.0 * beta
    else:
        held = held.copy()
        held[np.flatnonzero(held)[0]] = False
    kept = market._held_solve(net, alpha, beta, held, target)
    alone = market._held_solve(dataclasses.replace(net), alpha, beta, held, target)
    for a, b in zip(kept, alone):
        assert a.tobytes() == b.tobytes()

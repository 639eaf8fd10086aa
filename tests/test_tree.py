import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import limited_scenarios, oracle, random_tree, with_chords
from esharing import cli, equilibrium, market, qp as dense, tree
from esharing.market import clear_market, clearing_slopes
from esharing.network import LineSpec, build_network
from esharing.qp import kkt_residual
from esharing.scenario_io import gen_scenario, load_scenario

MESH = str(Path(__file__).resolve().parents[1] / "scenarios" / "mesh38_chords.json")

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


def finish_only(program, active):
    """``_solve_program`` with no exchange steps: a failed guess goes
    straight to the finish."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(market, "_EXCHANGE_STEPS", 0)
        return solve(program, active)


def counting_finishes(monkeypatch):
    """Patch ``market._finish`` to record the held solves of each call."""
    finish, solves = market._finish, []

    def counting(*args):
        result = finish(*args)
        solves.append(result[3])
        return result

    monkeypatch.setattr(market, "_finish", counting)
    return solves


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
@given(st.one_of(tree_programs(), mesh_programs()), st.integers(0, 2**32 - 1))
def test_the_finish_alone_matches_the_qp(program, seed):
    # trees and meshes alike; the bound on the held solves is loose, and
    # far below the finish's cap of 50 (buses + lines) + 10 steps
    qp, ref = oracle(*program)
    net = program[0]
    for active in (None, random_guess(net, seed)):
        sol = finish_only(program, active)
        assert sol.iterations <= 2 + 2 * (net.bus_count + net.line_count)
        assert_same(sol, ref)
        assert kkt_residual(qp, sol) <= 1e-8
        assert sol.residual <= 1e-8


@settings(max_examples=150)
@given(tree_programs(), st.integers(0, 2**32 - 1))
def test_exchange_steps_hold_the_lines_the_finish_holds(program, seed):
    for active in (None, random_guess(program[0], seed)):
        stepped = solve(program, active)
        finished = finish_only(program, active)
        assert np.array_equal(stepped.sides, finished.sides)
        assert stepped.x.tobytes() == finished.x.tobytes()


def test_exchange_steps_that_cycle_fall_back_to_the_finish(monkeypatch):
    # on this congested 40-bus tree the exchange steps from the empty guess
    # come back to a held set every 4 steps; the finish settles it from the
    # last of them
    program = random_program(np.random.default_rng(4441), 40, "social")
    components = market._tree_components
    held_sets = []

    def recording(net, alpha, beta, held, target):
        held_sets.append(held.tobytes())
        return components(net, alpha, beta, held, target)

    monkeypatch.setattr(market, "_tree_components", recording)
    finishes = counting_finishes(monkeypatch)
    sol = solve(program)
    stepped = held_sets[:market._EXCHANGE_STEPS + 1]
    assert len(finishes) == 1
    assert len(set(stepped)) < len(stepped)
    assert sol.iterations == len(held_sets) == market._EXCHANGE_STEPS + 1 + finishes[0]
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
    # of the near-singular system at once; the program then falls back to
    # the finish, the dual active-set method on the held solve, from no lines
    finishes = counting_finishes(monkeypatch)
    program = singular_twins()
    qp, ref = oracle(*program)
    sol = solve(program, np.array([0.0, 0.0, 0.0, 1.0]))
    assert len(finishes) == 1
    assert sol.iterations == 1 + finishes[0]
    assert_same(sol, ref)
    assert kkt_residual(qp, sol) <= 1e-8


def singular_twins():
    """A 3-bus mesh whose zero-limit line 0 has a limited parallel twin,
    line 3, and the clearing program on it."""
    lines = [LineSpec(1, 2, 1.0, 0.0), LineSpec(2, 3, 1.0, 0.5),
             LineSpec(1, 3, 1.0, 0.5), LineSpec(1, 2, 0.3, 0.4)]
    net = build_network(3, lines)
    return net, np.full(3, 2.0), np.zeros(3), np.array([3.0, -1.0, 0.5]), 1.0


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


def test_a_mesh_factor_serves_any_targets_of_its_held_set(monkeypatch):
    # the Schur matrix reads only the held rows and the curvature, so the
    # slopes of a settled clearing, whose targets are zero, and that
    # clearing again build no factor
    scenario = with_chords(gen_scenario(7, 38, "tight"), 3)
    bids = equilibrium.improved_gne(scenario).b_bar
    out = clear_market(scenario, bids)
    out = clear_market(scenario, bids, out.sides)
    assert out.solution.iterations == 1 and out.sides.any()
    build, builds = market._mesh_factor, []

    def counting(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(market, "_mesh_factor", counting)
    assert clearing_slopes(scenario, 0, out.sides) is not None
    again = clear_market(scenario, bids, out.sides)
    assert builds == []
    assert again.prices.tobytes() == out.prices.tobytes()


def refuse_the_dense_qp(patch):
    """Make the dense solver raise, and check that no package module holds
    a name of it or of the fallbacks the finish replaced."""
    def refused(*args, **kwargs):
        raise AssertionError("a package program reached the dense QP")

    patch.setattr(dense, "solve_qp", refused)
    for module, name in ((market, "solve_qp"), (market, "_cold_qp"),
                         (tree, "_exact_pass")):
        assert not hasattr(module, name), name


@settings(max_examples=100)
@given(mesh_programs(), st.integers(0, 2**32 - 1), st.sampled_from([0, 8]))
def test_mesh_programs_reach_no_dense_qp(program, seed, steps):
    with pytest.MonkeyPatch.context() as patch:
        refuse_the_dense_qp(patch)
        patch.setattr(market, "_EXCHANGE_STEPS", steps)
        for active in (None, random_guess(program[0], seed)):
            assert solve(program, active).residual <= 1e-8


def test_no_package_program_reaches_the_dense_qp(monkeypatch):
    # the singular twins, a mesh whose first held set holds a cycle, and
    # the bundled mesh's equilibrium check all reach the finish
    b_bar = equilibrium.improved_gne(load_scenario(MESH)).b_bar
    refuse_the_dense_qp(monkeypatch)
    finishes = counting_finishes(monkeypatch)
    solve(singular_twins(), np.array([0.0, 0.0, 0.0, 1.0]))
    assert len(finishes) == 1
    scenario = with_chords(gen_scenario(7, 120, "tight"), 10)
    equilibrium.poa(scenario, equilibrium.improved_gne(scenario))
    assert len(finishes) > 1
    report, code = cli.run_command(
        ["brlab", MESH, "--verify", ",".join(map(repr, b_bar.tolist()))])
    assert code == 0 and report is not None
    assert len(finishes) > 2

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import with_chords
from esharing import cases, equilibrium, market
from esharing.errors import DegenerateBaseline, NonRadialWarning
from esharing.market import Scenario, clear_market, clearing_kkt_residual
from esharing.network import LineSpec, build_network
from esharing.scenario_io import gen_scenario


def test_social_optimum_congested(two_f10):
    so = equilibrium.social_optimum(two_f10)
    assert so.p_tilde == pytest.approx([110.0, 190.0], abs=1e-8)
    assert so.cost_per_prosumer == pytest.approx([82.5, 353.4], abs=1e-8)
    assert so.total_cost == pytest.approx(435.9, abs=1e-8)
    # locational marginals: 1.08 at bus 1, 3.00 at bus 2
    assert so.kappa == pytest.approx(-3.0, abs=1e-8)
    assert so.tau_upper == pytest.approx([1.92], abs=1e-8)
    assert so.tau_lower == pytest.approx([0.0])


def test_social_optimum_uncongested():
    scenario = cases.two_prosumer_line(200.0)
    so = equilibrium.social_optimum(scenario)
    assert so.p_tilde == pytest.approx([650.0 / 3.0, 250.0 / 3.0], abs=1e-7)
    assert -so.kappa == pytest.approx(1.72, abs=1e-8)
    assert so.tau_upper == pytest.approx([0.0])


def test_social_optimum_against_grid_search():
    scenario = cases.two_prosumer_line(200.0)
    so = equilibrium.social_optimum(scenario)
    total = 300.0
    p1 = np.linspace(0.0, total, 60001)
    p2 = total - p1
    vals = scenario.disutility(np.stack([p1, p2], axis=1)).sum(axis=1)
    assert so.total_cost <= vals.min() + 1e-6


def test_central_solution_fixtures(two_f5, two_f10):
    p5, kappa5, tau_lo5, tau_up5 = equilibrium.central_solution(two_f5)
    assert p5 == pytest.approx([105.0, 195.0], abs=1e-8)
    assert kappa5 == pytest.approx(-2.56, abs=1e-8)
    assert tau_up5 == pytest.approx([1.01], abs=1e-8)
    assert tau_lo5 == pytest.approx([0.0])
    p10, _, _, tau_up10 = equilibrium.central_solution(two_f10)
    assert p10 == pytest.approx([11950.0 / 109.0, 300.0 - 11950.0 / 109.0],
                                abs=1e-8)
    assert tau_up10 == pytest.approx([0.0], abs=1e-8)


def test_gne_congested_fixture(two_f5):
    eqm = equilibrium.improved_gne(two_f5)
    assert eqm.p_bar == pytest.approx([105.0, 195.0], abs=1e-8)
    assert eqm.b_bar == pytest.approx([10.5, 30.6], abs=1e-8)
    assert eqm.lambda_r == pytest.approx([1.55, 2.56], abs=1e-8)
    assert eqm.costs == pytest.approx([69.425, 381.35], abs=1e-8)
    assert eqm.net_payment == pytest.approx(5.05, abs=1e-8)
    assert eqm.clearing_residual <= 1e-6


def test_gne_uncongested_fixture(two_f10):
    eqm = equilibrium.improved_gne(two_f10)
    assert eqm.p_bar == pytest.approx([109.63302752293578, 190.36697247706422],
                                      abs=1e-8)
    assert eqm.b_bar == pytest.approx([10.777981651376147, 30.04403669724771],
                                      abs=1e-8)
    assert eqm.lambda_r == pytest.approx([2.041100917431193] * 2, abs=1e-8)
    assert eqm.total_disutility == pytest.approx(436.60579917515366, abs=1e-6)
    assert abs(eqm.net_payment) <= 1e-8  # nothing binds, platform nets zero


def test_reclearing_reproduces_regulated_prices(two_f5, two_f10, chain_f03):
    for scenario in (two_f5, two_f10, chain_f03):
        eqm = equilibrium.improved_gne(scenario)
        out = clear_market(scenario, eqm.b_bar)
        assert np.abs(out.prices - eqm.lambda_r).max() <= 1e-6
        assert eqm.clearing_residual <= 1e-6


def test_price_structure_identity(two_f5, two_f10):
    for scenario in (two_f5, two_f10):
        eqm = equilibrium.improved_gne(scenario)
        assert equilibrium.price_structure_residual(scenario, eqm) <= 1e-6


def test_net_payment_equals_congestion_rent(two_f5):
    eqm = equilibrium.improved_gne(two_f5)
    rent = equilibrium.congestion_rent(two_f5, eqm)
    assert eqm.net_payment == pytest.approx(rent, abs=1e-6)
    assert eqm.net_payment == pytest.approx(5.0 * 1.01, abs=1e-8)
    assert eqm.net_payment >= -1e-9


def test_gne_chain_fixture(chain_f03):
    eqm = equilibrium.improved_gne(chain_f03)
    assert eqm.p_bar == pytest.approx([11.0 / 15.0, 11.0 / 15.0, 8.0 / 15.0],
                                      abs=1e-9)
    assert eqm.b_bar == pytest.approx([1.6, 1.6, 0.8], abs=1e-9)
    assert eqm.lambda_r == pytest.approx([4.0 / 3.0] * 3, abs=1e-9)


def test_variational_equilibrium_closed_form(two_f10):
    ve = equilibrium.variational_equilibrium(two_f10)
    assert ve.prices == pytest.approx([0.11449541284403825, 3.967706422018349],
                                      abs=1e-8)
    assert ve.b_bar == pytest.approx([-8.488073394495418, 49.31009174311926],
                                     abs=1e-8)
    # demand identity at the shared production profile
    q = two_f10.D - ve.p_bar
    assert ve.prices == pytest.approx((ve.b_bar - q) / two_f10.a)


def test_variational_warns_off_trees(triangle_net):
    pros = cases.two_prosumer_line(5.0).prosumers
    scenario = Scenario(network=triangle_net,
                        prosumers=list(pros) + [pros[0]], a=10.0)
    with pytest.warns(NonRadialWarning):
        equilibrium.variational_equilibrium(scenario)


def test_price_taking_equilibrium(two_f10):
    pt = equilibrium.price_taking_equilibrium(two_f10)
    assert pt.p_tilde == pytest.approx([110.0, 190.0], abs=1e-8)
    assert pt.prices == pytest.approx([1.08, 3.0], abs=1e-8)
    assert pt.bids == pytest.approx([0.8, 40.0], abs=1e-8)
    # price takers face the locational marginals of the welfare problem
    so = equilibrium.social_optimum(two_f10)
    ptdf = two_f10.network.ptdf
    rebuilt = -so.kappa - ptdf @ so.tau_lower + ptdf @ so.tau_upper
    assert pt.prices == pytest.approx(rebuilt, abs=1e-8)


def test_self_sufficiency(two_f10):
    costs, total = equilibrium.self_sufficiency(two_f10)
    assert costs == pytest.approx([72.0, 384.0], abs=1e-12)
    assert total == pytest.approx(456.0, abs=1e-12)


def test_poa_fixture(two_f10):
    report = equilibrium.poa(two_f10)
    assert report["poa_value"] == pytest.approx(1.0016191768184302, abs=1e-9)
    assert report["upper_bound"] == pytest.approx(35.0 / 33.0, abs=1e-9)
    assert report["C1"] == pytest.approx(100.0)
    assert report["C2"] == pytest.approx(82.5)
    assert 1.0 - 1e-9 <= report["poa_value"] <= report["upper_bound"] + 1e-6


def test_poa_degenerate_baseline():
    net = cases.two_prosumer_line(5.0).network
    from esharing.market import Prosumer
    idle = [Prosumer(c=1.0, d=0.0, demand_reduction=0.0)] * 2
    scenario = Scenario(network=net, prosumers=idle, a=1.0)
    with pytest.raises(DegenerateBaseline):
        equilibrium.poa(scenario)


def test_poa_shrinks_with_market_size():
    from esharing.market import Prosumer
    from esharing.network import LineSpec, build_network

    types = [Prosumer(c=0.003, d=0.42, demand_reduction=100.0),
             Prosumer(c=0.006, d=0.72, demand_reduction=200.0)]
    values = []
    for size in (2, 4, 8):
        net = build_network(size, [LineSpec(i, i + 1)
                                   for i in range(1, size)])
        pros = [types[i % 2] for i in range(size)]
        scenario = Scenario(network=net, prosumers=pros, a=10.0)
        values.append(equilibrium.poa(scenario)["poa_value"])
    assert values[0] > values[1] > values[2] >= 1.0 - 1e-12


def test_objective_sandwich(two_f5, two_f10):
    for scenario in (two_f5, two_f10):
        eqm = equilibrium.improved_gne(scenario)
        so = equilibrium.social_optimum(scenario)
        slack = ((scenario.D - so.p_tilde) ** 2).sum() \
            / (2.0 * scenario.a * (scenario.size - 1))
        assert so.total_cost - 1e-9 <= eqm.total_disutility
        assert eqm.total_disutility <= so.total_cost + slack + 1e-9


def test_central_approaches_social_for_insensitive_demand():
    base = cases.two_prosumer_line(10.0)
    big_a = Scenario(network=base.network, prosumers=base.prosumers, a=1e6)
    p_bar, _, _, _ = equilibrium.central_solution(big_a)
    so = equilibrium.social_optimum(big_a)
    assert p_bar == pytest.approx(so.p_tilde, abs=1e-3)


def test_pareto_fixture(two_f5):
    eqm = equilibrium.improved_gne(two_f5)
    ok, margins = equilibrium.pareto_check(two_f5, eqm)
    assert ok.all()
    assert margins == pytest.approx([2.575, 2.65], abs=1e-8)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25)
def test_equilibrium_invariants_on_generated_scenarios(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 13))
    style = "tight" if seed % 2 else "default"
    scenario = gen_scenario(seed, size, style=style)
    eqm = equilibrium.improved_gne(scenario)
    assert eqm.clearing_residual <= 1e-6
    assert equilibrium.price_structure_residual(scenario, eqm) <= 1e-6
    rent = equilibrium.congestion_rent(scenario, eqm)
    assert eqm.net_payment == pytest.approx(rent, abs=1e-6)
    assert eqm.net_payment >= -1e-9
    ok, _ = equilibrium.pareto_check(scenario, eqm)
    assert ok.all()
    report = equilibrium.poa(scenario)
    assert report["poa_value"] >= 1.0 - 1e-9
    if report["upper_bound"] is not None:
        assert report["poa_value"] <= report["upper_bound"] + 1e-6


@pytest.mark.parametrize("size", [120, 200])
def test_poa_hot_starts_the_social_solve_from_the_equilibrium(size, monkeypatch):
    # a mesh, whose held-set solve is not the tree's
    scenario = with_chords(gen_scenario(7, size, "tight"), 3)
    eqm = equilibrium.improved_gne(scenario)
    solve, mesh_components = equilibrium._solve_program, market._mesh_components
    held_solves, solves = [], []

    def recording(*args):
        held = len(held_solves)
        result = solve(*args)
        solves.append((result[0], len(held_solves) - held))
        return result

    def counting(*args):
        held_solves.append(args)
        return mesh_components(*args)

    def no_finish(*args):
        raise AssertionError("a social solve reached the finish")

    monkeypatch.setattr(equilibrium, "_solve_program", recording)
    monkeypatch.setattr(market, "_mesh_components", counting)
    monkeypatch.setattr(market, "_finish", no_finish)
    report = equilibrium.poa(scenario, eqm)
    cold = equilibrium.social_optimum(scenario)
    (hot_solve, hot_held), (_, cold_held) = solves
    # a cold social solve takes 9 and 7 held solves here
    assert hot_held <= 3 < cold_held
    assert np.abs(hot_solve.x - cold.p_tilde).max() \
        <= 1e-12 * np.abs(cold.p_tilde).max()
    assert report["social_cost"] == pytest.approx(cold.total_cost, rel=1e-12, abs=0.0)
    assert report["poa_value"] == pytest.approx(
        eqm.total_disutility / cold.total_cost, rel=1e-12, abs=0.0)
    assert equilibrium.poa(scenario) == report


def test_uncongested_programs_on_a_mesh_build_no_qp(monkeypatch):
    meshed = with_chords(gen_scenario(3, 38, "tight"), 4)
    net = meshed.network
    # the same mesh with no limit on any line
    lines = [LineSpec(ln.from_bus, ln.to_bus, ln.weight) for ln in net.lines]
    scenario = Scenario(network=build_network(net.bus_count, lines, net.slack),
                        prosumers=meshed.prosumers, a=meshed.a)

    def no_finish(*args):
        raise AssertionError("an uncongested program reached the finish")

    monkeypatch.setattr(market, "_finish", no_finish)
    bids = np.random.default_rng(0).uniform(0.0, 50.0, scenario.size)
    out = clear_market(scenario, bids)
    assert clearing_kkt_residual(scenario, bids, out) <= 1e-8
    assert np.ptp(out.prices) == 0.0 and not out.sides.any()
    p_bar, kappa, tau_lo, tau_up = equilibrium.central_solution(scenario)
    w = 1.0 / (scenario.a * (scenario.size - 1))
    marginal = (2.0 * scenario.c + w) * p_bar + scenario.d - w * scenario.D
    assert np.abs(marginal + kappa).max() <= 1e-9 * abs(kappa)
    assert p_bar.sum() == pytest.approx(scenario.D.sum(), rel=1e-12)
    assert not tau_lo.any() and not tau_up.any()
    so = equilibrium.social_optimum(scenario)
    marginal = 2.0 * scenario.c * so.p_tilde + scenario.d
    assert np.abs(marginal + so.kappa).max() <= 1e-9 * abs(so.kappa)
    assert so.p_tilde.sum() == pytest.approx(scenario.D.sum(), rel=1e-12)
    assert equilibrium.poa(scenario)["poa_value"] >= 1.0


@pytest.mark.parametrize("size", [120, 200])
def test_poa_on_a_tree_takes_the_social_active_set_from_the_equilibrium(
        size, monkeypatch):
    scenario = gen_scenario(7, size, "tight")
    eqm = equilibrium.improved_gne(scenario)
    cold = equilibrium.social_optimum(scenario)

    def no_finish(*args):
        raise AssertionError("the equilibrium's binding lines were not optimal")

    monkeypatch.setattr(market, "_finish", no_finish)
    report = equilibrium.poa(scenario, eqm)
    assert report["social_cost"] == pytest.approx(cold.total_cost, rel=1e-12, abs=0.0)


def test_poa_is_not_below_one_by_rounding():
    # every line binds, so the equilibrium and social plans coincide in
    # exact arithmetic; the social cost is the lower of the two costs
    report = equilibrium.poa(gen_scenario(18, 5, "tight"))
    assert report["poa_value"] >= 1.0

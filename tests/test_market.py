import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import with_chords
from esharing.brlab import ScanConfig, verify_gne
from esharing.equilibrium import improved_gne
from esharing.errors import DimensionMismatch, TooFewProsumers
from esharing.market import (
    Prosumer,
    Scenario,
    clear_market,
    clearing_kkt_residual,
    cost_at,
    payment,
    prosumer_cost,
    regulated_price,
)
from esharing.network import line_flows
from esharing.qp import QuadraticProgram, solve_qp
from esharing.scenario_io import gen_scenario


GNE_BIDS_F5 = np.array([10.5, 30.6])


def test_zero_bids_clear_at_zero(two_f5):
    out = clear_market(two_f5, np.zeros(2))
    assert out.prices == pytest.approx([0.0, 0.0])
    assert out.quantities == pytest.approx([0.0, 0.0])
    assert out.flows == pytest.approx([0.0])


def test_uniform_price_when_uncongested(two_f10):
    bids = np.array([10.77798165, 30.04403670])
    out = clear_market(two_f10, bids)
    lam_u = bids.sum() / (two_f10.a * 2)
    assert out.prices == pytest.approx([lam_u, lam_u])
    assert out.alpha_lower == pytest.approx([0.0])
    assert out.alpha_upper == pytest.approx([0.0])


def test_congested_two_prosumer_clearing(two_f5):
    out = clear_market(two_f5, GNE_BIDS_F5)
    assert out.prices == pytest.approx([1.55, 2.56], abs=1e-9)
    assert out.quantities == pytest.approx([-5.0, 5.0], abs=1e-9)
    assert abs(out.flows[0]) == pytest.approx(5.0, abs=1e-9)
    # hand-derived stationarity duals for this fixture
    assert out.eta == pytest.approx(-0.512, abs=1e-9)
    assert out.alpha_upper == pytest.approx([0.202], abs=1e-9)
    assert out.alpha_lower == pytest.approx([0.0])
    assert clearing_kkt_residual(two_f5, GNE_BIDS_F5, out) <= 1e-8


def test_roles_are_endogenous(two_f5):
    out = clear_market(two_f5, GNE_BIDS_F5)
    assert out.quantities[0] < 0 < out.quantities[1]
    assert out.quantities.sum() == pytest.approx(0.0, abs=1e-9)


def test_three_bus_uniform_region(chain_f03):
    out = clear_market(chain_f03, np.array([1.6, 1.6, 0.8]))
    assert out.prices == pytest.approx([4.0 / 3.0] * 3)
    assert out.quantities == pytest.approx([4.0 / 15.0, 4.0 / 15.0,
                                            -8.0 / 15.0])


def clear_market_qform(scenario, bids):
    """Cross-check route: project the bids onto the balanced feasible set.

    Minimizes ``sum (q_i - b_i)^2`` over balanced flow-feasible quantities
    and maps back to prices via ``lam = (b - q) / a``.  Returns ``(lam, q)``.
    """
    b = np.asarray(bids, dtype=float)
    n, net = scenario.size, scenario.network
    qp = QuadraticProgram(hessian=2.0 * np.eye(n), linear=-2.0 * b,
                          eq_matrix=np.ones((1, n)), eq_rhs=np.zeros(1),
                          ineq_matrix=net.ptdf.T, ineq_lower=-net.limits,
                          ineq_upper=net.limits)
    q = solve_qp(qp).x
    return (b - q) / scenario.a, q


def test_qform_route_agrees(two_f5, chain_f027):
    for scenario, bids in ((two_f5, GNE_BIDS_F5),
                           (chain_f027, np.array([2.1, 1.1, 0.6]))):
        lam = clear_market(scenario, bids).prices
        alt_lam, alt_q = clear_market_qform(scenario, bids)
        assert alt_lam == pytest.approx(lam, abs=1e-8)
        assert alt_q.sum() == pytest.approx(0.0, abs=1e-9)


def random_case(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 9))
    scenario = gen_scenario(seed, size)
    spread = float(np.abs(scenario.D).max() + 1.0)
    bids = rng.uniform(-spread, spread, size)
    return scenario, bids


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_clearing_kkt_residual_small(seed):
    scenario, bids = random_case(seed)
    out = clear_market(scenario, bids)
    assert clearing_kkt_residual(scenario, bids, out) <= 1e-8
    assert out.quantities.sum() == pytest.approx(0.0, abs=1e-8)
    flows = line_flows(scenario.network, out.quantities)
    assert np.all(np.abs(flows) <= scenario.network.limits + 1e-8)


def test_clearing_kkt_residual_on_unlimited_lines_warns_nothing(chain_f027):
    bids = np.array([1.0, 3.6, 0.8])
    out = clear_market(chain_f027, bids)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert clearing_kkt_residual(chain_f027, bids, out) <= 1e-8


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40)
def test_demand_identity_and_price_balance(seed):
    scenario, bids = random_case(seed)
    out = clear_market(scenario, bids)
    assert out.quantities == pytest.approx(
        -scenario.a * out.prices + bids, abs=1e-8)
    assert out.prices.sum() == pytest.approx(bids.sum() / scenario.a,
                                             abs=1e-8)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40)
def test_equal_bids_clear_uniformly(seed):
    rng = np.random.default_rng(seed)
    scenario = gen_scenario(seed, int(rng.integers(2, 9)))
    bids = np.full(scenario.size, float(rng.uniform(-5.0, 5.0)))
    out = clear_market(scenario, bids)
    lam_u = bids.sum() / (scenario.a * scenario.size)
    assert out.prices == pytest.approx(np.full(scenario.size, lam_u))
    assert out.quantities == pytest.approx(np.zeros(scenario.size), abs=1e-9)


def congestion_pattern(scenario, bids):
    out = clear_market(scenario, bids)
    flows = out.flows
    limits = scenario.network.limits
    hi = np.flatnonzero(flows >= limits - 1e-6)
    lo = np.flatnonzero(flows <= -limits + 1e-6)
    return tuple(hi), tuple(lo), out


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40)
def test_own_bid_slope_bounded(seed):
    scenario, bids = random_case(seed)
    i = int(np.random.default_rng(seed + 1).integers(0, scenario.size))
    h = 1e-5 * (1.0 + np.abs(bids).max())
    up = bids.copy()
    up[i] += h
    down = bids.copy()
    down[i] -= h
    pat_up, neg_up, out_up = congestion_pattern(scenario, up)
    pat_dn, neg_dn, out_dn = congestion_pattern(scenario, down)
    assume(pat_up == pat_dn and neg_up == neg_dn)  # skip breakpoints
    slope = (out_up.quantities[i] - out_dn.quantities[i]) / (2.0 * h)
    top = (scenario.size - 1) / scenario.size
    assert -1e-6 <= slope <= top + 1e-6


def test_regulated_price_buyer_floor_seller_cap(two_f5):
    out = clear_market(two_f5, GNE_BIDS_F5)  # lam=(1.55, 2.56), q=(-5, 5)
    # production profile chosen to push the marginal term past the price
    high_p = np.array([200.0, 300.0])
    reg = regulated_price(two_f5, out, high_p)
    marginal = 2.0 * two_f5.c * high_p + two_f5.d - out.quantities / 10.0
    assert reg[1] == pytest.approx(max(out.prices[1], marginal[1]))  # buyer
    assert reg[0] == pytest.approx(min(out.prices[0], marginal[0]))  # seller
    low_p = np.array([1.0, 1.0])
    reg_low = regulated_price(two_f5, out, low_p)
    assert reg_low[1] == pytest.approx(out.prices[1])  # max picks the price
    m_low = 2.0 * two_f5.c * low_p + two_f5.d - out.quantities / 10.0
    assert reg_low[0] == pytest.approx(min(out.prices[0], m_low[0]))


def test_payment_at_equilibrium_point(two_f5):
    p_bar = np.array([105.0, 195.0])
    assert payment(two_f5, GNE_BIDS_F5, p_bar[1], 1) == pytest.approx(12.8)
    assert payment(two_f5, GNE_BIDS_F5, p_bar[0], 0) == pytest.approx(-7.75)


def test_prosumer_costs_at_equilibrium(two_f5):
    assert prosumer_cost(two_f5, GNE_BIDS_F5, 0,
                         regulated=True) == pytest.approx(69.425)
    assert prosumer_cost(two_f5, GNE_BIDS_F5, 1,
                         regulated=True) == pytest.approx(381.35)
    # unregulated and regulated agree when regulation does not bind
    assert prosumer_cost(two_f5, GNE_BIDS_F5, 1) == pytest.approx(381.35)


def test_zero_trade_cost_is_standalone_disutility(two_f10):
    bids = np.array([7.0, 7.0])  # equal bids, so nobody trades
    for i in range(2):
        d_i = two_f10.prosumers[i].demand_reduction
        expected = two_f10.prosumers[i].disutility(d_i)
        assert prosumer_cost(two_f10, bids, i) == pytest.approx(expected)


def test_cost_from_outcome_matches(two_f5, two_f10, chain_f03, chain_f027):
    out = clear_market(two_f5, GNE_BIDS_F5)
    for i in range(2):
        assert cost_at(two_f5, out.prices[i], out.quantities[i], True, i) == \
            pytest.approx(prosumer_cost(two_f5, GNE_BIDS_F5, i,
                                        regulated=True))
    tree = gen_scenario(3, 12, "tight")
    rng = np.random.default_rng(0)
    scan = ScanConfig(coarse_points=41, refine_rounds=1)
    for scenario in (two_f5, two_f10, chain_f03, chain_f027, tree,
                     with_chords(tree, 3)):
        eqm = improved_gne(scenario)
        # perturbed bids, at which regulation binds for some prosumers
        off = eqm.b_bar * rng.uniform(0.8, 1.2, scenario.size)
        for bids in (eqm.b_bar, off):
            out = clear_market(scenario, bids)
            for regulated in (False, True):
                each = [prosumer_cost(scenario, bids, i, regulated)
                        for i in range(scenario.size)]
                tol = 1e-12 * np.abs(each).max()
                assert np.abs(cost_at(scenario, out.prices, out.quantities,
                                      regulated) - each).max() <= tol
                check = verify_gne(scenario, bids, regulated=regulated,
                                   scan_config=scan)
                assert np.abs(check.incumbent_costs - each).max() <= tol
                if regulated and bids is eqm.b_bar:
                    assert np.abs(eqm.costs - each).max() <= tol


def test_prosumer_validation():
    with pytest.raises(DimensionMismatch):
        Prosumer(c=0.0, d=0.1, demand_reduction=1.0)
    with pytest.raises(DimensionMismatch):
        Prosumer(c=1.0, d=0.0, demand_reduction=1.0, base_production=1.0)
    with pytest.raises(DimensionMismatch):
        Prosumer(c=1.0, d=0.0, demand_reduction=1.0, base_production=1.0,
                 base_purchase=1.0, base_demand=3.0)
    ok = Prosumer(c=1.0, d=0.5, demand_reduction=2.0, base_production=1.0,
                  base_purchase=1.0, base_demand=2.0)
    assert ok.disutility(2.0) == pytest.approx(5.0)


def test_scenario_validation(two_f5):
    from esharing.network import build_network

    net = two_f5.network
    pros = list(two_f5.prosumers)
    with pytest.raises(DimensionMismatch):
        Scenario(network=net, prosumers=pros[:1], a=1.0)
    with pytest.raises(DimensionMismatch):
        Scenario(network=net, prosumers=pros, a=0.0)
    with pytest.raises(TooFewProsumers):
        Scenario(network=build_network(1, []), prosumers=pros[:1], a=1.0)


@pytest.mark.parametrize("field,value", [
    ("c", np.inf), ("d", np.nan), ("d", -np.inf),
    ("demand_reduction", np.nan), ("demand_reduction", np.inf)])
def test_prosumer_refuses_non_finite_data(field, value):
    data = {"c": 1.0, "d": 0.5, "demand_reduction": 2.0, field: value}
    with pytest.raises(DimensionMismatch):
        Prosumer(**data)


def test_scenario_refuses_an_infinite_sensitivity(two_f5):
    with pytest.raises(DimensionMismatch):
        Scenario(network=two_f5.network, prosumers=two_f5.prosumers, a=np.inf)

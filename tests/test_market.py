import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import limited_scenarios, oracle, with_chords
from dense_qp import QuadraticProgram, solve_qp
from esharing.brlab import ScanConfig, verify_gne
from esharing.equilibrium import improved_gne
from esharing.errors import DimensionMismatch, TooFewProsumers
from esharing.market import (
    Prosumer,
    Scenario,
    clear_market,
    clearing_kkt_residual,
    cost_at,
    marginal_term,
    prosumer_cost,
)
from esharing import market
from esharing.bidding import platform_update
from esharing.network import LineSpec, build_network, is_radial, line_flows
from esharing.scenario_io import gen_scenario, load_scenario


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
    qp = QuadraticProgram(hessian=np.full(n, 2.0), linear=-2.0 * b,
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


def test_network_without_its_tree_clears_on_the_mesh_path(chain_f027):
    # the radial decision reads the network's tree, so a model built
    # without one takes the mesh path instead of failing on ``tree.child``
    bids = np.array([2.1, 1.1, 0.6])
    meshed = dataclasses.replace(
        chain_f027, network=dataclasses.replace(chain_f027.network, tree=None))
    tree_out = clear_market(chain_f027, bids)
    assert tree_out.alpha_upper.any() or tree_out.alpha_lower.any()
    out = clear_market(meshed, bids)
    assert np.abs(out.prices - tree_out.prices).max() <= 1e-12
    assert not is_radial(meshed.network)


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


def regulated_price(scenario, clearing, p):
    """Cleared prices capped/floored at the adjusted marginal disutility:
    buyers (q_i >= 0, including q_i = 0) pay at least the adjusted marginal
    rate; sellers receive at most that rate."""
    m = marginal_term(scenario, p, clearing.quantities)
    lam = clearing.prices
    return np.where(clearing.quantities >= 0.0, np.maximum(lam, m),
                    np.minimum(lam, m))


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
    out = clear_market(two_f5, GNE_BIDS_F5)

    def payment(i):
        return market._payment(two_f5, out.prices[i], out.quantities[i],
                               p_bar[i], i, True)

    assert payment(1) == pytest.approx(12.8)
    assert payment(0) == pytest.approx(-7.75)


@pytest.mark.parametrize("seed", range(3))
def test_regulated_payment_is_the_regulated_price_times_the_purchase(seed):
    scenario = gen_scenario(seed, 12, "tight")
    rng = np.random.default_rng(seed)
    out = clear_market(scenario, improved_gne(scenario).b_bar
                       + rng.uniform(-2.0, 2.0, scenario.size))
    p = scenario.D - out.quantities + rng.uniform(-20.0, 20.0, scenario.size)
    pay = market._payment(scenario, out.prices, out.quantities, p,
                          slice(None), True)
    # multiplying by a purchase of fixed sign keeps the order of two
    # products, rounding included, so the two agree bit for bit
    assert (pay == regulated_price(scenario, out, p) * out.quantities).all()


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


@pytest.mark.parametrize("data,message", [
    # c > 0 comes first, then finiteness in the order c, d, D, then the
    # baseline: given together, finite in the order p0, E0, D0, balanced
    ((0.0, np.nan, np.inf), "prosumer c must be > 0, got 0.0"),
    ((np.nan, 0.0, 1.0), "prosumer c must be > 0, got nan"),
    ((-np.inf, 0.0, 1.0), "prosumer c must be > 0, got -inf"),
    ((np.inf, np.nan, 1.0), "prosumer c must be finite, got inf"),
    ((1.0, np.nan, -np.inf), "prosumer d must be finite, got nan"),
    ((1.0, 0.0, -np.inf), "prosumer D must be finite, got -inf"),
    ((1.0, np.nan, 1.0, 1.0), "prosumer d must be finite, got nan"),
    ((1.0, 0.0, 1.0, None, 1.0), "baseline fields must be given together"),
    ((1.0, 0.0, 1.0, 1.0, 1.0, None), "baseline fields must be given together"),
    ((1.0, 0.0, 1.0, 1.0, 1.0, 3.0),
     "baseline violates p0 + E0 = D0: 1.0 + 1.0 != 3.0"),
    ((1.0, 0.0, 1.0, np.nan, None, 2.0), "baseline fields must be given together"),
    ((0.0, 0.0, 1.0, np.nan, 1.0, 2.0), "prosumer c must be > 0, got 0.0"),
    ((1.0, 0.0, 1.0, np.nan, 1.0, 2.0), "prosumer p0 must be finite, got nan"),
    ((1.0, 0.0, 1.0, np.inf, -np.inf, 5.0), "prosumer p0 must be finite, got inf"),
    ((1.0, 0.0, 1.0, 1.0, -np.inf, 5.0), "prosumer E0 must be finite, got -inf"),
    ((1.0, 0.0, 1.0, 1.0, 1.0, np.inf), "prosumer D0 must be finite, got inf")])
def test_prosumer_errors_come_in_a_fixed_order(data, message):
    with pytest.raises(DimensionMismatch) as exc:
        Prosumer(*data)
    assert str(exc.value) == message


def test_scenario_columns_are_checked_as_records(two_f5):
    # the first prosumer refused gives its record's message
    net = two_f5.network
    for columns, message in [
            ({"c": [1.0, 0.0], "d": [np.nan, 0.0], "D": [1.0, 1.0]},
             "prosumer d must be finite, got nan"),
            ({"c": [1.0, 1.0], "d": [0.0, 0.0], "D": [1.0, np.inf],
              "p0": [1.0, np.nan], "E0": [1.0, np.nan], "D0": [3.0, np.nan]},
             "baseline violates p0 + E0 = D0: 1.0 + 1.0 != 3.0"),
            ({"c": [1.0, 1.0], "d": [0.0, 0.0], "D": [1.0, 1.0],
              "p0": [np.nan, 1.0]},
             "baseline fields must be given together")]:
        with pytest.raises(DimensionMismatch) as exc:
            Scenario(net, a=1.0, **columns)
        assert str(exc.value) == message


def test_scenario_columns_and_records_agree(two_f5):
    pros = [Prosumer(1.0, 0.1, 2.0, 1.5, 0.5, 2.0), Prosumer(2.0, 0.2, 1.0)]
    by_records = Scenario(two_f5.network, pros, a=1.0, label="x")
    assert by_records.prosumers == tuple(pros)
    by_columns = Scenario(two_f5.network, a=1.0, label="x", c=[1, 2],
                          d=[0.1, 0.2], D=[2, 1], p0=[1.5, np.nan],
                          E0=[0.5, np.nan], D0=[2.0, np.nan])
    for name in ("c", "d", "D", "p0", "E0", "D0"):
        assert np.array_equal(getattr(by_columns, name),
                              getattr(by_records, name), equal_nan=True)
    assert by_columns.prosumers == tuple(pros)
    assert type(by_columns.prosumers[0].c) is float
    # a baseline no prosumer has is none at all
    bare = Scenario(two_f5.network, a=1.0, c=[1, 2], d=[0, 0], D=[1, 1],
                    p0=[np.nan] * 2)
    assert bare.p0 is None and bare.E0 is None and bare.D0 is None
    again = dataclasses.replace(by_columns, a=3.0)
    assert again.a == 3.0 and again.prosumers == tuple(pros)
    for name in ("c", "d", "D", "p0", "E0", "D0"):
        assert not getattr(again, name).flags.writeable


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


@pytest.mark.parametrize("columns,message", [
    (dict(c=[1, 1], d=[0, 0, 0], D=[1, 1]), "prosumer columns must have one length"),
    (dict(c=1.0, d=[0, 0], D=[1, 1]), "prosumer columns must have one length"),
    (dict(c=[[1], [1, 2]], d=[0, 0], D=[1, 1]), "prosumer columns must have one length"),
    (dict(c=[1, 1], d=[0, 0], D=[1, 1], p0=[0, 0, 0]),
     "baseline columns must match the others"),
], ids=["ragged", "scalar", "ragged-column", "ragged-baseline"])
def test_scenario_refuses_columns_of_unequal_lengths(two_f5, columns, message):
    # as build_network refuses line columns of unequal lengths
    with pytest.raises(DimensionMismatch) as exc:
        Scenario(two_f5.network, a=1.0, **columns)
    assert str(exc.value) == message


@pytest.mark.parametrize("field,value", [
    ("c", np.inf), ("d", np.nan), ("d", -np.inf),
    ("demand_reduction", np.nan), ("demand_reduction", np.inf)])
def test_prosumer_refuses_non_finite_data(field, value):
    data = {"c": 1.0, "d": 0.5, "demand_reduction": 2.0, field: value}
    with pytest.raises(DimensionMismatch):
        Prosumer(**data)


@pytest.mark.parametrize("bids", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], 1.0],
                         ids=["one", "three", "row", "scalar"])
def test_clearing_refuses_a_wrong_number_of_bids(two_f5, bids):
    with pytest.raises(DimensionMismatch):
        clear_market(two_f5, bids)


def test_scenario_refuses_an_infinite_sensitivity(two_f5):
    with pytest.raises(DimensionMismatch):
        Scenario(network=two_f5.network, prosumers=two_f5.prosumers, a=np.inf)


def assert_sides_follow_the_duals(out, limits):
    """``sides`` holds +1, -1 or 0 for each line: every zero-limit line at
    the side of its dual's sign, every line with a positive dual at that
    dual's side, and each held line with a positive limit at the limit of
    its side."""
    sides = out.sides
    assert sides.shape == limits.shape
    assert set(sides.tolist()) <= {-1.0, 0.0, 1.0}
    dual = out.alpha_upper - out.alpha_lower
    zero = limits == 0.0
    assert np.array_equal(sides[zero], np.where(dual[zero] >= 0.0, 1.0, -1.0))
    assert (sides[out.alpha_upper > 0.0] == 1.0).all()
    assert (sides[out.alpha_lower > 0.0] == -1.0).all()
    held = sides != 0.0
    assert out.flows[held] == pytest.approx(sides[held] * limits[held],
                                            abs=1e-9)


def test_sides_on_a_small_tree():
    # a chain 1-2-3-4-5 with bus 6 on the slack bus 3: line 0 is held at
    # its lower limit, line 2 at its upper one, and the zero-limit lines 1
    # and 4 at the sides their duals push from
    lines = [LineSpec(1, 2, 1.0, 0.5), LineSpec(2, 3, 1.0, 0.0),
             LineSpec(3, 4, 1.0, 0.4), LineSpec(4, 5, 1.0, np.inf),
             LineSpec(6, 3, 1.0, 0.0)]
    net = build_network(6, lines, slack=3)
    scenario = Scenario(network=net, prosumers=[Prosumer(1.0, 0.0, 1.0)] * 6,
                        a=1.0)
    bids = np.array([3.0, -1.0, 0.0, 3.0, 0.0, 1.0])
    out = clear_market(scenario, bids)
    assert out.sides.tolist() == [-1.0, 1.0, 1.0, 0.0, -1.0]
    assert_sides_follow_the_duals(out, net.limits)
    # a guess is a side vector of one entry per line, or None
    again = clear_market(scenario, bids, active=out.sides)
    assert again.sides.tobytes() == out.sides.tobytes()
    for guess in ([(0, "lower"), (2, "upper")], (), np.ones(4)):
        with pytest.raises(DimensionMismatch):
            clear_market(scenario, bids, active=guess)


@pytest.mark.parametrize("guess", [None, [0.0, 0.0, 0.0, 1.0],
                                   [1.0, 0.0, 1.0, 0.0]])
def test_zero_limit_twins_report_one_line_held(guess):
    # lines 0 and 3 are parallel with zero limits, so their rows are
    # dependent: one of them is held at its dual's side and the other,
    # whose flow is then 0 as well, is reported free with zero duals
    lines = [LineSpec(1, 2, 1.0, 0.0), LineSpec(2, 3, 1.0, 2.0),
             LineSpec(1, 3, 1.0, 0.3), LineSpec(1, 2, 0.5, 0.0)]
    scenario = Scenario(network=build_network(3, lines),
                        prosumers=[Prosumer(1.0, 0.0, 1.0)] * 3, a=1.0)
    bids = np.array([3.0, -2.0, 0.5])
    out = clear_market(scenario, bids,
                       None if guess is None else np.array(guess))
    assert out.sides.tolist() == [-1.0, 0.0, 0.0, 0.0]
    assert out.alpha_lower == pytest.approx([20.0, 0.0, 0.0, 0.0], abs=1e-12)
    assert not out.alpha_lower[1:].any() and not out.alpha_upper.any()
    assert clearing_kkt_residual(scenario, bids, out) <= 1e-12


def test_sides_on_the_bundled_mesh():
    scenario = load_scenario(str(Path(__file__).resolve().parents[1]
                                 / "scenarios" / "mesh38_chords.json"))
    net, n = scenario.network, scenario.size
    bids = 1.1 * improved_gne(scenario).b_bar
    out = clear_market(scenario, bids)
    assert out.sides.any()
    assert_sides_follow_the_duals(out, net.limits)
    # the dense QP's held rows
    _, dense = oracle(net, np.full(n, 2.0), np.zeros(n), bids, scenario.a)
    assert np.array_equal(out.sides, dense.sides)


@pytest.mark.parametrize("chords", [0, 3])
@pytest.mark.parametrize("where", ["free flow", "held push"])
def test_a_nan_in_the_first_held_solve_is_not_accepted(chords, where,
                                                        monkeypatch):
    # the check is written as "within", so a NaN flow on a free bounded
    # line, or a NaN push on a held one, fails a guess that is otherwise
    # right, and the solver steps on
    scenario = gen_scenario(7, 12, "tight")
    if chords:
        scenario = with_chords(scenario, chords)
    net, n = scenario.network, scenario.size
    bids = improved_gne(scenario).b_bar
    active = clear_market(scenario, bids).sides
    free = net.bounded & (active == 0.0)
    assert free.any() and active.any()
    line = int(np.flatnonzero(free if where == "free flow" else active)[0])
    held_solve, solves = market._held_solve, []

    def first_with_nan(*args):
        step = held_solve(*args)
        if not solves:
            u, q, flows, push = step
            flows, push = flows.copy(), push.copy()
            (flows if where == "free flow" else push)[line] = np.nan
            step = u, q, flows, push
        solves.append(args)
        return step

    monkeypatch.setattr(market, "_held_solve", first_with_nan)
    sol, _ = market._solve_program(net, np.full(n, 2.0), np.zeros(n), bids,
                                   scenario.a, active)
    assert sol.iterations >= 2
    assert np.isfinite(sol.x).all()
    monkeypatch.setattr(market, "_held_solve", held_solve)
    assert market._solve_program(net, np.full(n, 2.0), np.zeros(n), bids,
                                 scenario.a, active)[0].iterations == 1


def _alone(scenario):
    """The scenario on a fresh copy of its network, which keeps nothing."""
    fresh = dataclasses.replace(scenario.network)
    assert fresh._factor is None and fresh._guess is None
    return Scenario(network=fresh, prosumers=scenario.prosumers, a=scenario.a)


def _run(op, scenario, bids, prices, active, i):
    """One of the calls that solve on a network and may keep its factor and
    guess: a clearing, a proximal clearing from ``prices``, or the slopes of
    bid ``i`` with the lines of ``active`` held at targets of zero."""
    if op == "clear":
        return clear_market(scenario, bids, active)
    if op == "platform":
        return platform_update(scenario, prices, bids, active)
    sides = np.zeros(scenario.network.line_count) if active is None else active
    return market.clearing_slopes(scenario, i, sides)


_OUTCOME = ("prices", "quantities", "eta", "alpha_lower", "alpha_upper",
            "flows", "sides")


def _fields(result):
    """The public fields of a clearing, the derived ones read too, or the
    rates of ``clearing_slopes``."""
    if result is None or isinstance(result, tuple):  # clearing_slopes
        return [None] if result is None else list(result)
    return [getattr(result, name) for name in _OUTCOME]


@settings(max_examples=80)
@given(limited_scenarios(max_size=12), limited_scenarios(max_size=12),
       st.lists(st.tuples(st.integers(0, 1), st.sampled_from([0.0, 1e-3, 1.0]),
                          st.sampled_from([None, 1.0, -1.0]),
                          st.sampled_from(["clear", "platform", "slopes"])),
                min_size=2, max_size=10),
       st.integers(0, 2**32 - 1))
def test_kept_factors_change_no_bit(first, second, steps, seed):
    # two networks' solves interleaved: clearings, proximal clearings and
    # slopes, each from the same bids again, a nudge or a jump away,
    # guessing no line, the previous held set, or the same lines at their
    # other limits; so one held set is solved at its limits and at zero
    # targets in turn, as a best-response scan does.  Every call gives the
    # bytes it gives alone, with nothing kept
    rng = np.random.default_rng(seed)
    scenarios = (first, second)
    bids = [rng.uniform(-3.0, 3.0, sc.size) for sc in scenarios]
    prices = [np.zeros(sc.size) for sc in scenarios]
    sides = [np.zeros(sc.network.line_count) for sc in scenarios]
    for which, jump, guess, op in steps:
        sc = scenarios[which]
        bids[which] = bids[which] + jump * rng.uniform(-1.0, 1.0, sc.size)
        active = None if guess is None else guess * sides[which]
        i = int(rng.integers(sc.size))
        out = _run(op, sc, bids[which], prices[which], active, i)
        ref = _run(op, _alone(sc), bids[which], prices[which], active, i)
        for got, want in zip(_fields(out), _fields(ref), strict=True):
            assert (np.asarray(got).tobytes() == np.asarray(want).tobytes()), op
        if op != "slopes":
            prices[which], sides[which] = out.prices, out.sides


def _eager(net, a, bids, held_solve, x, sides):
    """The derived fields of a clearing as the eager code computed them:
    from the last held solve's ``(u, q, flows, push)``, the solution's
    ``x`` and ``sides``; the solution's duals and residual, then the
    outcome's quantities, ``eta`` and duals."""
    u, q, flows, push = held_solve
    limits = net.limits
    dual = push / a
    signed = sides * dual
    mu = np.maximum(signed, 0.0)
    lower, upper = np.zeros(limits.size), np.zeros(limits.size)
    lower[sides < 0.0] = mu[sides < 0.0]
    upper[sides > 0.0] = mu[sides > 0.0]
    excess = np.abs(flows) - limits
    residual = max(abs(float(np.add.reduce(q))), float(
        np.maximum.reduce(np.maximum(excess, -signed), initial=0.0)))
    eq_duals = np.array([-u[net.slack - 1]])
    return {"eq_duals": eq_duals, "ineq_duals_lower": lower,
            "ineq_duals_upper": upper, "residual": residual,
            "quantities": bids - a * x, "eta": float(eq_duals[0]) / a,
            "alpha_lower": lower, "alpha_upper": upper}


@settings(max_examples=120)
@given(limited_scenarios(max_size=12), st.sampled_from(["clear", "platform"]),
       st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_derived_fields_equal_the_eager_ones(scenario, op, refuse, reverse, seed):
    # trees, meshes and zero-limit twins, plain and proximal clearings, and
    # the finish, forced by refusing the loop's first held solve; each
    # derived field, read in either order, has the bits of the expression
    # that computed it eagerly from the last held solve
    net = scenario.network
    rng = np.random.default_rng(seed)
    bids = rng.uniform(-3.0, 3.0, scenario.size)
    anchor = rng.uniform(-1.0, 1.0, scenario.size) if op == "platform" else None
    held_solve, solves, finishes = market._held_solve, [], []
    finish = market._finish

    def recording(*args):
        if refuse and not solves:
            solves.append(None)
            return None
        solves.append(held_solve(*args))
        return solves[-1]

    def finish_recording(*args):
        finishes.append(args)
        return finish(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(market, "_held_solve", recording)
        patch.setattr(market, "_finish", finish_recording)
        out = market._clear(scenario, bids, anchor, None)
    sol = out.solution
    assert isinstance(sol, market._HeldSolution)
    assert len(finishes) >= refuse
    want = _eager(net, scenario.a, bids, solves[-1], sol.x, out.sides)
    names = sorted(want, reverse=reverse)
    got = {name: getattr(sol if name in ("eq_duals", "residual")
                         or name.startswith("ineq") else out, name)
           for name in names}
    for name in names:
        assert np.asarray(got[name]).tobytes() == \
            np.asarray(want[name]).tobytes(), name
    assert out.prices is sol.x


def test_derived_fields_read_no_array_a_caller_holds(two_f5):
    # the clearing derives its quantities from its own copy of the bids and
    # its duals from its own side vector, so editing the bids, or the
    # sides it handed out, after clearing changes neither
    bids = GNE_BIDS_F5.copy()
    ref = clear_market(two_f5, GNE_BIDS_F5)
    out = clear_market(two_f5, bids)
    assert out.sides.any()
    bids[:] = 7.0
    out.sides[:] = 0.0
    for name in ("quantities", "alpha_lower", "alpha_upper"):
        assert getattr(out, name).tobytes() == getattr(ref, name).tobytes()
    assert out.eta == ref.eta

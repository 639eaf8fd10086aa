import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import equal_pair, limited_scenarios
from esharing import brlab, cases, equilibrium
from esharing.brlab import (
    ScanConfig,
    best_response,
    br_iteration,
    classify_gne_2bus,
    verify_gne,
    write_scan_csv,
)
from esharing.errors import DimensionMismatch, ScanIntervalEmpty
from esharing.market import (
    Prosumer,
    Scenario,
    clear_market,
    clearing_slopes,
    cost_at,
    prosumer_cost,
)
from esharing.network import LineSpec, build_network
from esharing.scenario_io import gen_scenario


def test_two_local_minima_in_loose_chain(chain_f027):
    scan = best_response(chain_f027, 1, np.array([1.6, 0.8]), include=(1.6,))
    bids = [b for b, _ in scan.local_minima]
    costs = [v for _, v in scan.local_minima]
    assert len(bids) == 2
    assert bids[0] == pytest.approx(1.535, abs=1e-9)
    assert bids[1] == pytest.approx(1.6, abs=1e-9)
    assert costs[0] == pytest.approx(0.8918875, abs=1e-9)
    assert costs[1] == pytest.approx(67.0 / 75.0, abs=1e-9)
    assert scan.best_bid == pytest.approx(1.535, abs=1e-9)
    assert costs[0] < costs[1]


def test_single_minimum_when_capacity_ample(chain_f03):
    scan = best_response(chain_f03, 1, np.array([1.6, 0.8]), include=(1.6,))
    assert len(scan.local_minima) == 1
    assert scan.best_bid == pytest.approx(1.6, abs=1e-9)
    assert scan.best_cost == pytest.approx(67.0 / 75.0, abs=1e-9)


def test_interior_best_response_formula():
    # two equal-cost prosumers, ample capacity: reply to b2 is affine in b2
    c = 1.0
    scenario = equal_pair(c, (1.0, 0.5), 5.0)
    for b2 in (1.0, 4.0 / 3.0, 1.6):
        scan = best_response(scenario, 0, np.array([b2]))
        predicted = (c / (c + 1.0)) * (b2 + 2.0 * 1.0)
        assert scan.best_bid == pytest.approx(predicted, abs=1e-9)


def test_verify_accepts_equilibrium(chain_f03):
    eqm = equilibrium.improved_gne(chain_f03)
    check = verify_gne(chain_f03, eqm.b_bar)
    assert check.is_gne
    assert np.max(check.gaps) <= check.tol


def test_verify_rejects_after_tightening(chain_f027):
    check = verify_gne(chain_f027, np.array([1.6, 1.6, 0.8]))
    assert not check.is_gne
    assert check.gaps[1] == pytest.approx(67.0 / 75.0 - 0.8918875, abs=1e-9)
    assert check.best_bids[1] == pytest.approx(1.535, abs=1e-9)


def test_regulated_gaps_at_the_equilibrium_are_not_negative():
    # the true minimum of prosumers 4 and 8 is a kink at the incumbent bid,
    # which a sampled scan misses by up to 4e-4
    scenario = gen_scenario(1, 12, "tight")
    eqm = equilibrium.improved_gne(scenario)
    check = verify_gne(scenario, eqm.b_bar, regulated=True)
    assert (check.gaps >= -1e-9 * (1.0 + np.abs(check.incumbent_costs))).all()
    assert check.is_gne


def test_multiple_equilibria_on_sellers_boundary():
    scenario = cases.three_bus_chain(1.0, (0.0, 1.0, 1.0), 1.0 / 3.0)
    for bids in (np.array([1.18, 1.68, 1.68]), np.array([1.22, 1.72, 1.72])):
        check = verify_gne(scenario, bids, tol=1e-5)
        assert check.is_gne, bids
        out = clear_market(scenario, bids)
        p = scenario.D - out.quantities
        assert p == pytest.approx([1.0 / 3.0, 5.0 / 6.0, 5.0 / 6.0], abs=1e-3)
    third = np.array([1.21, 1.70, 1.72])
    assert verify_gne(scenario, third, tol=1e-5).is_gne


def family_member(cls, b2):
    """Bids and prices of the member of a congested two-bus equilibrium
    family ``cls`` whose second bid is ``b2``."""
    F = cls.limit
    if cls.regime == "multiple-upper":
        b = np.array([b2 + 2.0 * F, b2])
        return b, np.array([b[0] - F, b2 + F])
    b = np.array([b2 - 2.0 * F, b2])
    return b, np.array([b[0] + F, b2 - F])


def test_classify_unique_regime():
    cls = classify_gne_2bus(1.0, 1.0, 0.5, 1.0)
    assert cls.regime == "unique"
    assert cls.b_bar == pytest.approx([5.0 / 3.0, 4.0 / 3.0])
    assert cls.lam_bar == pytest.approx([1.5, 1.5])
    assert cls.p_bar == pytest.approx([5.0 / 6.0, 2.0 / 3.0])
    scenario = equal_pair(1.0, (1.0, 0.5), 1.0)
    assert verify_gne(scenario, np.asarray(cls.b_bar)).is_gne


def test_classify_congested_family():
    cls = classify_gne_2bus(1.0, 1.0, 0.5, 0.1)
    assert cls.regime == "multiple-upper"
    assert cls.b2_interval == pytest.approx([1.2, 1.6])
    assert cls.p_bar == pytest.approx([0.9, 0.6])
    scenario = equal_pair(1.0, (1.0, 0.5), 0.1)
    for b2 in (1.2, 1.4, 1.6):
        bids, lam = family_member(cls, b2)
        assert bids[0] == pytest.approx(b2 + 0.2)
        assert lam == pytest.approx([bids[0] - 0.1, b2 + 0.1])
        assert verify_gne(scenario, bids, tol=1e-5).is_gne, b2
    for b2 in (1.1, 1.7):
        bids = np.array([b2 + 0.2, b2])
        assert not verify_gne(scenario, bids, tol=1e-5).is_gne, b2


def test_classify_mirror_regime():
    cls = classify_gne_2bus(1.0, 0.5, 1.0, 0.1)
    assert cls.regime == "multiple-lower"
    assert cls.p_bar == pytest.approx([0.6, 0.9])
    scenario = equal_pair(1.0, (0.5, 1.0), 0.1)
    mid = 0.5 * (cls.b2_interval[0] + cls.b2_interval[1])
    bids, _ = family_member(cls, mid)
    assert verify_gne(scenario, bids, tol=1e-5).is_gne


def test_random_unique_instances_verify():
    rng = np.random.default_rng(2024)
    accepted = 0
    for _ in range(50):
        c = float(rng.uniform(0.5, 2.0))
        d1 = float(rng.uniform(0.5, 1.5))
        gap_cap = (2.0 * c + 1.0) * 1.0 / c
        d2 = d1 + float(rng.uniform(-0.9, 0.9)) * min(gap_cap, d1) * 0.9
        cls = classify_gne_2bus(c, d1, d2, 1.0)
        if cls.regime != "unique":
            continue
        scenario = equal_pair(c, (d1, d2), 1.0)
        check = verify_gne(scenario, np.asarray(cls.b_bar), tol=1e-5)
        assert check.is_gne, (c, d1, d2)
        accepted += 1
    assert accepted >= 40


def example2_region(scenario, b):
    """Region and closed-form prices of the three-bus chain, unit ``a``,
    whose leaf line at bus 1 is its only limited line: ``M`` (no
    congestion, uniform price) or ``L``/``U`` (the leaf line at its
    lower/upper purchase limit), by where bid 1 sits."""
    F = float(scenario.network.limits[0])
    rest = b[1] + b[2]
    if b[0] <= (rest - 3.0 * F) / 2.0:
        lam1 = b[0] + F
        lam_rest = (rest - F) / 2.0
        region = "L"
    elif b[0] >= (rest + 3.0 * F) / 2.0:
        lam1 = b[0] - F
        lam_rest = (rest + F) / 2.0
        region = "U"
    else:
        lam1 = lam_rest = b.sum() / 3.0
        region = "M"
    return region, np.array([lam1, lam_rest, lam_rest])


def test_region_formulas_match_solver(chain_f03):
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(100):
        b = rng.uniform(-1.0, 3.0, 3)
        region, prices = example2_region(chain_f03, b)
        seen.add(region)
        out = clear_market(chain_f03, b)
        assert np.abs(prices - out.prices).max() <= 1e-8
    assert seen == {"M", "L", "U"}


def test_region_boundary_is_continuous(chain_f03):
    b2, b3 = 1.6, 0.8
    f = 0.3
    upper_edge = (b2 + b3 + 3.0 * f) / 2.0
    _, below = example2_region(chain_f03, np.array([upper_edge - 1e-9, b2, b3]))
    _, above = example2_region(chain_f03, np.array([upper_edge + 1e-9, b2, b3]))
    assert np.abs(below - above).max() <= 1e-8


def test_br_iteration_settles(chain_f03):
    eqm = equilibrium.improved_gne(chain_f03)
    traj = br_iteration(chain_f03, np.array([1.0, 1.0, 1.0]), iters=30)
    assert traj.termination == "fixed_point"
    assert traj.fixed_point
    assert traj.verification is not None and traj.verification.is_gne
    assert np.abs(traj.states[-1] - eqm.b_bar).max() <= 1e-3


def test_br_iteration_finds_no_rest_point(chain_f027):
    traj = br_iteration(chain_f027, np.array([1.6, 1.6, 0.8]), iters=15)
    assert traj.termination in ("cycling", "max_iter")
    assert not traj.fixed_point


def test_regulated_game_makes_equilibrium_stable(two_f5, two_f10):
    eqm = equilibrium.improved_gne(two_f5)
    check = verify_gne(two_f5, eqm.b_bar, regulated=True, tol=1e-5)
    assert check.is_gne
    # with the limit binding, moving against the flow direction costs money
    for shift in ((-0.05, 0.0), (0.0, 0.05)):
        perturbed = eqm.b_bar + np.asarray(shift)
        assert not verify_gne(two_f5, perturbed, regulated=True,
                              tol=1e-5).is_gne
    # while the clamp neutralises seller-up / buyer-down moves entirely
    neutral = verify_gne(two_f5, eqm.b_bar + np.array([0.05, 0.0]),
                         regulated=True, tol=1e-5)
    assert neutral.is_gne
    assert neutral.incumbent_costs == pytest.approx(eqm.costs)
    # away from the limit every direction is strictly penalised
    eqm10 = equilibrium.improved_gne(two_f10)
    assert verify_gne(two_f10, eqm10.b_bar, regulated=True, tol=1e-5).is_gne
    for shift in ((0.05, 0.0), (-0.05, 0.0), (0.0, 0.05), (0.0, -0.05)):
        perturbed = eqm10.b_bar + np.asarray(shift)
        assert not verify_gne(two_f10, perturbed, regulated=True,
                              tol=1e-5).is_gne


def test_scan_csv_export(tmp_path, chain_f027):
    scan = best_response(chain_f027, 1, np.array([1.6, 0.8]),
                         scan_config=ScanConfig(coarse_points=101,
                                                refine_rounds=1))
    path = tmp_path / "scan.csv"
    write_scan_csv(scan, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "b,cost"
    assert len(lines) == 1 + len(scan.samples_b)


def test_scan_csv_matches_a_row_by_row_writer(tmp_path, chain_f027):
    scan = best_response(chain_f027, 1, np.array([1.6, 0.8]))
    write_scan_csv(scan, tmp_path / "scan.csv")
    with open(tmp_path / "rows.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["b", "cost"])
        for bv, cv in zip(scan.samples_b, scan.samples_cost):
            writer.writerow([repr(float(bv)), repr(float(cv))])
    assert (tmp_path / "scan.csv").read_bytes() == \
        (tmp_path / "rows.csv").read_bytes()


def test_scan_interval_validation(chain_f03):
    with pytest.raises(ScanIntervalEmpty):
        best_response(chain_f03, 1, np.array([1.6, 0.8]),
                      scan_config=ScanConfig(interval=(2.0, 1.0)))


@pytest.mark.parametrize("points", [0, -1])
def test_scan_config_refuses_fewer_than_one_point(points):
    with pytest.raises(ValueError, match="coarse_points"):
        ScanConfig(coarse_points=points)


@pytest.mark.parametrize("interval", [(math.nan, 1.0), (0.0, math.inf),
                                      (-math.inf, 0.0), (1.0,), (0.0, 1.0, 2.0)])
def test_scan_config_refuses_a_bad_interval(interval):
    with pytest.raises(ValueError, match="interval"):
        ScanConfig(interval=interval)


def test_a_scan_of_one_point_reports_it(chain_f03):
    scan = best_response(chain_f03, 1, np.array([1.6, 0.8]),
                         scan_config=ScanConfig(coarse_points=1))
    assert scan.samples_b.shape == scan.samples_cost.shape == (1,)
    assert np.isfinite(scan.best_cost)


def test_scan_refuses_a_wrong_number_of_opponent_bids(chain_f03):
    with pytest.raises(DimensionMismatch):
        best_response(chain_f03, 1, np.array([1.6]))


def walk_setup():
    """A 7-bus tight scan of prosumer 3 at the equilibrium bids: the
    scenario, the prosumer, its opponents' bids, a 401-point grid, the bid
    vector with its slot zeroed, and the clean walk's piece table."""
    scenario, i = gen_scenario(1, 7, "tight"), 2
    fixed = np.delete(equilibrium.improved_gne(scenario).b_bar, i)
    config = ScanConfig(coarse_points=401)
    grid = best_response(scenario, i, fixed, scan_config=config).samples_b
    b_base = np.insert(fixed, i, 0.0)
    path = brlab._clearing_path(scenario, i, b_base, grid, grid[-1])
    return scenario, i, fixed, config, grid, b_base, path


def perturbed_start(scenario, state):
    """``state`` with its first free line past its limit by far more than
    rounding at the 7-bus scan's bids."""
    price, flows, side, dual = state
    net = scenario.network
    line = np.flatnonzero(net.bounded & (side == 0))[0]
    flows = flows.copy()
    flows[line] = np.copysign(net.limits[line] + 1e-4, flows[line])
    return price, flows, side, dual


@pytest.mark.parametrize("fault", ["refuse-inner", "refuse-last",
                                   "start-past-limit"])
def test_walk_steps_over_a_refused_or_violated_piece(monkeypatch, fault):
    # a held solve that refuses, or a start already past one of its
    # conditions, makes a piece of one point, carried and cleared afresh
    # alike: the walk steps to the next grid point, and the piece is the
    # chord to it
    scenario, i, fixed, config, grid, b_base, path = walk_setup()
    starts = path[0]
    target = starts[-1] if fault == "refuse-last" else starts[len(starts) // 2]
    at, faults, cleared = [], [], []  # each piece's start; the faults; clearings
    piece = brlab._piece

    def note(t):
        if not faults or faults[-1] != t:
            faults.append(t)

    def faulty_piece(scenario, i, t, state, scale, hi):
        at.append(t)
        if fault == "start-past-limit" and t == target:
            note(t)
            state = perturbed_start(scenario, state)
        return piece(scenario, i, t, state, scale, hi)

    def slopes(scenario, i, sides):
        refuse = at[-1] >= target if fault == "refuse-last" else \
            fault == "refuse-inner" and at[-1] == target
        if refuse:
            note(at[-1])
            return None
        return clearing_slopes(scenario, i, sides)

    def clear(scenario, bids, active=None):
        cleared.append(bids[i])
        return clear_market(scenario, bids, active=active)

    monkeypatch.setattr(brlab, "_piece", faulty_piece)
    monkeypatch.setattr(brlab, "clearing_slopes", slopes)
    monkeypatch.setattr(brlab, "clear_market", clear)
    path = brlab._clearing_path(scenario, i, b_base, grid, grid[-1])
    walked = path[0]
    # the target was a carried start; it was cleared afresh before the step
    assert cleared[0] == grid[0] and cleared[1] == target
    faults.clear()
    scan = best_response(scenario, i, fixed, scan_config=config)
    assert faults and faults[0] == target
    # each stepped piece ends at the grid point after its start
    k = np.searchsorted(walked, faults)
    assert (walked[k] == faults).all()
    after = np.append(walked, grid[-1])[k + 1]
    assert (after == grid[np.searchsorted(grid, faults, side="right")]).all()
    # the path is affine across each of them, so its chord is exact, but
    # for the one at the scan's end, which keeps a flat slope
    mids = 0.5 * (walked[k] + after)[after < grid[-1]]
    for t, lam in zip(mids, price_on_path(path, mids)):
        ref = clear_market(scenario, np.insert(fixed, i, t)).prices[i]
        assert lam == pytest.approx(ref, rel=1e-9), t
    # the samples off the last stepped piece, and the best bid, re-price
    stepped = (grid >= faults[-1]) & (grid <= after[-1])
    bids = np.insert(fixed, i, 0.0)
    for b, cost in [*zip(grid[~stepped], scan.samples_cost[~stepped]),
                    (scan.best_bid, scan.best_cost)]:
        bids[i] = b
        assert cost == pytest.approx(prosumer_cost(scenario, bids, i),
                                     rel=1e-9), b


def test_a_carried_start_past_a_limit_is_cleared_afresh(monkeypatch):
    # the condition check guards the carried state: a start that fails it
    # is cleared again at the same bid, guessing its held lines, and the
    # walk goes on from that clearing with no step
    scenario, i, fixed, config, grid, b_base, clean = walk_setup()
    target = clean[0][len(clean[0]) // 2]
    piece, calls = brlab._piece, []

    def faulty_piece(scenario, i, t, state, scale, hi):
        if t == target and not calls[1:]:
            state = perturbed_start(scenario, state)
            calls.append(("carried", state[2]))
        return piece(scenario, i, t, state, scale, hi)

    def clear(scenario, bids, active=None):
        calls.append((bids[i], active))
        return clear_market(scenario, bids, active=active)

    monkeypatch.setattr(brlab, "_piece", faulty_piece)
    monkeypatch.setattr(brlab, "clear_market", clear)
    path = brlab._clearing_path(scenario, i, b_base, grid, grid[-1])
    assert [c[0] for c in calls] == [grid[0], "carried", target]
    assert (calls[2][1] == calls[1][1]).all()
    assert [len(p) for p in path] == [len(p) for p in clean]
    for got, want in zip(path, clean):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_scan_on_parallel_lines_matches_prosumer_cost():
    # lines 1 and 4 join the same buses; holding both at a limit makes the
    # clearing's equality rows linearly dependent
    net = build_network(4, [LineSpec(1, 2, 1.0, 0.57), LineSpec(2, 3, 1.0, 0.33),
                            LineSpec(3, 4, 1.0, 0.54), LineSpec(1, 2, 0.5, 0.6)])
    scenario = Scenario(network=net, a=1.0, prosumers=[
        Prosumer(1.0, 0.0, D) for D in (0.2, 1.7, 0.6, 0.9)])
    fixed = np.array([0.0, 1.0, 2.8])
    scan = best_response(scenario, 1, fixed)
    bids = np.insert(fixed, 1, scan.best_bid)
    assert scan.best_cost == pytest.approx(prosumer_cost(scenario, bids, 1),
                                           rel=1e-9, abs=1e-9)
    assert scan.best_bid == pytest.approx(1.38, abs=1e-3)
    assert scan.best_cost == pytest.approx(1.8295, abs=1e-4)
    for b, cost in zip(scan.samples_b, scan.samples_cost):
        bids[1] = b
        assert cost == pytest.approx(prosumer_cost(scenario, bids, 1),
                                     rel=1e-9, abs=1e-9), b


def test_scan_on_parallel_zero_limit_lines_clears_a_few_times(monkeypatch):
    # lines 1 and 4 join the same buses, both with a zero limit: their rows
    # are dependent, the mesh fallback holds one of them, and every piece of
    # the scan takes its slopes from that independent held set
    net = build_network(4, [LineSpec(1, 2, 1.0, 0.0), LineSpec(2, 3, 1.0, 0.33),
                            LineSpec(3, 4, 1.0, 0.54), LineSpec(1, 2, 0.5, 0.0)])
    scenario = Scenario(network=net, a=1.0, prosumers=[
        Prosumer(1.0, 0.0, D) for D in (0.2, 1.7, 0.6, 0.9)])
    fixed = np.array([0.0, 1.0, 2.8])
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return clear_market(*args, **kwargs)

    monkeypatch.setattr(brlab, "clear_market", counted)
    scan = best_response(scenario, 1, fixed)
    assert 0 < len(calls) <= 20
    bids = np.insert(fixed, 1, scan.best_bid)
    assert scan.best_cost == pytest.approx(prosumer_cost(scenario, bids, 1),
                                           rel=1e-9, abs=1e-9)
    for b, cost in zip(scan.samples_b[::50], scan.samples_cost[::50]):
        bids[1] = b
        assert cost == pytest.approx(prosumer_cost(scenario, bids, 1),
                                     rel=1e-9, abs=1e-9), b


@pytest.mark.parametrize("size", [8, 12, 20])
def test_scan_clears_once_per_piece(monkeypatch, size):
    # more than 6 limited lines; the scan clears the market once, at its
    # first point, and each piece costs one held solve of its own set
    scenario = gen_scenario(1, size, "tight")
    eqm = equilibrium.improved_gne(scenario)
    calls, sets = [], []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return clear_market(*args, **kwargs)

    def slopes(scenario, i, sides):
        sets.append(sides)
        return clearing_slopes(scenario, i, sides)

    monkeypatch.setattr(brlab, "clear_market", counted)
    monkeypatch.setattr(brlab, "clearing_slopes", slopes)
    scan = best_response(scenario, 0, np.delete(eqm.b_bar, 0))
    assert len(calls) == 1
    assert len(sets) > 1
    # no piece starts on the held set it ended with
    assert not any((a == b).all() for a, b in zip(sets[:-1], sets[1:]))
    bids = eqm.b_bar.copy()
    bids[0] = scan.best_bid
    assert scan.best_cost == pytest.approx(prosumer_cost(scenario, bids, 0),
                                           rel=1e-9)


def price_on_path(path, t):
    """Prosumer ``i``'s price at bids ``t`` from a ``_clearing_path`` table."""
    starts, prices, slopes = path
    k = np.searchsorted(starts, t, side="right") - 1
    return prices[k] + slopes[k] * (t - starts[k])


def test_carried_starts_match_a_fresh_clearing(monkeypatch):
    # a 200-bus tight tree: the walk clears once, then carries the clearing
    # across every breakpoint; each carried start's price is a clearing's
    scenario = gen_scenario(1, 200, "tight")
    fixed = np.delete(equilibrium.improved_gne(scenario).b_bar, 0)
    grid = best_response(scenario, 0, fixed).samples_b
    b_base = np.insert(fixed, 0, 0.0)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return clear_market(*args, **kwargs)

    monkeypatch.setattr(brlab, "clear_market", counted)
    starts, prices, _ = brlab._clearing_path(scenario, 0, b_base, grid, grid[-1])
    assert len(calls) == 1 and starts.size > 20
    for t, lam in zip(starts, prices):
        ref = clear_market(scenario, np.insert(fixed, 0, t)).prices[0]
        assert lam == pytest.approx(ref, rel=1e-9), t


def test_a_scan_walks_to_the_end_of_its_interval(chain_f027):
    # one sample at the interval's left end: the walk still goes on to its
    # right end, and finds the minima that two samples find
    fixed = np.array([1.6, 0.8])
    one, two = (best_response(chain_f027, 1, fixed,
                              scan_config=ScanConfig(coarse_points=points))
                for points in (1, 2))
    assert one.interval == two.interval
    assert len(one.local_minima) == 2
    assert np.array(one.local_minima) == pytest.approx(
        np.array(two.local_minima), rel=1e-12)
    lo, hi = one.interval
    path = brlab._clearing_path(chain_f027, 1, np.insert(fixed, 1, 0.0),
                                np.array([lo]), hi)
    ref = clear_market(chain_f027, np.array([1.6, hi, 0.8])).prices[1]
    assert price_on_path(path, np.array([hi]))[0] == pytest.approx(ref, rel=1e-12)


@settings(max_examples=40)
@given(limited_scenarios(), st.integers(0, 2**32 - 1))
def test_clearing_path_matches_clear_market(scenario, seed):
    rng = np.random.default_rng(seed)
    n = scenario.size
    i = int(rng.integers(n))
    b_base = rng.uniform(-2.0, 3.0, n)
    b_base[i] = 0.0
    grid = np.linspace(-6.0, 9.0, 201)
    path = brlab._clearing_path(scenario, i, b_base, grid, grid[-1])
    starts = path[0]
    assert starts[0] == grid[0] and starts[-1] < grid[-1]
    assert (np.diff(starts) > 0.0).all()
    # random bids and the middle of every piece
    ends = np.append(starts[1:], grid[-1])
    t = np.concatenate([rng.uniform(-6.0, 9.0, 25), 0.5 * (starts + ends)])
    for tj, lam_j in zip(t, price_on_path(path, t)):
        bids = b_base.copy()
        bids[i] = tj
        ref = clear_market(scenario, bids).prices
        assert abs(lam_j - ref[i]) <= 1e-9 * (1.0 + np.abs(ref).max()), tj


@settings(max_examples=40)
@given(limited_scenarios(), st.integers(0, 2**32 - 1), st.booleans())
def test_walked_pieces_meet_and_the_best_cost_is_lowest(scenario, seed,
                                                        regulated):
    rng = np.random.default_rng(seed)
    n = scenario.size
    i = int(rng.integers(n))
    fixed = rng.uniform(-2.0, 3.0, n - 1)
    scan = best_response(scenario, i, fixed, regulated=regulated)
    b_base = np.insert(fixed, i, 0.0)
    starts, prices, slopes = brlab._clearing_path(scenario, i, b_base,
                                                  scan.samples_b, scan.interval[1])
    rounding = 1e-9 * (1.0 + np.abs(prices).max())
    reached = prices[:-1] + slopes[:-1] * np.diff(starts)
    assert np.abs(reached - prices[1:]).max(initial=0.0) <= rounding
    # every piece end: the starts and the scan's end
    edges = np.append(starts, scan.interval[1])
    lam = np.append(prices, prices[-1] + slopes[-1] * (edges[-1] - starts[-1]))
    ends = cost_at(scenario, lam, edges - scenario.a * lam, regulated, i)
    lowest = min(ends.min(), scan.samples_cost.min())
    assert scan.best_cost <= lowest + 1e-9 * (1.0 + abs(lowest))
    assert (scan.best_bid, scan.best_cost) in scan.local_minima
    bids = b_base.copy()
    bids[i] = scan.best_bid
    assert scan.best_cost == pytest.approx(
        prosumer_cost(scenario, bids, i, regulated), rel=1e-9, abs=1e-9)

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import equal_pair, limited_scenarios
from esharing import brlab, cases, equilibrium, market
from esharing.brlab import (
    ScanConfig,
    best_response,
    br_iteration,
    classify_gne_2bus,
    verify_gne,
    write_scan_csv,
)
from esharing.errors import (
    DimensionMismatch,
    IterationLimit,
    UnboundedCost,
)
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
    scan = best_response(chain_f027, 1, np.array([1.6, 0.8]), start=1.6)
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
    scan = best_response(chain_f03, 1, np.array([1.6, 0.8]), start=1.6)
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


@pytest.mark.parametrize("points", [0, -1])
def test_scan_config_refuses_fewer_than_one_point(points):
    with pytest.raises(ValueError, match="coarse_points"):
        ScanConfig(coarse_points=points)


def test_a_scan_of_one_point_reports_it(chain_f03):
    scan = best_response(chain_f03, 1, np.array([1.6, 0.8]),
                         scan_config=ScanConfig(coarse_points=1))
    assert scan.samples_b.shape == scan.samples_cost.shape == (1,)
    assert np.isfinite(scan.best_cost)


def test_scan_refuses_a_wrong_number_of_opponent_bids(chain_f03):
    with pytest.raises(DimensionMismatch):
        best_response(chain_f03, 1, np.array([1.6]))


@pytest.mark.parametrize("start", [math.nan, math.inf])
def test_scan_refuses_a_start_that_is_not_a_bid(chain_f03, start):
    with pytest.raises(ValueError, match="start must be a finite bid"):
        best_response(chain_f03, 1, np.array([1.6, 0.8]), start=start)


def walk_setup():
    """A 7-bus tight scan of prosumer 3 at the equilibrium bids: the
    scenario, the prosumer, its opponents' bids, its own bid (the walk's
    start), the bid vector with its slot zeroed, and the clean walk's piece
    table."""
    scenario, i = gen_scenario(1, 7, "tight"), 2
    b_bar = equilibrium.improved_gne(scenario).b_bar
    fixed, start = np.delete(b_bar, i), float(b_bar[i])
    b_base = np.insert(fixed, i, 0.0)
    return (scenario, i, fixed, start, b_base,
            brlab._clearing_path(scenario, i, b_base, start))


def breakpoints_right_of(path, start):
    """The finite piece edges of ``path`` right of ``start``: the carried
    starts of the walk to the right."""
    edges = path[0]
    return edges[np.isfinite(edges) & (edges > start)]


def perturbed_start(scenario, state):
    """``state`` with its first free line past its limit by far more than
    rounding at the 7-bus scan's bids."""
    price, flows, dual, side, sides = state
    net = scenario.network
    line = np.flatnonzero(side == 0)[0]
    flows = flows.copy()
    flows[line] = np.copysign(net.limits[net.bounded][line] + 1e-4, flows[line])
    return price, flows, dual, side, sides


def faulty_walk(monkeypatch, scenario, i, fault, target, stretch=math.inf):
    """Patch the walk so that the held solve refuses the set of the piece
    at ``target`` (``refuse-inner``) or of every piece that starts less
    than ``stretch`` past ``target`` (``refuse-last``), or so that every
    state at ``target`` is past a limit (``start-past-limit``).  Returns
    the lists that the walk fills: each piece's start, the faulty starts
    in order, and each clearing's bid."""
    at, faults, cleared = [], [], []
    piece = brlab._Walk.piece

    def note(t):
        if not faults or faults[-1] != t:
            faults.append(t)

    def faulty_piece(self, t, state, rates, direction):
        at.append(t)
        if fault == "start-past-limit" and t == target:
            note(t)
            state = perturbed_start(scenario, state)
        return piece(self, t, state, rates, direction)

    def slopes(scenario, i, sides):
        refuse = at and (0.0 <= at[-1] - target < stretch
                         if fault == "refuse-last" else
                         fault == "refuse-inner" and at[-1] == target)
        if refuse:
            note(at[-1])
            return None
        return clearing_slopes(scenario, i, sides)

    def clear(scenario, bids, active=None):
        cleared.append(bids[i])
        return clear_market(scenario, bids, active=active)

    monkeypatch.setattr(brlab._Walk, "piece", faulty_piece)
    monkeypatch.setattr(brlab, "clearing_slopes", slopes)
    monkeypatch.setattr(brlab, "clear_market", clear)
    return at, faults, cleared


@pytest.mark.parametrize("fault", ["refuse-inner", "refuse-last",
                                   "start-past-limit"])
def test_walk_steps_over_a_refused_or_violated_piece(monkeypatch, fault):
    # a held solve that refuses, or a start already past one of its
    # conditions, makes a piece of one point, carried and cleared afresh
    # alike: the walk steps past it, by a step that doubles while the
    # fresh pieces stay of one point, and the piece is the chord to there.
    # Past the last breakpoint every piece that starts within 40 of it is
    # refused, so that walk steps across those 40 and on to the end piece
    scenario, i, fixed, start, b_base, clean = walk_setup()
    ahead = breakpoints_right_of(clean, start)
    target = ahead[-1] if fault == "refuse-last" else ahead[len(ahead) // 2]
    _, faults, cleared = faulty_walk(monkeypatch, scenario, i, fault, target,
                                     stretch=40.0)
    path = brlab._clearing_path(scenario, i, b_base, start)
    # the target was a carried start; it was cleared afresh before the step
    assert cleared[:2] == [start, target]
    assert faults[0] == target
    walked = path[0]
    k = np.searchsorted(walked, faults)
    assert (walked[k] == faults).all()
    after = walked[k + 1]
    net = scenario.network
    scale = 1.0 + np.abs(b_base).sum() + net.limits[net.bounded].max()
    assert after[0] - target == pytest.approx(
        brlab._STEP * (scale + abs(target)), rel=1e-9)
    if fault == "refuse-last":
        # each step doubles the last, and the last one leaves the stretch
        assert (np.diff(after - walked[k]) > 0.0).all()
        assert walked[k][-1] < target + 40.0 <= after[-1]
        assert walked[-1] == math.inf
    else:
        assert len(faults) == 1
    # the path is affine across each stepped piece, so its chord is exact
    mids = 0.5 * (walked[k] + after)
    for t, lam in zip(mids, price_on_path(path, mids)):
        ref = clear_market(scenario, np.insert(fixed, i, t)).prices[i]
        assert lam == pytest.approx(ref, rel=1e-9), t
    # and so are the samples and the best bid
    scan = best_response(scenario, i, fixed, start=start,
                         scan_config=ScanConfig(coarse_points=101))
    bids = np.insert(fixed, i, 0.0)
    for b, cost in [*zip(scan.samples_b, scan.samples_cost),
                    (scan.best_bid, scan.best_cost)]:
        bids[i] = b
        assert cost == pytest.approx(prosumer_cost(scenario, bids, i),
                                     rel=1e-9), b


def test_an_unbounded_walk_gives_up_on_an_end_piece_it_cannot_solve(
        monkeypatch):
    # every piece past the last breakpoint is refused: a walk with no bound
    # doubles its step _MAX_STEPS times and then raises
    scenario, i, fixed, start, b_base, clean = walk_setup()
    target = breakpoints_right_of(clean, start)[-1]
    _, faults, cleared = faulty_walk(monkeypatch, scenario, i, "refuse-last",
                                     target)
    with pytest.raises(IterationLimit, match="refused prosumer 3's"):
        brlab._clearing_path(scenario, i, b_base, start)
    assert len(faults) == brlab._MAX_STEPS + 1
    assert cleared.index(target) == len(cleared) - brlab._MAX_STEPS - 1


def test_a_carried_start_past_a_limit_is_cleared_afresh(monkeypatch):
    # the condition check guards the carried state: a start that fails it
    # is cleared again at the same bid, guessing its held lines, and the
    # walk goes on from that clearing with no step
    scenario, i, fixed, start, b_base, clean = walk_setup()
    ahead = breakpoints_right_of(clean, start)
    target = ahead[len(ahead) // 2]
    piece, calls = brlab._Walk.piece, []

    def faulty_piece(self, t, state, rates, direction):
        if t == target and not calls[1:]:
            state = perturbed_start(scenario, state)
            calls.append(("carried", state[4]))
        return piece(self, t, state, rates, direction)

    def clear(scenario, bids, active=None):
        calls.append((bids[i], active))
        return clear_market(scenario, bids, active=active)

    monkeypatch.setattr(brlab._Walk, "piece", faulty_piece)
    monkeypatch.setattr(brlab, "clear_market", clear)
    path = brlab._clearing_path(scenario, i, b_base, start)
    assert [c[0] for c in calls] == [start, "carried", target]
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


def test_carried_starts_match_a_fresh_clearing(monkeypatch):
    # a 200-bus tight tree: the walk clears once, at the start, then
    # carries the clearing across every breakpoint on both sides; each
    # carried start's price is a clearing's
    scenario = gen_scenario(1, 200, "tight")
    b_bar = equilibrium.improved_gne(scenario).b_bar
    fixed = np.delete(b_bar, 0)
    b_base = np.insert(fixed, 0, 0.0)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return clear_market(*args, **kwargs)

    monkeypatch.setattr(brlab, "clear_market", counted)
    edges, anchors, prices, _ = brlab._clearing_path(scenario, 0, b_base,
                                                     float(b_bar[0]))
    assert len(calls) == 1 and anchors.size > 20
    assert (anchors < b_bar[0]).any() and (anchors > b_bar[0]).any()
    for t, lam in zip(anchors, prices):
        ref = clear_market(scenario, np.insert(fixed, 0, t)).prices[0]
        assert lam == pytest.approx(ref, rel=1e-9), t


def price_on_path(path, t):
    """Prosumer ``i``'s price at bids ``t`` from a ``_clearing_path`` table."""
    edges, anchors, prices, slopes = path
    k = np.searchsorted(edges, t, side="right").clip(1, anchors.size) - 1
    return prices[k] + slopes[k] * (t - anchors[k])


@settings(max_examples=40)
@given(limited_scenarios(), st.integers(0, 2**32 - 1))
def test_clearing_path_matches_clear_market(scenario, seed):
    rng = np.random.default_rng(seed)
    n = scenario.size
    i = int(rng.integers(n))
    b_base = rng.uniform(-2.0, 3.0, n)
    b_base[i] = 0.0
    start = float(rng.uniform(-6.0, 9.0))
    path = brlab._clearing_path(scenario, i, b_base, start)
    edges = path[0]
    assert edges[0] == -math.inf and edges[-1] == math.inf
    assert (np.diff(edges) > 0.0).all()
    # random bids, the middle of every bounded piece, and bids on the
    # unbounded ones, near and far
    inner = edges[1:-1] if edges.size > 2 else np.array([start])
    t = np.concatenate([rng.uniform(-6.0, 9.0, 25), 0.5 * (inner[1:] + inner[:-1]),
                        inner[0] - [1.0, 1e3], inner[-1] + [1.0, 1e3]])
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
    start = float(rng.uniform(-2.0, 3.0))
    scan = best_response(scenario, i, fixed, regulated=regulated, start=start)
    b_base = np.insert(fixed, i, 0.0)
    path = brlab._clearing_path(scenario, i, b_base, start)
    edges, anchors, prices, slopes = path
    inner = edges[1:-1]
    rounding = 1e-9 * (1.0 + np.abs(prices).max())
    reached = prices[:-1] + slopes[:-1] * (inner - anchors[:-1])
    left = prices[1:] + slopes[1:] * (inner - anchors[1:])
    assert np.abs(reached - left).max(initial=0.0) <= rounding
    # the reported interval holds the start, every breakpoint and every
    # minimum; no breakpoint and no sample costs less than the best
    lo, hi = scan.interval
    bids = np.array([start, *inner, *(b for b, _ in scan.local_minima)])
    assert lo <= bids.min() and bids.max() <= hi
    ends = cost_at(scenario, reached, inner - scenario.a * reached, regulated, i)
    lowest = min(ends.min(initial=np.inf), scan.samples_cost.min())
    assert scan.best_cost <= lowest + 1e-9 * (1.0 + abs(lowest))
    assert (scan.best_bid, scan.best_cost) in scan.local_minima
    bids = b_base.copy()
    bids[i] = scan.best_bid
    assert scan.best_cost == pytest.approx(
        prosumer_cost(scenario, bids, i, regulated), rel=1e-9, abs=1e-9)


@settings(max_examples=40)
@given(limited_scenarios(), st.integers(0, 2**32 - 1), st.booleans())
def test_a_scan_finds_the_same_minima_from_any_start(scenario, seed,
                                                     regulated):
    # started at the incumbent bid, left of every breakpoint or right of
    # them all, the walk crosses the same pieces; only a cost flat over the
    # whole bid line, whose minimum is the start, tells them apart
    rng = np.random.default_rng(seed)
    n = scenario.size
    i = int(rng.integers(n))
    b = rng.uniform(-2.0, 3.0, n)
    fixed = np.delete(b, i)
    edges = brlab._clearing_path(scenario, i, np.insert(fixed, i, 0.0),
                                 float(b[i]))[0]
    marks = np.append(edges[1:-1], b[i])
    starts = (float(b[i]), marks.min() - 10.0, marks.max() + 10.0)
    scans = [best_response(scenario, i, fixed, regulated=regulated, start=s)
             for s in starts]
    first = np.array(scans[0].local_minima)
    for start, scan in zip(starts[1:], scans[1:]):
        minima = np.array(scan.local_minima)
        assert minima.shape == first.shape
        if edges.size == 2 and minima[0, 0] == start:
            minima[0, 0] = first[0, 0]
        assert minima == pytest.approx(first, rel=1e-9, abs=1e-9)


def test_a_cost_that_falls_without_bound_is_refused(chain_f027):
    # a path whose purchase stays at -1 on both end pieces while the price
    # rises at 1/a: the payment falls toward the right end without bound.
    # No clearing path does this; the scan refuses it rather than report a
    # minimum
    a = chain_f027.a
    path = (np.array([-math.inf, 0.0, math.inf]), np.zeros(2), np.full(2, 1.0 / a),
            np.full(2, 1.0 / a))
    with pytest.raises(UnboundedCost, match=r"prosumer 2 .* to \+infinity"):
        brlab._minimum_points(chain_f027, 1, False, path, 0.0)
    mirror = (path[0], path[1], -path[2], path[3])
    with pytest.raises(UnboundedCost, match=r"to -infinity"):
        brlab._minimum_points(chain_f027, 1, False, mirror, 0.0)


def test_verify_clears_each_scan_start_in_one_held_solve(monkeypatch):
    # each scan starts at the incumbent bid and guesses the incumbent
    # clearing's held lines, which are right there
    scenario = gen_scenario(7, 38, "tight")
    b_bar = equilibrium.improved_gne(scenario).b_bar
    held, solves, clears = market._held_solve, [0], []

    def counted_solve(*args):
        solves[0] += 1
        return held(*args)

    def counted_clear(*args, **kwargs):
        before = solves[0]
        out = clear_market(*args, **kwargs)
        clears.append(solves[0] - before)
        return out

    monkeypatch.setattr(market, "_held_solve", counted_solve)
    monkeypatch.setattr(brlab, "clear_market", counted_clear)
    verify_gne(scenario, b_bar)
    assert len(clears) == 1 + scenario.size  # the incumbent's, then each scan's
    assert clears[1:] == [1] * scenario.size

"""End-to-end acceptance checks, one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; with ``-s`` each criterion also prints its verdict.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from esharing import brlab, equilibrium
from esharing.bidding import BiddingConfig, fejer_check, run_bidding
from esharing.market import clear_market, clearing_kkt_residual
from esharing.network import line_flows
from esharing.scenario_io import gen_scenario, load_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def fixture(name):
    return load_scenario(os.path.join(SCENARIO_DIR, name))


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {title}: FAIL")
        raise
    print(f"[criterion {number}] {title}: PASS")


def test_criterion_1_gne_on_uncongested_pair():
    scenario = fixture("two_prosumer_f10.json")
    with criterion(1, "two-prosumer equilibrium, limit 10"):
        started = time.perf_counter()
        eqm = equilibrium.improved_gne(scenario)
        elapsed = time.perf_counter() - started
        assert eqm.p_bar == pytest.approx([109.6, 190.4], abs=0.05)
        assert eqm.b_bar == pytest.approx([10.78, 30.04], abs=0.05)
        assert elapsed < 1.0


def test_criterion_2_gne_on_congested_pair():
    scenario = fixture("two_prosumer_f5.json")
    with criterion(2, "two-prosumer equilibrium, limit 5"):
        eqm = equilibrium.improved_gne(scenario)
        assert eqm.p_bar == pytest.approx([105.0, 195.0], abs=0.05)
        assert eqm.b_bar == pytest.approx([10.50, 30.60], abs=0.05)
        assert eqm.costs[1] == pytest.approx(381.3, abs=0.1)
        costs, _ = equilibrium.self_sufficiency(scenario)
        assert costs == pytest.approx([72.0, 384.0], abs=1e-9)


def test_criterion_3_social_optimum():
    scenario = fixture("two_prosumer_f10.json")
    with criterion(3, "social optimum, limit 10"):
        so = equilibrium.social_optimum(scenario)
        assert so.p_tilde == pytest.approx([110.0, 190.0], abs=0.05)
        assert so.cost_per_prosumer == pytest.approx([82.5, 353.4], abs=0.1)


def test_criterion_4_best_response_laboratory():
    with criterion(4, "best-response laboratory"):
        # (i) ample capacity: the constructed point is a verified equilibrium
        chain = fixture("chain_f030.json")
        eqm = equilibrium.improved_gne(chain)
        assert eqm.p_bar == pytest.approx([11 / 15, 11 / 15, 8 / 15],
                                          abs=1e-3)
        assert eqm.b_bar == pytest.approx([1.6, 1.6, 0.8], abs=1e-3)
        assert brlab.verify_gne(chain, eqm.b_bar).is_gne

        # (ii) tightened line: a profitable deviation appears and is found
        tight = fixture("chain_f027.json")
        check = brlab.verify_gne(tight, np.array([1.6, 1.6, 0.8]))
        assert not check.is_gne
        assert check.best_bids[1] == pytest.approx(1.535, abs=1e-9)
        scan = brlab.best_response(tight, 1, np.array([1.6, 0.8]),
                                   include=(1.6,))
        costs = dict(scan.local_minima)
        dev_cost = min(costs.values())
        incumbent = max(costs.values())
        assert dev_cost == pytest.approx(0.8918875, abs=1e-9)
        assert incumbent == pytest.approx(67 / 75, abs=1e-9)
        assert dev_cost < incumbent

        # (iii) an interval of equilibria at the sellers' boundary
        family = fixture("chain_multi.json")
        for bids in ([1.18, 1.68, 1.68], [1.22, 1.72, 1.72]):
            bids = np.asarray(bids)
            assert brlab.verify_gne(family, bids, tol=1e-5).is_gne, bids
            out = clear_market(family, bids)
            production = family.D - out.quantities
            assert production == pytest.approx([1 / 3, 5 / 6, 5 / 6],
                                               abs=1e-3)


def test_criterion_5_bidding_protocol():
    scenario = fixture("two_prosumer_f5.json")
    with criterion(5, "distributed bidding protocol"):
        eqm = equilibrium.improved_gne(scenario)
        started = time.perf_counter()
        result = run_bidding(scenario, BiddingConfig(epsilon=1e-4))
        elapsed = time.perf_counter() - started
        assert result.iterations <= 50
        assert np.abs(result.bids - eqm.b_bar).max() <= 1e-3
        assert np.abs(result.production - eqm.p_bar).max() <= 1e-3
        report = fejer_check(result.trace, eqm)
        assert report.monotone
        assert elapsed < 1.0


def _slope_check(scenario, rng):
    """Own-bid sensitivity of the cleared quantity, away from breakpoints."""
    bids = rng.uniform(-1.0, 1.0, scenario.size) * (
        1.0 + np.abs(scenario.D).max())
    i = int(rng.integers(0, scenario.size))
    h = 1e-5 * (1.0 + np.abs(bids).max())
    outs = []
    patterns = []
    for delta in (h, -h):
        shifted = bids.copy()
        shifted[i] += delta
        out = clear_market(scenario, shifted)
        limits = scenario.network.limits
        pattern = (tuple(np.flatnonzero(out.flows >= limits - 1e-6)),
                   tuple(np.flatnonzero(out.flows <= -limits + 1e-6)))
        outs.append(out)
        patterns.append(pattern)
    if patterns[0] != patterns[1]:
        return None  # straddling a breakpoint; sensitivity is one-sided here
    return (outs[0].quantities[i] - outs[1].quantities[i]) / (2.0 * h)


def test_criterion_6_randomized_invariants():
    with criterion(6, "randomized scenario invariants"):
        started = time.perf_counter()
        records = []
        slopes_checked = 0
        seed = 0
        for size in range(2, 21):
            for repeat in range(3):
                seed += 1
                style = "tight" if repeat == 2 else "default"
                scenario = gen_scenario(seed, size, style=style)
                eqm = equilibrium.improved_gne(scenario)

                # (a) nobody is worse off than standing alone
                standalone = scenario.disutility(scenario.D)
                assert np.all(eqm.costs <= standalone + 1e-8)

                # (b) efficiency loss is bounded
                report = equilibrium.poa(scenario)
                assert report["poa_value"] >= 1.0 - 1e-9
                assert report["upper_bound"] is not None
                assert report["poa_value"] <= report["upper_bound"] + 1e-6
                records.append((size, report["poa_value"]))

                # (c) prices decompose into energy and congestion parts
                assert equilibrium.price_structure_residual(
                    scenario, eqm) <= 1e-6
                rent = equilibrium.congestion_rent(scenario, eqm)
                assert abs(eqm.net_payment - rent) <= 1e-6
                assert eqm.net_payment >= -1e-9

                # (d) the demand rule never overreacts to one bid
                rng = np.random.default_rng(seed)
                slope = _slope_check(scenario, rng)
                if slope is not None:
                    top = (scenario.size - 1) / scenario.size
                    assert -1e-6 <= slope <= top + 1e-6
                    slopes_checked += 1

                # (e) clearing the equilibrium bids is first-order optimal
                out = clear_market(scenario, eqm.b_bar)
                assert clearing_kkt_residual(scenario, eqm.b_bar,
                                             out) <= 1e-8

                # (f) the construction is self-consistent under re-clearing
                assert np.abs(out.prices - eqm.lambda_r).max() <= 1e-6

        assert len(records) >= 50
        assert slopes_checked >= 30
        sizes = [r[0] for r in records]
        values = [r[1] for r in records]
        rho = stats.spearmanr(sizes, values).statistic
        assert rho < 0.0
        assert time.perf_counter() - started < 120.0


def test_criterion_7_declared_gaps_are_documented():
    readme = os.path.join(SCENARIO_DIR, os.pardir, "README.md")
    with criterion(7, "declared gaps documented"):
        with open(readme) as fh:
            text = fh.read()
        assert "38-bus" in text
        assert "4 iterations" in text
        # the engine itself handles networks of that size; only the original
        # feeder data is missing, so exercise a generated stand-in
        scenario = gen_scenario(38, 38, style="tight")
        eqm = equilibrium.improved_gne(scenario)
        assert eqm.clearing_residual <= 1e-6
        assert equilibrium.price_structure_residual(scenario, eqm) <= 1e-6
        flows = line_flows(scenario.network, scenario.D - eqm.p_bar)
        assert np.all(np.abs(flows) <= scenario.network.limits + 1e-8)

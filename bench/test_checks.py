"""Each output check passes on real output and fails on a perturbed copy.

    python3 -m pytest bench/test_checks.py -q
"""

import copy
import json

import benchenv  # noqa: F401
import numpy as np
import pytest

from esharing import cases, cli, equilibrium

import checks
import workloads


def command(argv) -> dict:
    report, code = cli.run_command(argv)
    assert code == 0
    return json.loads(cli.render_report(report, "json"))


@pytest.fixture(scope="module")
def gne_case(tmp_path_factory):
    root = tmp_path_factory.mktemp("gne")
    scenario = workloads.perturbed(5, 12, 7)
    (root / "in").mkdir()
    workloads.dump(scenario, str(root / "in" / "s.json"))
    command(["batch", "--dir", str(root / "in"), "--out", str(root / "out")])
    report = json.loads((root / "out" / "s.report.json").read_text())
    return scenario, report


def perturb(report, key, index, delta):
    bad = copy.deepcopy(report)
    target = bad["results"]
    *path, last = key.split(".")
    for part in path:
        target = target[part]
    if index is None:
        target[last] += delta
    else:
        target[last][index] += delta
    return bad


def test_gne_report_passes(gne_case):
    scenario, report = gne_case
    assert checks.check_gne_report(scenario, report) == []


@pytest.mark.parametrize("key,index,delta", [
    ("lambda_r", 0, 1e-4),
    ("p_bar", 3, 1e-4),
    ("b_bar", 5, 1e-4),
    ("kappa", None, 1e-4),
    ("costs", 2, 1e-4),
    ("net_payment", None, 1e-3),
    ("poa.poa_value", None, -1.0),
    ("poa.equilibrium_cost", None, 1e-3),
])
def test_gne_report_perturbed_fails(gne_case, key, index, delta):
    scenario, report = gne_case
    assert checks.check_gne_report(scenario, perturb(report, key, index, delta))


def test_gne_report_moved_flow_dual_fails(gne_case):
    scenario, report = gne_case
    bad = copy.deepcopy(report)
    tau = bad["results"]["tau_upper"]
    tau[int(np.argmax(tau))] *= 1.0 + 1e-4
    assert checks.check_gne_report(scenario, bad)


def test_flow_map_matches_the_package():
    scenario = workloads.perturbed(1, 20, 3)
    assert np.abs(checks.flow_map(scenario) - scenario.network.ptdf).max() < 1e-12


@pytest.fixture(scope="module")
def bid_case(tmp_path_factory):
    root = tmp_path_factory.mktemp("bid")
    scenario = workloads.perturbed(2, 12, 1)
    path = str(root / "s.json")
    workloads.dump(scenario, path)
    trace_path = str(root / "trace.csv")
    results = command(["bid", path, "--trace", trace_path])["results"]
    return scenario, results, checks.read_trace(trace_path), \
        equilibrium.improved_gne(scenario)


def test_bid_passes(bid_case):
    assert checks.check_bid(*bid_case) == []


def test_bid_off_equilibrium_fails(bid_case):
    scenario, results, trace, eqm = bid_case
    bad = dict(results, bids=list(np.asarray(results["bids"]) + 1e-3))
    assert checks.check_bid(scenario, bad, trace, eqm)


def test_bid_not_converged_fails(bid_case):
    scenario, results, trace, eqm = bid_case
    bad = dict(results, final_delta=1.0)
    assert checks.check_bid(scenario, bad, trace, eqm)


def test_bid_trace_not_fejer_fails(bid_case):
    scenario, results, trace, eqm = bid_case
    bad = {key: value.copy() for key, value in trace.items()}
    bad["b"][len(bad["b"]) // 2] += 1.0
    assert checks.check_bid(scenario, results, bad, eqm)


@pytest.fixture(scope="module")
def scan_case(tmp_path_factory):
    root = tmp_path_factory.mktemp("scan")
    scenario = workloads.perturbed(3, 5, 1)
    path = str(root / "s.json")
    workloads.dump(scenario, path)
    eqm = equilibrium.improved_gne(scenario)
    bids = ",".join(repr(float(b)) for b in eqm.b_bar)
    results = command(["brlab", path, "--prosumer", "2", "--fix-bids", bids,
                       "--regulated"])["results"]
    return scenario, results, eqm


def test_scan_passes(scan_case):
    scenario, results, eqm = scan_case
    incumbent = checks.regulated_cost_at(scenario, eqm, 1)
    assert checks.check_scan(scenario, results, 1, eqm.b_bar, True, incumbent) == []


def test_scan_wrong_cost_fails(scan_case):
    scenario, results, eqm = scan_case
    best = results["best_cost"] + 1e-4
    bad = dict(results, best_cost=best,
               local_minima=[[b, best] for b, _ in results["local_minima"]])
    assert checks.check_scan(scenario, bad, 1, eqm.b_bar, True)


def test_scan_deviation_gain_fails(scan_case):
    scenario, results, eqm = scan_case
    gainful = results["best_cost"] + 1e-3  # an incumbent the scan beats
    assert checks.check_scan(scenario, results, 1, eqm.b_bar, True, gainful)


def test_scan_off_equilibrium_bids_fail(scan_case):
    scenario, results, eqm = scan_case
    off = 1.2 * eqm.b_bar  # opponents away from their equilibrium bids
    assert checks.check_scan(scenario, results, 1, off, True)


@pytest.mark.parametrize("limit", workloads.CHAIN_LIMITS)
def test_chain(tmp_path, limit):
    path = str(tmp_path / "chain.json")
    workloads.dump(cases.three_bus_chain(1.0, (1.0, 1.0, 0.0), limit), path)
    results = command(["brlab", path, "--prosumer", "2", "--fix-bids",
                       "1.6,1.6,0.8"])["results"]
    assert checks.check_chain(results, limit) == []
    other = 0.27 if limit == 0.30 else 0.30
    assert checks.check_chain(results, other)
    single = dict(results, local_minima=results["local_minima"][-1:])
    if limit == 0.27:
        assert checks.check_chain(single, limit)

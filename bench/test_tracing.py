"""The tracer's counts agree with what the commands report.

    python3 -m pytest bench/test_tracing.py -q
"""

import json

import benchenv  # noqa: F401
import pytest

from esharing import brlab, cli, qp

import tracing
import workloads


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_bid_counts(tmp_path, tracer):
    path = str(tmp_path / "s.json")
    workloads.dump(workloads.perturbed(1, 12, 2), path)
    report, code = cli.run_command(["bid", path])
    assert code == 0
    results = json.loads(cli.render_report(report, "json"))["results"]
    m = tracer.metrics()
    assert m["bidding.rounds"] == results["iterations"]
    assert m["qp.solve_calls"] == m["qp.phase1_lp_calls"] > 0
    assert m["equilibrium.central_calls"] == 1
    assert 0 < m["qp.phase1_lp_s"] < m["qp.solve_s"]


def test_scan_fallback_clears(tracer):
    # 8 buses give 7 limited lines, above the pattern path's limit of 6
    scenario = workloads.perturbed(1, 8, 1)
    config = brlab.ScanConfig(coarse_points=41, refine_rounds=1)
    brlab.best_response(scenario, 0, [1.0] * 7, scan_config=config)
    m = tracer.metrics()
    assert m["brlab.scans"] == 1
    assert m["brlab.fallback_clears"] == m["market.clear_calls"] > 0


def test_uninstall_restores_functions():
    original = qp.linprog
    t = tracing.Tracer()
    t.install()
    assert qp.linprog is not original
    t.uninstall()
    assert qp.linprog is original

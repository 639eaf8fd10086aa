"""What ``import esharing`` loads, and the names it resolves on first use."""

import json
import subprocess
import sys

import pytest

import esharing
from esharing import cases
from esharing.scenario_io import dump_scenario

# ``esharing.__all__`` as it was when every module loaded with the package
ALL = [
    "BestResponseScan", "BiddingConfig", "BiddingResult", "BiddingTrace",
    "BrTrajectory", "ClearingOutcome", "DegenerateBaseline",
    "DimensionMismatch", "DisconnectedGraph", "EquilibriumResult",
    "EsharingError", "FejerReport", "FileError", "GneCheck",
    "GneClassification2Bus", "Infeasible", "IterationLimit", "LineSpec",
    "MaxIterExceeded", "NetworkModel", "NonRadialWarning", "NonpositiveWeight",
    "PriceTakingEquilibrium", "Prosumer", "ScanConfig", "ScanIntervalEmpty",
    "Scenario", "SocialOptimum", "TooFewProsumers", "UnbalancedInjection",
    "VariationalEquilibrium", "WeakSensitivityWarning", "a_min",
    "best_response", "bidding", "br_iteration", "brlab", "build_network",
    "central_solution", "classify_gne_2bus", "clear_market",
    "clearing_kkt_residual", "congestion_rent", "dc_flow_oracle",
    "dump_scenario", "equilibrium", "errors", "fejer_check", "gen_scenario",
    "improved_gne", "is_radial", "line_flows", "load_scenario", "market",
    "network", "pareto_check", "platform_update", "poa",
    "price_structure_residual", "price_taking_equilibrium", "prosumer_cost",
    "prosumer_update", "run_bidding", "scenario_from_dict", "scenario_io",
    "scenario_to_dict", "self_sufficiency", "social_optimum", "tree",
    "variational_equilibrium", "verify_gne", "write_scan_csv",
    "write_trace_csv",
]
# the module each command loads when it runs
LAZY = {"bid": "esharing.bidding", "brlab": "esharing.brlab"}
LOADED = f"print(sorted(set({sorted(LAZY.values())!r}) & set(sys.modules)))"


def _fresh(script: str) -> str:
    """The standard output of ``script`` run in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True).stdout


@pytest.mark.parametrize("module", ["esharing", "esharing.cli"])
def test_importing_loads_neither_bidding_nor_brlab(module):
    assert _fresh(f"import sys, {module}; {LOADED}") == "[]\n"


def test_the_lazy_names_resolve_in_their_modules():
    out = _fresh("""if True:
        import esharing
        assert esharing.run_bidding is esharing.bidding.run_bidding
        assert callable(esharing.brlab.best_response)
        assert esharing.ScanConfig is esharing.brlab.ScanConfig
        # a name looked up is not stored, so that a function patched in
        # its module is seen as patched
        assert "run_bidding" not in vars(esharing)
        try:
            esharing.no_such_name
        except AttributeError as exc:
            print(exc)
        print(set(esharing.__all__) <= set(dir(esharing)))
    """)
    assert out.splitlines() == [
        "module 'esharing' has no attribute 'no_such_name'", "True"]


def test_star_import_binds_every_public_name():
    names = {}
    exec("from esharing import *", names)
    assert sorted(esharing.__all__) == ALL
    assert set(ALL) <= set(names)
    assert all(names[name] is getattr(esharing, name) for name in ALL)


@pytest.mark.parametrize("argv", [
    ["bid", "{f}"], ["brlab", "{f}", "--prosumer", "2", "--fix-bids", "1,1,1"],
    ["brlab", "{f}", "--verify", "1,1,1"],
], ids=["bid", "brlab-scan", "brlab-verify"])
def test_bid_and_brlab_run_first_in_a_fresh_interpreter(argv, tmp_path):
    # a below a_min: bid warns, on one labelled line, that it may not settle
    path = str(tmp_path / "weak.json")
    dump_scenario(cases.three_bus_chain(1.0, (1.0, 1.0, 0.0), 0.3, a=0.2), path)
    argv = [arg.replace("{f}", path) for arg in argv]
    proc = subprocess.run([sys.executable, "-c", (
        "import sys, esharing.cli; code = esharing.cli.main(sys.argv[1:]); "
        f"sys.stdout = sys.stderr; {LOADED}; sys.exit(code)"), *argv],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == argv[0]
    *warned, loaded = proc.stderr.splitlines()
    assert loaded == str([LAZY[argv[0]]])
    if argv[0] == "bid":
        assert len(warned) == 1 and warned[0].startswith("warning: ")
    else:
        assert warned == []

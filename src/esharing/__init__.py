"""Equilibrium engine for networked energy-sharing markets.

A platform clears bilateral energy trades among prosumers with an affine
demand rule under DC power-flow limits, and regulates the resulting
locational prices so that a socially attractive equilibrium of the bidding
game exists.  The package computes that equilibrium, the social optimum,
the variational and price-taking benchmarks, runs the iterative bidding
protocol, and provides a best-response laboratory for studying the
unregulated game.

``bidding`` and ``brlab`` load when one of their names is first read; the
other modules load with the package.
"""

import importlib

from .equilibrium import (
    EquilibriumResult,
    PriceTakingEquilibrium,
    SocialOptimum,
    VariationalEquilibrium,
    central_solution,
    congestion_rent,
    improved_gne,
    pareto_check,
    poa,
    price_structure_residual,
    price_taking_equilibrium,
    self_sufficiency,
    social_optimum,
    variational_equilibrium,
)
from .errors import (
    DegenerateBaseline,
    DimensionMismatch,
    DisconnectedGraph,
    EsharingError,
    FileError,
    Infeasible,
    IterationLimit,
    MaxIterExceeded,
    NonpositiveWeight,
    NonRadialWarning,
    ScanIntervalEmpty,
    TooFewProsumers,
    UnbalancedInjection,
    WeakSensitivityWarning,
)
from .market import (
    ClearingOutcome,
    Prosumer,
    Scenario,
    clear_market,
    clearing_kkt_residual,
    prosumer_cost,
)
from .network import (
    LineSpec,
    NetworkModel,
    build_network,
    dc_flow_oracle,
    is_radial,
    line_flows,
)
from .scenario_io import (
    dump_scenario,
    gen_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

__version__ = "0.1.0"

# name -> its module, for the names of the two modules that only the ``bid``
# and ``brlab`` commands run, and for the modules themselves
_LAZY = {
    **dict.fromkeys((
        "bidding", "BiddingConfig", "BiddingResult", "BiddingTrace",
        "FejerReport", "a_min", "fejer_check", "platform_update",
        "prosumer_update", "run_bidding", "write_trace_csv",
    ), "bidding"),
    **dict.fromkeys((
        "brlab", "BestResponseScan", "BrTrajectory", "GneCheck",
        "GneClassification2Bus", "ScanConfig", "best_response",
        "br_iteration", "classify_gne_2bus", "verify_gne", "write_scan_csv",
    ), "brlab"),
}

__all__ = [
    # modules
    "equilibrium", "errors", "market", "network", "scenario_io", "tree",
    # equilibrium
    "EquilibriumResult", "PriceTakingEquilibrium", "SocialOptimum",
    "VariationalEquilibrium", "central_solution", "congestion_rent",
    "improved_gne", "pareto_check", "poa", "price_structure_residual",
    "price_taking_equilibrium", "self_sufficiency", "social_optimum",
    "variational_equilibrium",
    # errors
    "DegenerateBaseline", "DimensionMismatch", "DisconnectedGraph",
    "EsharingError", "FileError", "Infeasible", "IterationLimit",
    "MaxIterExceeded", "NonpositiveWeight", "NonRadialWarning",
    "ScanIntervalEmpty", "TooFewProsumers", "UnbalancedInjection",
    "WeakSensitivityWarning",
    # market
    "ClearingOutcome", "Prosumer", "Scenario", "clear_market",
    "clearing_kkt_residual", "prosumer_cost",
    # network
    "LineSpec", "NetworkModel", "build_network", "dc_flow_oracle",
    "is_radial", "line_flows",
    # scenario_io
    "dump_scenario", "gen_scenario", "load_scenario", "scenario_from_dict",
    "scenario_to_dict",
    # bidding and brlab
    *_LAZY,
]


def __getattr__(name: str):
    """A name of ``bidding`` or ``brlab``, or the module, looked up in it
    on each read and never stored here: a function patched in its module
    is seen as patched."""
    try:
        home = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})

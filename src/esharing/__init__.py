"""Equilibrium engine for networked energy-sharing markets.

A platform clears bilateral energy trades among prosumers with an affine
demand rule under DC power-flow limits, and regulates the resulting
locational prices so that a socially attractive equilibrium of the bidding
game exists.  The package computes that equilibrium, the social optimum,
the variational and price-taking benchmarks, runs the iterative bidding
protocol, and provides a best-response laboratory for studying the
unregulated game.
"""

from .bidding import (
    BiddingConfig,
    BiddingResult,
    BiddingTrace,
    FejerReport,
    a_min,
    fejer_check,
    platform_update,
    prosumer_update,
    run_bidding,
    write_trace_csv,
)
from .brlab import (
    BestResponseScan,
    BrTrajectory,
    GneCheck,
    GneClassification2Bus,
    ScanConfig,
    best_response,
    br_iteration,
    classify_gne_2bus,
    verify_gne,
    write_scan_csv,
)
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

__all__ = [name for name in dir() if not name.startswith("_")]

"""Per-layer spans recorded from outside the program.

The package's modules import each other's functions by name
(``from .qp import solve_qp``), so a function is wrapped in every module
namespace that holds it, which is where the calling code looks it up.
Every public function of a layer module is wrapped, together with
``scipy.optimize.linprog`` as seen from ``esharing.qp`` (the phase-1 LP).

Each span adds its duration to its function's inclusive time and to its
parent span's child time; a layer's self time is the sum of its spans'
durations minus their children.  Spans live in memory only and the tracer
is switched off while the benchmark checks outputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("network", "scenario_io", "cli", "qp", "market", "equilibrium",
          "bidding", "brlab")
PHASE1 = "qp.phase1_lp"
SOLVE = "qp.solve_qp"
CLEAR = "market.clear_market"
PLATFORM = "bidding.platform_update"
SCAN = "brlab.best_response"

# name -> unit, in the order they are reported
METRICS = {
    "qp.solve_calls": "count",
    "qp.solve_s": "s",
    "qp.iterations": "count",
    "qp.self_s": "s",
    "qp.residual_max": "1",
    "qp.phase1_lp_calls": "count",
    "qp.phase1_lp_s": "s",
    "market.clear_calls": "count",
    "market.clear_s": "s",
    "market.clear_fast_ratio": "1",
    "bidding.rounds": "count",
    "bidding.platform_s": "s",
    "bidding.platform_fast_ratio": "1",
    "bidding.prosumer_s": "s",
    "brlab.scans": "count",
    "brlab.scan_s": "s",
    "brlab.fallback_clears": "count",
    "equilibrium.central_calls": "count",
    "equilibrium.central_s": "s",
    "equilibrium.social_s": "s",
    "equilibrium.gne_s": "s",
    "network.build_s": "s",
    "scenario_io.load_s": "s",
    "cli.self_s": "s",
}


class Tracer:
    """Wraps the package's public functions and accumulates span totals."""

    def __init__(self):
        self.enabled = False
        self._patches = []  # (module, attribute, original)
        self._stack = []    # open spans: [child_time]
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.no_qp = Counter()      # spans of a name that ran no solve_qp
        self.qp_iterations = 0
        self.qp_residual_max = 0.0
        self.scan_clears = 0        # clear_market spans inside best_response
        self._scan_depth = 0

    def _wrap(self, key: str, layer: str, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            solves_before = self.calls[SOLVE]
            self._stack.append(frame)
            scan = key == SCAN
            self._scan_depth += scan
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self._stack.pop()
                self._scan_depth -= scan
                self.calls[key] += 1
                self.inclusive[key] += elapsed
                self.layer_self[layer] += elapsed - frame[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
            if self.calls[SOLVE] == solves_before:
                self.no_qp[key] += 1
            if key == SOLVE:
                self.qp_iterations += result.iterations
                self.qp_residual_max = max(self.qp_residual_max,
                                           float(result.residual))
            elif key == CLEAR and self._scan_depth:
                self.scan_clears += 1
            return result
        return span

    def install(self):
        """Replace every reference to a wrapped function in the package."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"esharing.{layer}")
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", layer, fn)
        qp = importlib.import_module("esharing.qp")
        self._patch(qp, "linprog", self._wrap(PHASE1, "phase1", qp.linprog))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "esharing" and not mod_name.startswith("esharing."):
                continue
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, name, wrappers[id(value)])
        self.enabled = True

    def _patch(self, mod, name, wrapper):
        self._patches.append((mod, name, getattr(mod, name)))
        setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()
        self.enabled = False

    def metrics(self) -> dict:
        """Totals since the last reset, under the names of ``METRICS``."""
        calls, incl = self.calls, self.inclusive

        def ratio(key):
            return self.no_qp[key] / calls[key] if calls[key] else 0.0

        return {
            "qp.solve_calls": calls[SOLVE],
            "qp.solve_s": incl[SOLVE],
            "qp.iterations": self.qp_iterations,
            "qp.self_s": incl[SOLVE] - incl[PHASE1],
            "qp.residual_max": self.qp_residual_max,
            "qp.phase1_lp_calls": calls[PHASE1],
            "qp.phase1_lp_s": incl[PHASE1],
            "market.clear_calls": calls[CLEAR],
            "market.clear_s": incl[CLEAR],
            "market.clear_fast_ratio": ratio(CLEAR),
            "bidding.rounds": calls[PLATFORM],
            "bidding.platform_s": incl[PLATFORM],
            "bidding.platform_fast_ratio": ratio(PLATFORM),
            "bidding.prosumer_s": incl["bidding.prosumer_update"],
            "brlab.scans": calls[SCAN],
            "brlab.scan_s": incl[SCAN],
            "brlab.fallback_clears": self.scan_clears,
            "equilibrium.central_calls": calls["equilibrium.central_solution"],
            "equilibrium.central_s": incl["equilibrium.central_solution"],
            "equilibrium.social_s": incl["equilibrium.social_optimum"],
            "equilibrium.gne_s": incl["equilibrium.improved_gne"],
            "network.build_s": incl["network.build_network"],
            "scenario_io.load_s": incl["scenario_io.load_scenario"],
            "cli.self_s": self.layer_self["cli"],
        }

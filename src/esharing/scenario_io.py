"""Scenario file format (versioned JSON) and the seeded random generator.

Schema, version "1"::

    {
      "version": "1",
      "units": "kW and $/kWh",            # free text, informational
      "labels": {"name": "..."},           # optional
      "a": 10.0,
      "network": {
        "bus_count": 2,
        "slack": 2,
        "lines": [{"from": 1, "to": 2, "weight": 1.0, "limit": 5.0}]
      },
      "prosumers": [
        {"c": 0.003, "d": 0.42, "D": 100.0},         # optional p0, E0, D0
        ...
      ]
    }

``limit: null`` encodes an unlimited line (the in-memory value is infinity),
keeping files standard JSON.  Every other number field takes a JSON number,
never a boolean, a string or null; bus numbers and counts must have whole
values.  Serialization is canonical (sorted keys, fixed separators), so
identical scenarios produce identical bytes.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import FileError
from .market import Prosumer, Scenario
from .network import LineSpec, build_network

SCHEMA_VERSION = "1"


def scenario_to_dict(scenario: Scenario, units: str = "",
                     labels: dict | None = None) -> dict:
    net = scenario.network
    doc = {
        "version": SCHEMA_VERSION,
        "units": units,
        "a": float(scenario.a),
        "network": {
            "bus_count": net.bus_count,
            "slack": net.slack,
            "lines": [
                {
                    "from": ln.from_bus,
                    "to": ln.to_bus,
                    "weight": float(ln.weight),
                    "limit": None if math.isinf(ln.limit) else float(ln.limit),
                }
                for ln in net.lines
            ],
        },
        "prosumers": [
            _prosumer_to_dict(p) for p in scenario.prosumers
        ],
    }
    if labels:
        doc["labels"] = dict(labels)
    return doc


def _prosumer_to_dict(p: Prosumer) -> dict:
    entry = {"c": float(p.c), "d": float(p.d), "D": float(p.demand_reduction)}
    if p.base_production is not None:
        entry["p0"] = float(p.base_production)
        entry["E0"] = float(p.base_purchase)
        entry["D0"] = float(p.base_demand)
    return entry


def scenario_from_dict(doc: dict) -> Scenario:
    try:
        version = doc["version"]
        if str(version) != SCHEMA_VERSION:
            raise FileError(f"unsupported scenario version {version!r}")
        netdoc = doc["network"]
        lines = []
        for ld in netdoc["lines"]:
            limit = ld.get("limit")
            lines.append(LineSpec(
                _whole(ld["from"], "from"), _whole(ld["to"], "to"),
                _number(ld["weight"], "weight") if "weight" in ld else 1.0,
                math.inf if limit is None else _number(limit, "limit")))
        slack = netdoc.get("slack")
        net = build_network(_whole(netdoc["bus_count"], "bus_count"), lines,
                            slack=None if slack is None else _whole(slack, "slack"))
        prosumers = []
        for pd in doc["prosumers"]:
            base = (None, None, None)
            if "p0" in pd or "E0" in pd or "D0" in pd:
                base = [_number(pd[k], k) if k in pd else None
                        for k in ("p0", "E0", "D0")]
            prosumers.append(Prosumer(
                _number(pd["c"], "c"), _number(pd["d"], "d"),
                _number(pd["D"], "D"), *base))
        label = None
        if isinstance(doc.get("labels"), dict):
            label = doc["labels"].get("name")
        return Scenario(network=net, prosumers=prosumers,
                        a=_number(doc["a"], "a"), label=label)
    except (FileError, MemoryError):  # out of memory is no fault of the file
        raise
    except Exception as exc:
        raise FileError(f"invalid scenario document: {exc}") from exc


def _number(value, what: str) -> float:
    """A number field as a float: a JSON number, never a bool or a string."""
    if isinstance(value, float) or (isinstance(value, int)
                                    and not isinstance(value, bool)):
        return float(value)
    raise ValueError(f"{what} must be a number, got {value!r}")


def _whole(value, what: str) -> int:
    """A bus number or count: a number with a whole value, so that JSON's
    ``2`` and ``2.0`` both pass; a fraction, a string or a boolean raises."""
    if type(value) is int:  # not a bool, which is an int too
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{what} must be a whole number, got {value!r}")


def dump_scenario(scenario: Scenario, path, units: str = "",
                  labels: dict | None = None) -> None:
    text = json.dumps(scenario_to_dict(scenario, units=units, labels=labels),
                      sort_keys=True, indent=2)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_scenario_file(path) -> bytes:
    """The bytes of the scenario file at ``path``."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FileError(f"cannot read scenario file {path}: {exc}") from exc


def load_scenario(path, data: bytes | None = None) -> Scenario:
    """The scenario in the file at ``path``.  ``data``, when given, is the
    file's content as :func:`read_scenario_file` read it; the file is then
    not read again, and ``path`` only names it in messages."""
    if data is None:
        data = read_scenario_file(path)
    try:
        doc = json.loads(data)
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise FileError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileError(f"scenario file {path} must hold a JSON object")
    return scenario_from_dict(doc)


def gen_scenario(seed: int, size: int, style: str = "default") -> Scenario:
    """Deterministic random radial scenario.

    Cost coefficients are drawn from [0.001, 0.01] ($/unit^2) and
    [0.1, 1.0] ($/unit); demands from [50, 150].  Line limits are the
    flows of an unconstrained optimal dispatch scaled by a style factor
    (``default``: 1.25, mildly binding at most; ``tight``: 0.6, actively
    congested).  The sensitivity is set at 5% above the convergence
    threshold, or 1.0 if the threshold is smaller.
    """
    if size < 2:
        raise ValueError(f"need at least two buses, got {size}")
    scales = {"default": 1.25, "tight": 0.6}
    if style not in scales:
        raise ValueError(f"unknown style {style!r}; choose from {sorted(scales)}")
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.001, 0.01, size)
    d = rng.uniform(0.1, 1.0, size)
    D = rng.uniform(50.0, 150.0, size)
    parents = [int(rng.integers(0, i)) for i in range(1, size)]
    weights = rng.uniform(0.5, 2.0, size - 1)

    # unconstrained optimal dispatch (equal adjusted marginals) for base flows
    inv2c = 1.0 / (2.0 * c)
    mu = (D.sum() + (d * inv2c).sum()) / inv2c.sum()
    p_base = (mu - d) * inv2c
    q_base = D - p_base

    probe_lines = [LineSpec(parents[i - 1] + 1, i + 1, float(weights[i - 1]))
                   for i in range(1, size)]
    probe = build_network(size, probe_lines)
    base_flows = np.abs(probe.ptdf.T @ q_base)
    floor = 1e-3 * (1.0 + float(base_flows.max()))
    limits = scales[style] * np.maximum(base_flows, floor)

    lines = [LineSpec(parents[i - 1] + 1, i + 1, float(weights[i - 1]),
                      float(limits[i - 1])) for i in range(1, size)]
    net = build_network(size, lines)
    threshold = (size - 2) / (2.0 * (size - 1)) * float(np.max(1.0 / c))
    a = max(1.0, 1.05 * threshold)
    prosumers = [Prosumer(c=float(c[i]), d=float(d[i]),
                          demand_reduction=float(D[i])) for i in range(size)]
    return Scenario(network=net, prosumers=prosumers, a=a,
                    label=f"generated seed={seed} size={size} style={style}")

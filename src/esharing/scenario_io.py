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

import dataclasses
import json
import math
from itertools import chain
from operator import itemgetter, methodcaller

import numpy as np

from .errors import FileError
from .market import _BASELINE, Prosumer, Scenario, _check_count, _check_prosumers
from .network import LineSpec, _check_lines, build_network

SCHEMA_VERSION = "1"

_NUMBER = {int, float}  # the types json gives a number; a bool is not one
_ABSENT = float("nan")  # a baseline field left out, told from NaN by identity


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
                {"from": f, "to": t, "weight": w,
                 "limit": None if math.isinf(F) else F}
                for f, t, w, F in zip(net.from_bus.tolist(), net.to_bus.tolist(),
                                      net.weights.tolist(), net.limits.tolist())
            ],
        },
        "prosumers": [
            {"c": c, "d": d, "D": D} for c, d, D in zip(
                scenario.c.tolist(), scenario.d.tolist(), scenario.D.tolist())
        ],
    }
    if scenario.p0 is not None:
        for entry, p0, e0, d0 in zip(doc["prosumers"], scenario.p0.tolist(),
                                     scenario.E0.tolist(), scenario.D0.tolist()):
            if p0 == p0:  # not NaN: this prosumer has a baseline
                entry.update(p0=p0, E0=e0, D0=d0)
    if labels:
        doc["labels"] = dict(labels)
    return doc


def scenario_from_dict(doc: dict) -> Scenario:
    """The scenario a document describes.

    Each kind of record is read as columns and checked whole.  When a
    column fails a check, its records are read and checked one by one, as
    :class:`LineSpec` and :class:`Prosumer` check them, and the first one
    refused raises its error.  The checks come in this order: the version;
    the lines, each in turn; ``bus_count`` and ``slack``; the number of
    prosumers against ``bus_count``; the network's structure; the
    prosumers, each in turn; then ``a`` and the market's size.
    """
    try:
        version = doc["version"]
        if str(version) != SCHEMA_VERSION:
            raise FileError(f"unsupported scenario version {version!r}")
        netdoc = doc["network"]
        lines = _line_columns(_records(netdoc["lines"], "lines"))
        try:
            slack = netdoc.get("slack")
            bus_count = _whole(netdoc["bus_count"], "bus_count")
            slack = None if slack is None else _whole(slack, "slack")
            prosumers = _records(doc["prosumers"], "prosumers")
            _check_count(len(prosumers), bus_count)  # before the network is built
        except Exception:  # a line's own error comes first
            _check_lines(*lines)
            raise
        net = build_network(bus_count, slack=slack, columns=lines)
        data, base = _prosumer_columns(prosumers)
        label = None
        if isinstance(doc.get("labels"), dict):
            label = doc["labels"].get("name")
        try:
            a = _number(doc["a"], "a")
        except Exception:  # a prosumer's own error comes first
            _check_prosumers(np.array(data, dtype=float), base)
            raise
        (c, d, D), (p0, E0, D0) = data, (None,) * 3 if base is None else base
        return Scenario(net, a=a, label=label, c=c, d=d, D=D, p0=p0, E0=E0, D0=D0)
    except (FileError, MemoryError):  # out of memory is no fault of the file
        raise
    except Exception as exc:
        raise FileError(f"invalid scenario document: {exc}") from exc


def _records(value, what: str) -> list:
    """``value``, a list of JSON objects; anything else raises."""
    if isinstance(value, list) and (set(map(type, value)) <= {dict} or all(
            isinstance(record, dict) for record in value)):
        return value
    raise ValueError(f"{what} must be a list of JSON objects")


def _column(records: list, key: str, default=None) -> list:
    """Field ``key`` of every record, ``default`` where one leaves it out."""
    try:
        return list(map(itemgetter(key), records))
    except KeyError:
        return list(map(methodcaller("get", key, default), records))


def _kinds(columns) -> set:
    """The types of the values in ``columns``."""
    return set(map(type, chain.from_iterable(columns)))


def _floats(columns, kinds: set):
    """``columns``, sequences of JSON numbers of types ``kinds``, with every
    int made a float, which raises OverflowError past the floats."""
    if int in kinds:
        return [list(map(float, col)) for col in columns]
    return columns


def _line_columns(lines: list) -> tuple:
    """The columns ``(from_bus, to_bus, weights, limits)`` of the lines, as
    sequences of bus numbers and floats; their values are checked later."""
    f, t, w, F = (_column(lines, "from"), _column(lines, "to"),
                  _column(lines, "weight", 1.0), _column(lines, "limit"))
    if None in F:  # an unlimited line
        F = [math.inf if v is None else v for v in F]
    kinds = _kinds((w, F))
    if _kinds((f, t)) <= {int} and kinds <= _NUMBER:
        try:
            return (f, t, *_floats((w, F), kinds))
        except OverflowError:
            pass
    # the lines are read and checked one by one
    return tuple(zip(*map(_line_record, lines)))


def _line_record(ld: dict) -> tuple:
    """One line, read and checked as a record."""
    limit = ld.get("limit")
    line = LineSpec(_whole(ld["from"], "from"), _whole(ld["to"], "to"),
                    _number(ld["weight"], "weight") if "weight" in ld else 1.0,
                    math.inf if limit is None else _number(limit, "limit"))
    return line.from_bus, line.to_bus, line.weight, line.limit


def _prosumer_columns(prosumers: list) -> tuple:
    """The columns ``(c, d, D)`` of the prosumers, sequences of floats, and
    ``p0``, ``E0`` and ``D0`` stacked (NaN for a field left out) or None
    when no prosumer has any; only records read one by one are checked."""
    data, base = [_column(prosumers, key) for key in ("c", "d", "D")], None
    kinds = _kinds(data)
    if sum(map(len, prosumers)) > 3 * len(prosumers):  # fields besides c, d, D
        base = [_column(prosumers, key, _ABSENT) for key in _BASELINE]
        kinds |= _kinds(base)
    if kinds <= _NUMBER:
        try:
            data = _floats(data, kinds)
            if base is None:
                return data, None
            absent = sum(col.count(_ABSENT) for col in base)
            base = np.array(base, dtype=float)
            if np.count_nonzero(np.isnan(base)) == absent:  # no NaN in the file
                return data, base
        except OverflowError:
            pass
    # the prosumers are read and checked one by one
    rows = np.array(list(map(_prosumer_record, prosumers)), dtype=float).T
    return rows[:3], rows[3:]


def _prosumer_record(pd: dict) -> tuple:
    """One prosumer, read and checked as a record; NaN for a baseline field
    it leaves out."""
    base = (None, None, None)
    if "p0" in pd or "E0" in pd or "D0" in pd:
        base = [_number(pd[k], k) if k in pd else None for k in _BASELINE]
    p = Prosumer(_number(pd["c"], "c"), _number(pd["d"], "d"),
                 _number(pd["D"], "D"), *base)
    return (p.c, p.d, p.demand_reduction,
            *(math.nan if v is None else v for v in base))


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

    from_bus, to_bus = np.array(parents) + 1, np.arange(2, size + 1)
    probe = build_network(size, columns=(from_bus, to_bus, weights,
                                         np.full(size - 1, np.inf)))
    base_flows = np.abs(probe.ptdf.T @ q_base)
    floor = 1e-3 * (1.0 + float(base_flows.max()))
    limits = scales[style] * np.maximum(base_flows, floor)
    limits.setflags(write=False)

    # the same lines with their real limits: the tree and the PTDF carry
    # over, and the limit masks and empty cache slots are made anew
    net = dataclasses.replace(probe, limits=limits)
    threshold = (size - 2) / (2.0 * (size - 1)) * float(np.max(1.0 / c))
    a = max(1.0, 1.05 * threshold)
    return Scenario(net, a=a, c=c, d=d, D=D,
                    label=f"generated seed={seed} size={size} style={style}")

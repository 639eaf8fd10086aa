"""The scenario loader that reads a document record by record.

It is the oracle of :func:`esharing.scenario_io.scenario_from_dict`, which
reads the same documents as columns.  Here each line becomes a
:class:`LineSpec` and each prosumer a :class:`Prosumer`, in file order, so a
refused record raises its own check's error and the first one refused
wins.  The two loaders must give the same scenario, or the same error.
"""

from __future__ import annotations

import math

from esharing.errors import DimensionMismatch, FileError
from esharing.market import Prosumer, Scenario
from esharing.network import LineSpec, build_network
from esharing.scenario_io import SCHEMA_VERSION, _number, _whole


def scenario_from_records(doc: dict) -> Scenario:
    try:
        version = doc["version"]
        if str(version) != SCHEMA_VERSION:
            raise FileError(f"unsupported scenario version {version!r}")
        netdoc = doc["network"]
        lines = []
        for ld in _records(netdoc["lines"], "lines"):
            limit = ld.get("limit")
            lines.append(LineSpec(
                _whole(ld["from"], "from"), _whole(ld["to"], "to"),
                _number(ld["weight"], "weight") if "weight" in ld else 1.0,
                math.inf if limit is None else _number(limit, "limit")))
        slack = netdoc.get("slack")
        bus_count = _whole(netdoc["bus_count"], "bus_count")
        slack = None if slack is None else _whole(slack, "slack")
        records = _records(doc["prosumers"], "prosumers")
        if len(records) != bus_count:
            raise DimensionMismatch(f"{len(records)} prosumers for {bus_count} buses")
        net = build_network(bus_count, lines, slack=slack)
        prosumers = []
        for pd in records:
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
        return Scenario(net, prosumers, a=_number(doc["a"], "a"), label=label)
    except (FileError, MemoryError):
        raise
    except Exception as exc:
        raise FileError(f"invalid scenario document: {exc}") from exc


def _records(value, what: str) -> list:
    if not (isinstance(value, list)
            and all(isinstance(record, dict) for record in value)):
        raise ValueError(f"{what} must be a list of JSON objects")
    return value

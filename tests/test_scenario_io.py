import json
import os

import numpy as np
import pytest

from conftest import with_chords
from esharing import cases
from esharing.bidding import a_min
from esharing.errors import FileError
from esharing.market import Prosumer, Scenario
from esharing.network import is_radial
from esharing.scenario_io import (
    dump_scenario,
    gen_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


def test_the_bundled_mesh_is_the_chorded_tight_network():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                        "mesh38_chords.json")
    bundled = load_scenario(path)
    assert bundled.network.tree is None
    assert scenario_to_dict(bundled) == scenario_to_dict(
        with_chords(gen_scenario(7, 38, "tight"), 3))


def test_round_trip(tmp_path, two_f5):
    path = tmp_path / "sc.json"
    dump_scenario(two_f5, path, units="kW", labels={"name": "pair"})
    back = load_scenario(path)
    assert back.a == two_f5.a
    assert back.c == pytest.approx(two_f5.c)
    assert back.d == pytest.approx(two_f5.d)
    assert back.D == pytest.approx(two_f5.D)
    assert back.network.limits == pytest.approx(two_f5.network.limits)
    assert back.label == "pair"


def test_infinite_limit_round_trips(tmp_path, chain_f03):
    path = tmp_path / "chain.json"
    dump_scenario(chain_f03, path)
    doc = json.loads(path.read_text())
    limits = [ld["limit"] for ld in doc["network"]["lines"]]
    assert limits == [0.3, None]
    back = load_scenario(path)
    assert back.network.limits[1] == np.inf


def test_baseline_round_trips(tmp_path):
    pros = [Prosumer(c=1.0, d=0.1, demand_reduction=2.0, base_production=1.5,
                     base_purchase=0.5, base_demand=2.0),
            Prosumer(c=2.0, d=0.2, demand_reduction=1.0)]
    base = cases.two_prosumer_line(3.0)
    scenario = Scenario(network=base.network, prosumers=pros, a=1.0)
    path = tmp_path / "b.json"
    dump_scenario(scenario, path)
    back = load_scenario(path)
    assert back.prosumers[0].base_production == 1.5
    assert back.prosumers[1].base_production is None


def test_unsupported_version_rejected(two_f5):
    doc = scenario_to_dict(two_f5)
    doc["version"] = "99"
    with pytest.raises(FileError):
        scenario_from_dict(doc)


def test_missing_key_rejected(two_f5):
    doc = scenario_to_dict(two_f5)
    del doc["prosumers"]
    with pytest.raises(FileError):
        scenario_from_dict(doc)


def test_mismatched_counts_rejected(two_f5):
    doc = scenario_to_dict(two_f5)
    doc["prosumers"] = doc["prosumers"][:1]
    with pytest.raises(FileError):
        scenario_from_dict(doc)


def _set(doc, where, value):
    """``doc`` with ``value`` at ``where``: a network key, a key of the
    first line, or ``a``."""
    if where == "a":
        doc["a"] = value
    elif where in ("from", "to"):
        doc["network"]["lines"][0][where] = value
    else:
        doc["network"][where] = value
    return doc


@pytest.mark.parametrize("where,value", [
    ("from", 1.5), ("to", 2.5), ("bus_count", 2.7), ("slack", 1.5),
    ("from", "1"), ("bus_count", "2"), ("slack", "2"),
    ("from", True), ("to", False), ("bus_count", True), ("slack", True),
    ("from", float("inf")), ("bus_count", float("nan")),
    ("a", True), ("a", "1.0")])
def test_bus_numbers_must_be_whole_json_numbers(two_f5, where, value):
    # a bus number or count that is not a whole number, and an ``a`` that
    # is not a number, are refused rather than truncated or converted
    doc = _set(scenario_to_dict(two_f5), where, value)
    with pytest.raises(FileError, match="invalid scenario document"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("where,value", [
    ("from", 1), ("to", 2), ("bus_count", 2), ("slack", 2), ("a", 3)])
def test_whole_valued_floats_are_bus_numbers(two_f5, where, value):
    # JSON's 2 and 2.0 are the same bus number, and the same ``a``
    doc = scenario_to_dict(two_f5)
    as_int = scenario_from_dict(_set(scenario_to_dict(two_f5), where, value))
    as_float = scenario_from_dict(_set(doc, where, float(value)))
    assert scenario_to_dict(as_float) == scenario_to_dict(as_int)
    assert as_float.network.slack == as_int.network.slack


def _with_baseline(doc):
    """``doc`` with a valid baseline on its first prosumer."""
    doc["prosumers"][0].update({"p0": 60.0, "E0": 40.0, "D0": 100.0})
    return doc


@pytest.mark.parametrize("record,key,value", [
    ("lines", "limit", False), ("lines", "limit", True),
    ("lines", "limit", "inf"), ("lines", "limit", "5"),
    ("lines", "weight", "2"), ("lines", "weight", True),
    ("lines", "weight", None), ("lines", "weight", [1.0]),
    ("prosumers", "c", "0.003"), ("prosumers", "c", True),
    ("prosumers", "d", True), ("prosumers", "d", None),
    ("prosumers", "D", " 100 "), ("prosumers", "D", {"v": 1}),
    ("prosumers", "p0", "60"), ("prosumers", "E0", False),
    ("prosumers", "D0", "100.0")])
def test_number_fields_must_be_json_numbers(two_f5, record, key, value):
    # a string or a boolean in a number field is refused, not converted
    doc = _with_baseline(scenario_to_dict(two_f5))
    where = doc["network"]["lines"] if record == "lines" else doc["prosumers"]
    where[0][key] = value
    with pytest.raises(FileError, match=f"invalid scenario document: {key} "
                                        f"must be a number, got "):
        scenario_from_dict(doc)


def test_number_fields_take_ints_a_null_limit_and_no_weight(two_f5):
    doc = _with_baseline(scenario_to_dict(two_f5))
    doc["prosumers"][1].update({"c": 1, "d": 0, "D": 200})
    del doc["network"]["lines"][0]["weight"]
    back = scenario_from_dict(doc)
    assert back.prosumers[1] == Prosumer(1.0, 0.0, 200.0)
    assert type(back.prosumers[1].c) is float
    assert back.prosumers[0].base_production == 60.0
    assert back.network.lines[0].weight == 1.0
    assert back.network.limits[0] == 5.0
    for limit in (None, 3):
        doc["network"]["lines"][0]["limit"] = limit
        line = scenario_from_dict(doc).network.lines[0]
        assert line.limit == (np.inf if limit is None else 3.0)
    del doc["network"]["lines"][0]["limit"]
    assert scenario_from_dict(doc).network.lines[0].limit == np.inf


def test_non_object_file_rejected(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(FileError):
        load_scenario(path)


def test_generator_is_deterministic(tmp_path):
    a = gen_scenario(123, 9)
    b = gen_scenario(123, 9)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    dump_scenario(a, pa)
    dump_scenario(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    other = gen_scenario(124, 9)
    assert not np.array_equal(a.c, other.c)


def test_generator_output_properties():
    for seed in (0, 5, 77):
        scenario = gen_scenario(seed, 11)
        assert scenario.size == 11
        assert is_radial(scenario.network)
        assert scenario.a >= a_min(scenario)
        assert np.all(scenario.c > 0)
        assert np.all(scenario.network.limits > 0)


@pytest.mark.parametrize("style", ["loose", "Tight", ""])
def test_generator_refuses_an_unknown_style(style):
    with pytest.raises(ValueError, match="unknown style"):
        gen_scenario(1, 5, style=style)


def test_generator_tight_style_congests_more():
    loose = gen_scenario(8, 6, style="default")
    tight = gen_scenario(8, 6, style="tight")
    assert np.all(tight.network.limits <= loose.network.limits + 1e-12)
    assert tight.network.limits.sum() < loose.network.limits.sum()

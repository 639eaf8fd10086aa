import copy
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import with_chords
from esharing import cases, cli, scenario_io
from esharing.bidding import a_min
from esharing.errors import FileError
from esharing.market import Prosumer, Scenario
from esharing.network import LineSpec, build_network, is_radial
from esharing.scenario_io import (
    dump_scenario,
    gen_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from record_loader import scenario_from_records

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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
        assert scenario.a == max(1.0, 1.05 * a_min(scenario))
        assert scenario.a > 1.0  # so the test reads the threshold
        assert np.all(scenario.c > 0)
        assert np.all(scenario.network.limits > 0)


@pytest.mark.parametrize("size", [2, 38])
def test_generator_builds_its_network_once(size, monkeypatch):
    # the limited network is the probe's with its limits replaced: the same
    # tree and PTDF, and the masks of the new limits
    builds = []

    def counting(*args, **kwargs):
        builds.append(args)
        return build_network(*args, **kwargs)

    monkeypatch.setattr(scenario_io, "build_network", counting)
    net = gen_scenario(3, size, "tight").network
    assert len(builds) == 1
    fresh = build_network(size, columns=(net.from_bus, net.to_bus, net.weights,
                                         net.limits))
    assert np.array_equal(net.ptdf, fresh.ptdf)
    assert np.array_equal(net.bounded, fresh.bounded)
    assert np.array_equal(net.pinned, fresh.pinned)
    assert not net.limits.flags.writeable
    assert net._factor is None


@pytest.mark.parametrize("style", ["loose", "Tight", ""])
def test_generator_refuses_an_unknown_style(style):
    with pytest.raises(ValueError, match="unknown style"):
        gen_scenario(1, 5, style=style)


def test_generator_tight_style_congests_more():
    loose = gen_scenario(8, 6, style="default")
    tight = gen_scenario(8, 6, style="tight")
    assert np.all(tight.network.limits <= loose.network.limits + 1e-12)
    assert tight.network.limits.sum() < loose.network.limits.sum()


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")),
                         ids=lambda path: path.name)
def test_a_bundled_scenario_round_trips_to_its_json(path):
    doc = json.loads(path.read_text())
    back = scenario_to_dict(load_scenario(path), units=doc["units"],
                            labels=doc.get("labels"))
    assert back == doc


def test_a_count_mismatch_is_refused_before_the_network_is_built(
        two_f5, monkeypatch):
    # a bus count of 10**30 once built its network first, without bound
    def refuse(*args, **kwargs):
        raise AssertionError("the network was built")

    monkeypatch.setattr(scenario_io, "build_network", refuse)
    doc = scenario_to_dict(two_f5)
    doc["network"]["bus_count"] = 10**30
    with pytest.raises(FileError) as exc:
        scenario_from_dict(doc)
    assert str(exc.value) == (
        f"invalid scenario document: 2 prosumers for {10**30} buses")


@pytest.mark.parametrize("record,value", [
    ("lines", {}), ("lines", [1, 2]), ("lines", None), ("lines", "ab"),
    ("lines", [{"from": 1, "to": 2}, [1, 2]]),
    ("prosumers", [1, 2]), ("prosumers", {}), ("prosumers", {"c": 1.0}),
    ("prosumers", [{"c": 1.0, "d": 0.0, "D": 1.0}, None])])
def test_records_must_be_a_list_of_json_objects(two_f5, record, value):
    # {} for the lines read as no lines, and a number for a prosumer raised
    # "argument of type 'int' is not iterable"
    doc = scenario_to_dict(two_f5)
    (doc["network"] if record == "lines" else doc)[record] = value
    with pytest.raises(FileError) as exc:
        scenario_from_dict(doc)
    assert str(exc.value) == (
        f"invalid scenario document: {record} must be a list of JSON objects")


@pytest.mark.parametrize("where,value", [
    ("bus_count", "3"), ("bus_count", 3), ("slack", 0.5), ("prosumers", {})])
def test_a_line_error_comes_before_the_network_fields(two_f5, where, value):
    doc = scenario_to_dict(two_f5)
    doc["network"]["lines"][0]["weight"] = -1.0
    (doc if where == "prosumers" else doc["network"])[where] = value
    with pytest.raises(FileError) as exc:
        scenario_from_dict(doc)
    assert str(exc.value) == (
        "invalid scenario document: line weight must be > 0, got -1.0")


@pytest.mark.parametrize("value", ["1", True, None, 0.0])
def test_a_prosumer_error_comes_before_a(two_f5, value):
    doc = scenario_to_dict(two_f5)
    doc["prosumers"][1]["d"] = math.inf
    doc["a"] = value
    with pytest.raises(FileError) as exc:
        scenario_from_dict(doc)
    assert str(exc.value) == (
        "invalid scenario document: prosumer d must be finite, got inf")


def test_a_nan_baseline_is_refused(two_f5):
    doc = _with_baseline(scenario_to_dict(two_f5))
    doc["prosumers"][0]["p0"] = math.nan
    with pytest.raises(FileError, match="prosumer p0 must be finite, got nan"):
        scenario_from_dict(doc)


def test_columns_whose_sum_overflows_are_accepted():
    # the column checks sum the columns; a sum past the floats is no fault
    doc = {"version": "1", "a": 1.0,
           "network": {"bus_count": 3, "lines": [
               {"from": 1, "to": 2, "weight": 1e308, "limit": 1.0},
               {"from": 2, "to": 3, "weight": 1e308, "limit": None}]},
           "prosumers": [{"c": 1.0, "d": 0.0, "D": 1e308}] * 3}
    scenario = scenario_from_dict(doc)
    assert scenario.network.weights.tolist() == [1e308, 1e308]
    assert scenario.D.tolist() == [1e308] * 3


def test_a_valid_load_and_its_commands_build_no_records(tmp_path, monkeypatch, capsys):
    paths = sorted(SCENARIOS.glob("*.json"))
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(_with_baseline(scenario_to_dict(
        gen_scenario(3, 12, "tight")))))
    generated = tmp_path / "g38.json"
    dump_scenario(gen_scenario(1, 38, "tight"), generated)

    def refuse(self):
        raise AssertionError(f"a {type(self).__name__} was built")

    monkeypatch.setattr(Prosumer, "__post_init__", refuse)
    monkeypatch.setattr(LineSpec, "__post_init__", refuse)
    for path in [*paths, mixed, generated]:
        assert scenario_to_dict(load_scenario(path))
        for command in ("gne", "poa"):
            assert cli.main([command, str(path)]) == 0, capsys.readouterr().err
    chain = str(SCENARIOS / "chain_f027.json")
    for argv in (["bid", chain], ["clear", chain, "--bids", "1.6,1.6,0.8"],
                 ["brlab", chain, "--prosumer", "2", "--fix-bids", "1.6,1.6,0.8"]):
        assert cli.main(argv) == 0, capsys.readouterr().err


def _number(rng, lo: float, hi: float):
    """A number in [lo, hi], at times a whole one written as an int."""
    if rng.random() < 0.2:
        return int(rng.integers(math.ceil(lo), math.floor(hi) + 1))
    return float(rng.uniform(lo, hi))


@st.composite
def documents(draw):
    """Valid scenario documents as json reads them: trees and meshes with
    parallel lines, zero, null and left-out limits, left-out weights, mixed
    baselines, and numbers written as ints and as floats."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(2, 8))
    ends = [(int(rng.integers(1, bus)), bus) for bus in range(2, n + 1)]
    if draw(st.booleans()):  # a mesh
        for _ in range(int(rng.integers(1, 3))):
            u, v = rng.choice(n, 2, replace=False) + 1
            ends.append((int(u), int(v)))
        ends.append(ends[int(rng.integers(len(ends)))])  # a parallel line
    lines = []
    for f, t in ends:
        if rng.random() < 0.5:
            f, t = t, f
        line = {"from": float(f) if rng.random() < 0.1 else f, "to": t}
        if rng.random() < 0.8:
            line["weight"] = _number(rng, 0.5, 2.0)
        kind = rng.random()
        if kind < 0.6:
            line["limit"] = _number(rng, 0.1, 3.0)
        elif kind < 0.75:
            line["limit"] = 0 if rng.random() < 0.5 else 0.0
        elif kind < 0.9:
            line["limit"] = None
        lines.append(line)
    prosumers = []
    for _ in range(n):
        record = {"c": _number(rng, 0.5, 3.0), "d": _number(rng, -1.0, 1.0),
                  "D": _number(rng, 0.0, 5.0)}
        if rng.random() < 0.3:
            p0, e0 = _number(rng, 0.0, 5.0), _number(rng, 0.0, 5.0)
            record.update(p0=p0, E0=e0, D0=p0 + e0)
        prosumers.append(record)
    doc = {"version": "1", "units": "kW", "a": _number(rng, 0.5, 3.0),
           "network": {"bus_count": n, "lines": lines}, "prosumers": prosumers}
    if rng.random() < 0.5:
        doc["network"]["slack"] = int(rng.integers(1, n + 1))
    if rng.random() < 0.3:
        doc["labels"] = {"name": "drawn"}
    return doc


_LEFT_OUT = object()
# 1 and 2 as bus numbers make loops and cut buses off
_BAD_VALUES = ["x", "1", True, False, None, math.nan, math.inf, -math.inf, 0,
               1, 2, -1.0, 0.5, 2.5, 10**30, 10**400, [1.0], {"v": 1},
               _LEFT_OUT]


@st.composite
def corrupted_documents(draw):
    """A valid document with one to three fields replaced by a value drawn
    from ``_BAD_VALUES``, or left out."""
    doc = copy.deepcopy(draw(documents()))
    for _ in range(draw(st.integers(1, 3))):
        lines, prosumers = doc["network"].get("lines"), doc.get("prosumers")
        slots = [(doc, "a"), (doc, "version"), (doc, "prosumers"),
                 (doc["network"], "bus_count"), (doc["network"], "slack"),
                 (doc["network"], "lines")]
        if isinstance(lines, list):
            slots += [(lines, i) for i in range(len(lines))]
            slots += [(ld, key) for ld in lines if isinstance(ld, dict)
                      for key in ("from", "to", "weight", "limit")]
        if isinstance(prosumers, list):
            slots += [(prosumers, i) for i in range(len(prosumers))]
            slots += [(pd, key) for pd in prosumers if isinstance(pd, dict)
                      for key in ("c", "d", "D", "p0", "E0", "D0")]
        where, key = draw(st.sampled_from(slots))
        value = draw(st.sampled_from(_BAD_VALUES))
        if value is not _LEFT_OUT:
            where[key] = value
        elif isinstance(where, dict):
            where.pop(key, None)
    return doc


def _load(load, doc):
    """What ``load`` makes of a copy of ``doc``: a scenario or its error."""
    try:
        return load(copy.deepcopy(doc))
    except FileError as exc:
        return exc


def _assert_same_scenario(got, want):
    for name in ("c", "d", "D", "p0", "E0", "D0"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), name
    net, ref = got.network, want.network
    for name in ("from_bus", "to_bus", "weights", "limits", "ptdf"):
        a, b = getattr(net, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (net.bus_count, net.slack, net.tree is None) == (
        ref.bus_count, ref.slack, ref.tree is None)
    assert (got.a, got.label) == (want.a, want.label)
    assert scenario_to_dict(got) == scenario_to_dict(want)


@settings(max_examples=150)
@given(documents())
def test_columns_load_as_the_records_do(doc):
    _assert_same_scenario(_load(scenario_from_dict, doc),
                          _load(scenario_from_records, doc))


@settings(max_examples=1000)
@given(corrupted_documents())
def test_a_corrupted_document_fails_as_its_records_do(doc):
    got, want = _load(scenario_from_dict, doc), _load(scenario_from_records, doc)
    if isinstance(want, FileError) or isinstance(got, FileError):
        assert (type(got), str(got)) == (type(want), str(want))
    else:  # some corruptions leave a valid document, such as a zero limit
        _assert_same_scenario(got, want)


# positive magnitudes: ordinary, near 1e300 and 1e-300, and whole values
_MAGNITUDES = st.one_of(st.floats(0.5, 2.0), st.floats(1e299, 1e300),
                        st.floats(1e-300, 1e-299),
                        st.integers(1, 10**6).map(float))
_SIGNED = st.one_of(_MAGNITUDES, _MAGNITUDES.map(lambda v: -v),
                    st.sampled_from([0.0, -0.0]))
_LIMITS = st.one_of(_MAGNITUDES, st.sampled_from([math.inf, 0.0, -0.0]))
_FREE_TEXT = st.one_of(st.text(max_size=6), st.sampled_from(
    ['"', "\\", 'k"W\\h', "é", "日本語", " ", "%r", "None", "inf"]))


@st.composite
def written_scenarios(draw):
    """A tree of 2 to 60 buses, with unlimited, zero and ``-0.0`` limits,
    baselines on some prosumers only, numbers near 1e±300 and whole ones,
    and units and labels of free text; returns ``(scenario, units, labels)``."""
    n = draw(st.integers(2, 60))
    ends = [(draw(st.integers(1, bus - 1)), bus) for bus in range(2, n + 1)]
    ends = [(t, f) if draw(st.booleans()) else (f, t) for f, t in ends]
    columns = (np.array([f for f, _ in ends]), np.array([t for _, t in ends]),
               np.array(draw(st.lists(_MAGNITUDES, min_size=n - 1,
                                      max_size=n - 1))),
               np.array(draw(st.lists(_LIMITS, min_size=n - 1,
                                      max_size=n - 1))))
    net = build_network(n, slack=draw(st.integers(1, n)), columns=columns)
    c, d, D, p0, E0 = (draw(st.lists(values, min_size=n, max_size=n))
                       for values in (_MAGNITUDES, _SIGNED, _SIGNED, _SIGNED,
                                      _SIGNED))
    held = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    base = np.array([(p, e, p + e) if keep else (math.nan,) * 3
                     for p, e, keep in zip(p0, E0, held)]).T
    labels = draw(st.one_of(st.none(), st.dictionaries(
        _FREE_TEXT, _FREE_TEXT, max_size=3)))
    scenario = Scenario(net, a=draw(st.one_of(st.floats(1e-3, 10.0),
                                              st.integers(1, 10).map(float))),
                        label=(labels or {}).get("name"), c=c, d=d, D=D,
                        p0=base[0], E0=base[1], D0=base[2])
    return scenario, draw(_FREE_TEXT), labels


@settings(max_examples=150)
@given(written_scenarios())
def test_a_written_scenario_is_canonical_json_and_loads_back(case):
    scenario, units, labels = case
    want = json.dumps(scenario_to_dict(scenario, units, labels),
                      sort_keys=True, indent=2) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.json")
        dump_scenario(scenario, path, units=units, labels=labels)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == want
        back = load_scenario(path)
    _assert_same_scenario(back, scenario)
    for name in ("c", "d", "D", "p0", "E0", "D0"):  # -0.0 stays -0.0
        if getattr(scenario, name) is not None:
            assert np.array_equal(np.signbit(getattr(back, name)),
                                  np.signbit(getattr(scenario, name))), name
    assert np.array_equal(np.signbit(back.network.limits),
                          np.signbit(scenario.network.limits))


def test_prosumer_numbers_of_numpy_type_load_as_plain_floats(two_f5):
    # numpy floats are not JSON numbers to the column reader, so the
    # prosumers are read record by record, and the records accept them
    doc = scenario_to_dict(two_f5)
    numpy_doc = copy.deepcopy(doc)
    for pd in numpy_doc["prosumers"]:
        for key in ("c", "d", "D"):
            pd[key] = np.float64(pd[key])
    _assert_same_scenario(scenario_from_dict(numpy_doc), scenario_from_dict(doc))


def test_records_with_different_keys_are_written_one_by_one():
    value = [{"a": 1}, {"b": 2}]
    assert scenario_io._json(value) == json.dumps(value, indent=2, sort_keys=True)

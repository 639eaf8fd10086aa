import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import WIDE_MESHES, equal_pair
from esharing import cases, cli, market, scenario_io
from esharing.errors import (
    ContractBreach,
    FileError,
    IterationLimit,
    MaxIterExceeded,
    NonFiniteResult,
)
from esharing.market import Prosumer, Scenario, prosumer_cost
from esharing.network import LineSpec, build_network
from esharing.scenario_io import dump_scenario, gen_scenario, load_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
MESH = str(SCENARIOS / "mesh38_chords.json")


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "two_f5.json"
    dump_scenario(cases.two_prosumer_line(5.0), path)
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    dump_scenario(cases.three_bus_chain(1.0, (1.0, 1.0, 0.0), 0.27), path)
    return str(path)


def test_gne_report(fixture_file):
    report, code = cli.run_command(["gne", fixture_file])
    assert code == 0
    assert report.command == "gne"
    assert len(report.digest) == 16
    assert report.results["p_bar"] == pytest.approx([105.0, 195.0])
    assert report.results["b_bar"] == pytest.approx([10.5, 30.6])
    assert report.residuals["clearing_price_gap"] <= 1e-6
    assert report.residuals["price_structure"] <= 1e-6


def test_validate_report(fixture_file):
    report, code = cli.run_command(["validate", fixture_file])
    assert code == 0
    assert report.results["ok"]
    assert report.results["radial"]
    assert report.residuals["ptdf_oracle_gap"] <= 1e-12


def test_validate_reports_these_keys(fixture_file):
    report, _ = cli.run_command(["validate", fixture_file])
    assert sorted(report.results) == ["ok", "prosumer_count", "radial", "slack"]
    assert sorted(report.residuals) == ["ptdf_oracle_gap"]


def test_clear_command(fixture_file):
    report, code = cli.run_command(["clear", fixture_file,
                                    "--bids", "10.5,30.6"])
    assert code == 0
    assert report.results["prices"] == pytest.approx([1.55, 2.56])
    assert report.residuals["clearing_kkt"] <= 1e-8


def test_social_selfsuff_poa(fixture_file):
    social, code = cli.run_command(["social", fixture_file])
    assert code == 0
    assert social.results["p_tilde"] == pytest.approx([105.0, 195.0])
    selfsuff, code = cli.run_command(["selfsuff", fixture_file])
    assert code == 0
    assert selfsuff.results["total"] == pytest.approx(456.0)
    poa, code = cli.run_command(["poa", fixture_file])
    assert code == 0
    assert poa.results["poa_value"] >= 1.0


def test_ve_command(fixture_file):
    report, code = cli.run_command(["ve", fixture_file])
    assert code == 0
    assert report.results["radial"]


def test_bid_command_with_trace(fixture_file, tmp_path):
    trace = str(tmp_path / "trace.csv")
    report, code = cli.run_command(["bid", fixture_file, "--eps", "1e-4",
                                    "--trace", trace])
    assert code == 0
    assert report.results["iterations"] <= 50
    assert report.results["fejer_monotone"]
    assert report.results["gap_to_equilibrium"] <= 1e-3
    header = Path(trace).read_text().splitlines()[0]
    assert header == "iter,i,lambda,b,p,delta_b_norm,dist_to_eqm"


def test_bid_non_convergence_exit_code(fixture_file, capsys):
    report, code = cli.run_command(["bid", fixture_file, "--eps", "1e-14",
                                    "--max-iter", "2"])
    assert report is None
    assert code == 3
    assert "converge" in capsys.readouterr().err


def test_brlab_verify(chain_file):
    report, code = cli.run_command(["brlab", chain_file,
                                    "--verify", "1.6,1.6,0.8"])
    assert code == 0
    assert report.results["is_gne"] is False
    assert report.results["best_bids"][1] == pytest.approx(1.535, abs=1e-3)
    assert report.results["tol"] == 1e-6


def test_brlab_scan_csv(chain_file, tmp_path):
    out = str(tmp_path / "scan.csv")
    report, code = cli.run_command(["brlab", chain_file, "--prosumer", "2",
                                    "--fix-bids", "1.6,1.6,0.8",
                                    "--csv", out])
    assert code == 0
    assert len(report.results["local_minima"]) == 2
    assert Path(out).read_text().splitlines()[0] == "b,cost"


def test_brlab_classify(tmp_path):
    path = tmp_path / "pair.json"
    dump_scenario(equal_pair(1.0, (1.0, 0.5), 0.1), path)
    report, code = cli.run_command(["brlab", str(path), "--classify-2bus"])
    assert code == 0
    assert report.results["regime"] == "multiple-upper"
    assert report.results["b2_interval"] == pytest.approx([1.2, 1.6])


@pytest.mark.parametrize("limits, single", [
    ((2.0, 2.0), 4.0), ((2.0, math.inf), 4.0), ((0.0, 5.0), 0.0),
    ((math.inf, math.inf), math.inf)])
def test_brlab_classify_reads_every_parallel_line(tmp_path, limits, single):
    # two parallel lines of equal weight share the transfer; the corridor is
    # the one line of twice their weight whose limit is min_l F_l W / w_l
    def pair(lines):
        net = build_network(2, lines)
        return Scenario(network=net, a=1.0, prosumers=[
            Prosumer(1.0, 0.0, 10.0), Prosumer(1.0, 0.0, 0.0)])

    reports = []
    for name, lines in (("two", [LineSpec(1, 2, 1.0, F) for F in limits]),
                        ("one", [LineSpec(1, 2, 2.0, single)])):
        path = tmp_path / f"{name}.json"
        dump_scenario(pair(lines), path)
        report, code = cli.run_command(["brlab", str(path), "--classify-2bus"])
        assert code == 0
        reports.append(json.loads(cli.render_report(report, "json"))["results"])
    assert reports[0] == reports[1]
    if limits == (2.0, 2.0):
        assert reports[0]["regime"] == "unique"
        assert reports[0]["b_bar"] == pytest.approx([40.0 / 3.0, 20.0 / 3.0])
        report, code = cli.run_command(["brlab", str(tmp_path / "two.json"),
                                        "--verify", ",".join(
                                            map(repr, reports[0]["b_bar"]))])
        assert code == 0 and report.results["is_gne"]


def test_brlab_mode_required(chain_file, capsys):
    report, code = cli.run_command(["brlab", chain_file])
    assert report is None and code == 1
    assert "usage error" in capsys.readouterr().err


BIDS = "1.6,1.6,0.8"


@pytest.mark.parametrize("flags,flag", [
    (["--verify", BIDS, "--fix-bids", BIDS], "--fix-bids"),
    (["--classify-2bus", "--fix-bids", BIDS], "--fix-bids"),
    (["--verify", BIDS, "--csv", "scan.csv"], "--csv"),
    (["--classify-2bus", "--csv", "scan.csv"], "--csv"),
    (["--prosumer", "2", "--fix-bids", BIDS, "--tol", "1e-3"], "--tol"),
    (["--prosumer", "2", "--fix-bids", BIDS, "--tol", "0"], "--tol"),
    (["--classify-2bus", "--tol", "1e-3"], "--tol"),
    (["--verify", BIDS, "--tol", "-1"], "--tol"),
    (["--verify", BIDS, "--tol", "nan"], "--tol"),
    (["--verify", BIDS, "--tol", "inf"], "--tol"),
    (["--classify-2bus", "--regulated"], "--regulated"),
], ids=["verify-fix-bids", "classify-fix-bids", "verify-csv", "classify-csv",
        "prosumer-tol", "prosumer-zero-tol", "classify-tol", "negative-tol", "nan-tol", "inf-tol",
        "classify-regulated"])
def test_brlab_refuses_flags_its_mode_does_not_read(
        flags, flag, chain_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    report, code = cli.run_command(["brlab", chain_file, *flags])
    err = capsys.readouterr().err
    assert report is None and code == 1
    assert err.startswith("usage error: ") and flag in err
    assert not (tmp_path / "scan.csv").exists()


@pytest.mark.parametrize("argv,flag", [
    (["clear", "{two}", "--bids", "nan,1"], "--bids"),
    (["brlab", "{chain}", "--prosumer", "2", "--fix-bids", "inf,1.6,0.8"],
     "--fix-bids"),
    (["brlab", "{chain}", "--verify", "1.6,nan,0.8"], "--verify"),
], ids=["clear-nan-bid", "brlab-infinite-fixed-bid", "brlab-nan-verify-bid"])
def test_non_finite_bid_vectors_are_usage_errors(argv, flag, fixture_file,
                                                 chain_file, capsys):
    report, code = cli.run_command(
        [arg.format(two=fixture_file, chain=chain_file) for arg in argv])
    err = capsys.readouterr().err
    assert report is None and code == 1
    assert err.startswith("usage error: ") and flag in err and "finite" in err


def test_brlab_reports_an_unbounded_cost_with_its_own_label(
        chain_file, monkeypatch, capsys):
    # no clearing path makes a cost fall without bound; one patched to do
    # so, its purchase at -1 while its price rises, is refused with its own
    # label and exit code 1
    from esharing import brlab

    path = (np.array([-math.inf, 0.0, math.inf]), np.zeros(2), np.ones(2),
            np.ones(2))
    monkeypatch.setattr(brlab, "_clearing_path", lambda *args: path)
    assert cli.main(["brlab", chain_file, "--prosumer", "2",
                     "--fix-bids", BIDS]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("unbounded cost: the cost of prosumer 2 falls without "
                   "bound as its bid goes to +infinity; no best response\n")


def test_the_scanned_slot_of_fixed_bids_is_not_read(chain_file):
    report, code = cli.run_command(["brlab", chain_file, "--prosumer", "2",
                                    "--fix-bids", "1.6,nan,0.8"])
    assert code == 0
    assert len(report.results["local_minima"]) == 2


@pytest.mark.parametrize("argv,message", [
    (["clear", "{two}", "--bids", "1,x"], "usage error: cannot parse --bids "
     "'1,x': could not convert string to float: 'x'"),
    (["clear", "{two}", "--bids", "1,2,3"],
     "usage error: expected 2 values for --bids, got 3"),
    (["brlab", "{two}", "--prosumer", "1"],
     "usage error: --prosumer requires --fix-bids"),
    (["brlab", "{two}", "--prosumer", "3", "--fix-bids", "1,2"],
     "usage error: --prosumer must be in 1..2"),
    (["brlab", "{chain}", "--classify-2bus"],
     "usage error: --classify-2bus needs 2 buses, a=1, d=0, equal c"),
    (["batch", "--dir", "{missing}"], "error: not a directory: {missing}"),
], ids=["unparsed-bids", "bid-count", "prosumer-without-bids",
        "prosumer-out-of-range", "classify-chain", "batch-missing-dir"])
def test_refused_arguments_exit_1_with_one_line(argv, message, fixture_file,
                                                chain_file, tmp_path, capsys):
    fill = {"two": fixture_file, "chain": chain_file,
            "missing": str(tmp_path / "missing")}
    assert cli.main([arg.format(**fill) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message.format(**fill) + "\n"


def test_bad_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    report, code = cli.run_command(["gne", str(bad)])
    assert report is None and code == 1
    report, code = cli.run_command(["gne", str(tmp_path / "missing.json")])
    assert report is None and code == 1
    capsys.readouterr()


def test_usage_error_exit_code(capsys):
    report, code = cli.run_command(["frobnicate"])
    assert report is None and code == 1
    capsys.readouterr()


@pytest.mark.parametrize("row", [
    (cli.UsageError, "usage error", 1),
    (MaxIterExceeded, "did not converge", 3),
    (IterationLimit, "solver did not converge", 3),
    (FileError, "error", 1),
    (NonFiniteResult, "error", 1),
    (ContractBreach, "error", 1),
], ids=lambda row: row[0].__name__)
def test_each_failure_exits_with_its_label_and_code(row, fixture_file,
                                                     monkeypatch, capsys):
    error, label, code = row

    def boom(scenario):
        raise error("forced")

    monkeypatch.setattr(cli.equilibrium, "improved_gne", boom)
    report, got = cli.run_command(["gne", fixture_file])
    assert report is None and got == code
    assert capsys.readouterr().err == f"{label}: forced\n"


def _faulty_finish(monkeypatch, refuse: bool):
    """Patch the held-set solve so that a program goes to the finish with
    nothing held, and every solve after the finish's first refuses its held
    set (``refuse``) or reports flows and pushes that do not move, so that
    each line the finish adds looks dependent on the held rows, as only a
    rounding fault could make it."""
    held_solve, calls = market._held_solve, []

    def faulty(*args):
        calls.append(args)
        if len(calls) == 1:  # the loop's first held rows are dependent
            return None
        if len(calls) > 2 and refuse:
            return None
        u, q, flows, push = held_solve(*args)
        if len(calls) > 2:
            flows, push = np.zeros_like(flows), np.zeros_like(push)
        return u, q, flows, push

    monkeypatch.setattr(market, "_held_solve", faulty)


@pytest.mark.parametrize("limit, refuse, message", [
    (0.27, False, "rounding: the finish cannot bring line 1's flow to its limit"),
    (0.0, False, "rounding: the finish cannot bring zero-limit line 1's flow to 0"),
    (0.27, True, "the held-set solve refused the held set of a dual active-set step"),
], ids=["positive-limit", "zero-limit", "refused"])
def test_a_fault_in_the_finish_exits_3(limit, refuse, message, tmp_path,
                                       monkeypatch, capsys):
    # every program is feasible, so a finish that can move neither the
    # flow of the line it adds nor a held push has met a rounding fault:
    # past a positive limit no step reaches the limit, and a zero-limit
    # line's flow cannot reach 0.  Each fault, and a held set the held
    # solve refuses, is a solver that did not converge
    path = tmp_path / "chain.json"
    dump_scenario(cases.three_bus_chain(1.0, (1.0, 1.0, 0.0), limit), path)
    _faulty_finish(monkeypatch, refuse)
    report, code = cli.run_command(["clear", str(path), "--bids", "2.1,1.1,0.6"])
    assert report is None and code == 3
    assert capsys.readouterr().err == f"solver did not converge: {message}\n"


def test_gen_command_is_deterministic(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    _, code_a = cli.run_command(["gen", "--seed", "3", "--size", "5",
                                 "-o", a])
    _, code_b = cli.run_command(["gen", "--seed", "3", "--size", "5",
                                 "-o", b])
    assert code_a == code_b == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    report, code = cli.run_command(["gne", a])
    assert code == 0


def test_gen_respects_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    report, code = cli.run_command(["gen", "--seed", "4", "--size", "4"])
    assert code == 0
    expected = tmp_path / "generated_seed4_size4.json"
    assert expected.exists()
    assert report.results["path"] == str(expected)


def test_batch_command(tmp_path):
    scen_dir = tmp_path / "scens"
    scen_dir.mkdir()
    dump_scenario(cases.two_prosumer_line(5.0), scen_dir / "a.json")
    dump_scenario(cases.two_prosumer_line(10.0), scen_dir / "b.json")
    (scen_dir / "broken.json").write_text("{]")
    out_dir = tmp_path / "reports"
    report, code = cli.run_command(["batch", "--dir", str(scen_dir),
                                    "--out", str(out_dir)])
    assert code == 1  # one file failed
    assert report.results["evaluated"] == 3
    assert report.results["failures"] == 1
    assert (out_dir / "a.report.json").exists()
    assert (out_dir / "b.report.json").exists()
    assert not list(out_dir.glob("*.tmp"))
    doc = json.loads((out_dir / "a.report.json").read_text())
    assert doc["results"]["p_bar"] == pytest.approx([105.0, 195.0])
    gne, _ = cli.run_command(["gne", str(scen_dir / "a.json")])
    assert set(doc["results"]) == set(gne.results) | {"poa"}
    assert doc["results"]["poa"]["poa_value"] == pytest.approx(
        cli.run_command(["poa", str(scen_dir / "a.json")])[0].results["poa_value"],
        rel=1e-12)


def test_render_formats(fixture_file):
    report, _ = cli.run_command(["selfsuff", fixture_file])
    as_json = cli.render_report(report, "json")
    doc = json.loads(as_json)
    assert doc["results"]["total"] == pytest.approx(456.0)
    as_csv = cli.render_report(report, "csv")
    lines = as_csv.splitlines()
    assert lines[0] == "key,value"
    row = dict(line.split(",", 1) for line in lines[1:])
    assert float(row["results.total"]) == pytest.approx(456.0)


def test_render_pins_both_formats():
    report = cli.RunReport(
        command="brlab", scenario="s.json", digest="0123456789abcdef",
        elapsed_s=0.25,
        results={"ok": np.bool_(True), "iterations": np.int64(7),
                 "gap": np.float64(0.125), "prices": np.array([1.5, -2.0, 3.25]),
                 "local_minima": [[1.5, 0.25], [2.0, 0.5]],
                 "detail": {"regime": "unique", "b2_interval": None}},
        residuals={"kkt": 1e-12})
    assert cli.render_report(report, "json") == """\
{
  "command": "brlab",
  "digest": "0123456789abcdef",
  "elapsed_s": 0.25,
  "residuals": {
    "kkt": 1e-12
  },
  "results": {
    "detail": {
      "b2_interval": null,
      "regime": "unique"
    },
    "gap": 0.125,
    "iterations": 7,
    "local_minima": [
      [
        1.5,
        0.25
      ],
      [
        2.0,
        0.5
      ]
    ],
    "ok": true,
    "prices": [
      1.5,
      -2.0,
      3.25
    ]
  },
  "scenario": "s.json"
}"""
    assert cli.render_report(report, "csv") == """\
key,value\r
command,brlab\r
scenario,s.json\r
digest,0123456789abcdef\r
elapsed_s,0.25\r
results.ok,True\r
results.iterations,7\r
results.gap,0.125\r
results.prices,"1.5,-2.0,3.25"\r
results.local_minima,"[1.5, 0.25],[2.0, 0.5]"\r
results.detail.regime,unique\r
results.detail.b2_interval,\r
residuals.kkt,1e-12\r"""


def _canonical(text: str) -> str:
    return json.dumps(json.loads(text), indent=2, sort_keys=True)


_NUMBERS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([-0.0, 1e16, 5e-324, float("nan"), float("inf"),
                     float("-inf"), True, False, 0, 1]))
_TEXT = st.one_of(st.text(max_size=8),
                  st.sampled_from([", ", '"', '", "', "a\nb", "\\", "é",
                                   "日本語", "\u2028", ""]))


def _documents(depth: int):
    """JSON documents nested at most ``depth`` containers deep."""
    leaves = st.one_of(_NUMBERS, _TEXT)
    if depth == 0:
        return leaves
    inner = _documents(depth - 1)
    return st.one_of(leaves, st.lists(_NUMBERS, max_size=6),
                     st.lists(inner, max_size=4),
                     st.dictionaries(_TEXT, inner, max_size=4))


@given(_documents(4))
@example([])
@example({"a": [[], {}, [{}]], "b": [[1, 2], [3.5, None]]})
@example([{"b": 1, "a": [True, 0, False]}, [-0.0, 1e16, 5e-324], [1, "1"]])
@example({"tuple": (1, 2.5), "nested": [(0.5,), ()]})
@settings(max_examples=300)
def test_the_report_encoder_writes_what_json_dumps_writes(doc):
    assert cli._json(doc) == json.dumps(doc, indent=2, sort_keys=True)


@st.composite
def _records(draw):
    """Lists of flat records that share a key set, at times with one record
    off it: keys that look like values or format fields, and values that
    are not finite or not numbers."""
    keys = draw(st.lists(st.one_of(_TEXT, st.sampled_from(
        ["None", "inf", "nan", "%", "%r", "%%s", "limit"])), min_size=1,
        max_size=4, unique=True))
    values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.integers(-10**20, 10**20), st.none())
    records = draw(st.lists(st.fixed_dictionaries(dict.fromkeys(keys, values)),
                            min_size=1, max_size=5))
    if draw(st.booleans()):  # one record off the shared form
        record = records[draw(st.integers(0, len(records) - 1))]
        record[draw(st.sampled_from(keys))] = draw(_NUMBERS | _TEXT)
        if draw(st.booleans()):
            record[draw(_TEXT)] = 1.0
    return draw(st.sampled_from([records, {"lines": records}, [records]]))


@given(_records())
@example([{"a": 1.0, "b": None}, {"a": -0.0, "b": 1e300}])
@example([{"c": 1e-300, "d": 2}, {"c": float("inf"), "d": 2}])
@example([{"None": 1.0}, {"None": None}])
@example([{"a": 1.0}, {"a": True}])
@settings(max_examples=300)
def test_the_report_encoder_writes_records_as_json_dumps_does(doc):
    assert cli._json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_the_report_encoder_refuses_a_key_that_is_not_a_string():
    with pytest.raises(TypeError, match="report keys must be strings"):
        cli._json({"results": {1: 2.0}})


def _scenario_commands(path: str, bids: str) -> list:
    return [["validate", path], ["clear", path, "--bids", bids],
            ["gne", path], ["ve", path], ["social", path],
            ["selfsuff", path], ["poa", path], ["bid", path],
            ["brlab", path, "--prosumer", "1", "--fix-bids", bids],
            ["brlab", path, "--verify", bids]]


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_every_report_is_canonical_json(name, capsys):
    # a JSON report is exactly json.dumps(report, indent=2, sort_keys=True)
    path = str(SCENARIOS / name)
    gne, _ = cli.run_command(["gne", path])
    bids = ",".join(map(repr, gne.results["b_bar"].tolist()))
    for argv in _scenario_commands(path, bids):
        assert cli.main(argv) == 0, argv
        text = capsys.readouterr().out
        assert text == _canonical(text) + "\n", argv


def test_generated_classified_and_batch_reports_are_canonical_json(
        tmp_path, capsys):
    pair = tmp_path / "pair.json"
    dump_scenario(equal_pair(1.0, (1.0, 0.5), 0.1), pair)
    out_dir = tmp_path / "reports"
    for argv in (["brlab", str(pair), "--classify-2bus"],
                 ["gen", "--seed", "7", "--size", "12", "--style", "tight",
                  "-o", str(tmp_path / "g12.json")],
                 ["batch", "--dir", str(SCENARIOS), "--out", str(out_dir)]):
        assert cli.main(argv) == 0, argv
        text = capsys.readouterr().out
        assert text == _canonical(text) + "\n", argv
    files = sorted(out_dir.glob("*.report.json"))
    assert len(files) == len(list(SCENARIOS.glob("*.json")))
    for path in files:
        text = path.read_text()
        assert text == _canonical(text) + "\n", path.name


def test_main_prints_report(fixture_file, capsys):
    code = cli.main(["selfsuff", fixture_file])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["results"]["total"] == pytest.approx(456.0)


def test_module_entry_point(fixture_file):
    proc = subprocess.run([sys.executable, "-m", "esharing", "gne",
                           fixture_file], capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["results"]["p_bar"] == pytest.approx([105.0, 195.0])


def test_closed_stdout_exits_one_without_a_traceback(fixture_file):
    # the reading end is closed before the command writes, as when a pipe
    # into ``head`` has read its lines
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "esharing", "gne",
                               fixture_file], stdout=write_end,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_a_closed_stdout_in_process_points_it_at_the_null_device(
        fixture_file, monkeypatch, capsys):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(write_end))
        assert cli.main(["gne", fixture_file]) == 1
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    finally:
        os.close(write_end)
    assert capsys.readouterr().err == ""


def test_a_foreign_warning_goes_to_the_handler_in_place_before_the_run(
        fixture_file, monkeypatch, capsys):
    # a package warning prints one labelled line; any other warning goes to
    # whatever handled warnings when the command started
    seen = []

    def handler(message, category, *args, **kwargs):
        seen.append((str(message), category))

    def gne(scenario, args):
        warnings.warn("not the package's", UserWarning)
        return {}, {}

    monkeypatch.setitem(cli._COMMANDS, "gne", gne)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = handler
        _, code = cli.run_command(["gne", fixture_file])
        assert warnings.showwarning is handler
    assert code == 0
    assert seen == [("not the package's", UserWarning)]
    assert capsys.readouterr().err == ""


def test_importing_the_cli_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, esharing.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_format_flag_with_equals_sign(fixture_file, capsys):
    code = cli.main(["--format=csv", "gne", fixture_file])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "key,value"


# one argv per command, with the shapes the benchmark runs; "{f}" is a file
_ONE_PER_COMMAND = [
    ["validate", "{f}"],
    ["clear", "{f}", "--bids", "10.5,30.6"],
    ["gne", "{f}"],
    ["ve", "{f}"],
    ["social", "{f}"],
    ["selfsuff", "{f}"],
    ["--format", "csv", "poa", "{f}"],
    ["bid", "{f}", "--eps", "1e-4", "--max-iter", "40", "--trace", "t.csv"],
    ["brlab", "{f}", "--prosumer", "2", "--fix-bids", "1.6,1.6,0.8"],
    ["brlab", "{f}", "--prosumer", "2", "--fix-bids", "1.6,1.6,0.8",
     "--regulated"],
    ["--format=csv", "brlab", "{f}", "--verify", "1,2,3", "--tol", "1e-3"],
    ["gen", "--seed", "7", "--size", "12", "--style", "tight", "-o", "g.json"],
    ["batch", "--dir", "{f}", "--out", "reports"],
]


def _kept(argv):
    """``argv`` parsed as a run parses it, by the parser the process keeps."""
    return cli._parser().parse_args(argv)


@pytest.mark.parametrize("argv", _ONE_PER_COMMAND,
                         ids=lambda argv: "-".join(a.lstrip("-") for a in argv
                                                   if a != "{f}")[:40])
def test_a_command_parses_alone_as_with_every_command(argv):
    # the kept parser gives a command's argv the namespace of a new parser
    # of every command, before and after a usage error and a help page in
    # the same process
    argv = [a.replace("{f}", "s.json") for a in argv]
    command = next(a for a in argv if a in cli._PARSERS)
    kept = cli._parser()
    assert _kept(argv) == cli.build_parser().parse_args(argv)
    assert cli.run_command([*argv, "--nosuch"]) == (None, 1)
    _help_text(cli.main, [command, "--help"])
    assert cli._parser() is kept
    assert _kept(argv) == cli.build_parser().parse_args(argv)


def test_the_parser_table_covers_every_command():
    runnable = set(cli._COMMANDS) | {"gen", "batch"}
    assert set(cli._PARSERS) == runnable
    assert {a for argv in _ONE_PER_COMMAND for a in argv} >= runnable


def _help_text(parse, argv) -> str:
    out = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(out):
        parse(argv)
    assert exc.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("command", list(cli._PARSERS))
def test_a_command_alone_prints_the_same_help(command):
    # a command's help, printed by a run, is a new parser's
    argv = [command, "--help"]
    text = _help_text(cli.main, argv)
    assert text == _help_text(cli.build_parser().parse_args, argv)
    assert text.startswith(f"usage: esharing {command} ")


def test_help_follows_columns_between_two_runs(monkeypatch):
    # the kept parser, built at the first width, prints its help at the
    # width of the moment, as a parser built then does
    cli._parser.cache_clear()
    argv, widest = ["brlab", "--help"], []
    for columns in (50, 120):
        monkeypatch.setenv("COLUMNS", str(columns))
        text = _help_text(cli.main, argv)
        assert text == _help_text(cli.build_parser().parse_args, argv)
        widest.append(max(map(len, text.splitlines())))
    assert widest[0] <= 48 < widest[1]


def _parse_outcome(parse, argv) -> tuple:
    """What ``parse(argv)`` gives: its namespace, its usage error's text, or
    the help it prints and its exit code."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "args", parse(argv)
    except cli.UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "help", exc.code, out.getvalue()


def _flags(command: str) -> list:
    parser = cli._Parser()
    cli._PARSERS[command][1](parser)
    return [flag for action in parser._actions for flag in action.option_strings]


# command names and a prefix of one, format flags and values, help, each
# command's flags alone and with a value, a scenario file and bid values
_TOKENS = sorted({
    *cli._PARSERS, "brl", "--format", "--format=csv", "--form", "json", "xml",
    "--=json", "-h", "s.json", "2", "1.6,1.6,0.8",
    *(token for name in cli._PARSERS for flag in _flags(name)
      for token in (flag, f"{flag}=2"))})


@st.composite
def _argvs(draw):
    """A list of ``_TOKENS``, or, so that many of them parse,
    ``[HEAD] COMMAND [s.json] CHUNK...``, most chunks one of the command's
    own flags, alone or with a value."""
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(_TOKENS), max_size=7))
    head = draw(st.sampled_from([[], ["--format", "csv"], ["--format=json"],
                                 ["--format", "xml"], ["--form", "csv"],
                                 ["-h"], ["--format"]]))
    command = draw(st.sampled_from([*cli._PARSERS, "brl"]))
    own = _flags(command) if command in cli._PARSERS else ["-h"]
    chunk = st.one_of(
        st.tuples(st.sampled_from(own),
                  st.sampled_from(["2", "1,2", "tight"])).map(list),
        st.sampled_from(own).map(lambda t: [t]),
        st.sampled_from(_TOKENS).map(lambda t: [t]))
    scenario = draw(st.sampled_from([[], ["s.json"], ["s.json"]]))
    chunks = draw(st.lists(chunk, max_size=3))
    return [*head, command, *scenario, *(t for c in chunks for t in c)]


@settings(max_examples=300, deadline=None)
@given(_argvs())
@example(["gne", "s.json", "--format", "csv"])
@example(["--format", "xml", "gne", "s.json"])
@example(["--format=csv", "brlab", "s.json", "-h"])
@example(["gne", "s.json", "--=json"])
@example(["--format", "json", "brlab", "s.json", "--prosumer=2", "--csv"])
def test_every_argv_parses_as_with_every_command(argv):
    # the kept parser, after every argv drawn before this one in the same
    # process, gives what a new parser of every command gives
    assert _parse_outcome(_kept, argv) == _parse_outcome(
        cli.build_parser().parse_args, argv)


_OTHER_SHAPES = [
    ["-h", "bid"], ["--help"], ["--form", "csv", "poa", "s.json"],
    ["--form=csv", "poa", "s.json"], ["nosuch", "s.json"], ["brl", "s.json"],
    ["--format", "csv", "nosuch"], ["--format", "csv", "-h", "bid"],
    ["--format", "csv"], ["--format"], [], ["--format", "xml", "gne", "s.json"],
    ["gne", "s.json", "--=csv"],
]


@pytest.mark.parametrize("argv", _OTHER_SHAPES, ids=[
    "h-bid", "help", "form-csv", "form=csv", "unknown", "prefix",
    "format-unknown", "format-h-bid", "format-no-command", "format-alone",
    "empty", "format-invalid", "equals-abbreviation"])
def test_other_shapes_build_every_command(argv):
    # help first, no command, an unknown or abbreviated one, an abbreviated
    # or unknown format: the kept parser gives the help or the usage error
    # of a new parser of every command
    assert _parse_outcome(_kept, argv) == _parse_outcome(
        cli.build_parser().parse_args, argv)


def _args_or_error(parse, argv):
    """``parse(argv)``, or its usage error's text; unlike
    :func:`_parse_outcome`, it leaves ``sys.stdout`` alone, so threads may
    call it."""
    try:
        return parse(argv)
    except cli.UsageError as exc:
        return str(exc)


def test_the_kept_parser_parses_from_four_threads_at_once():
    argvs = [[a.replace("{f}", "s.json") for a in argv]
             for argv in _ONE_PER_COMMAND] * 8
    argvs += [argv for argv in _OTHER_SHAPES if "-h" not in argv
              and "--help" not in argv] * 8
    new = [_args_or_error(cli.build_parser().parse_args, argv) for argv in argvs]
    cli._parser.cache_clear()  # the threads race to build it, too
    with ThreadPoolExecutor(4) as pool:
        kept = list(pool.map(lambda argv: _args_or_error(_kept, argv), argvs))
    assert kept == new


def test_help_before_a_command_lists_every_command(capsys):
    # a rule that took the first token naming a command would build the
    # parser of bid alone here and list one command
    with pytest.raises(SystemExit) as exc:
        cli.main(["-h", "bid"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(cli._PARSERS) + "}" in out
    assert out == _help_text(cli.build_parser().parse_args, ["-h"])


@pytest.mark.parametrize("argv, message", [
    (["nosuch"], "argument command: invalid choice: 'nosuch'"),
    ([], "the following arguments are required: command"),
    (["--format", "xml", "gne", "s.json"], "argument --format: invalid choice"),
    (["bid"], "the following arguments are required: scenario"),
])
def test_usage_errors_read_as_with_every_command(argv, message, capsys):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: " + message)
    with pytest.raises(cli.UsageError) as exc:
        cli.build_parser().parse_args(argv)
    assert err == f"usage error: {exc.value}\n"


@pytest.mark.parametrize("argv", [
    ["gen", "--seed", "1", "--size", "1"],
    ["bid", "{scenario}", "--eps", "-1"],
    ["bid", "{scenario}", "--max-iter", "0"],
    ["bid", "{scenario}", "--eps", "inf"],
], ids=["gen-size-1", "bid-negative-eps", "bid-max-iter-0", "bid-infinite-eps"])
def test_bad_arguments_exit_1_without_traceback(argv, fixture_file, tmp_path,
                                                monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    code = cli.main([arg.format(scenario=fixture_file) for arg in argv])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_a_negative_gen_seed_is_a_usage_error_naming_the_flag(tmp_path,
                                                              monkeypatch,
                                                              capsys):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    assert cli.main(["gen", "--seed", "-1", "--size", "5"]) == 1
    assert capsys.readouterr().err == (
        "usage error: --seed must be a non-negative integer, got -1\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["gne", "bid", "poa"])
@pytest.mark.parametrize("key,value", [("D", "NaN"), ("d", "NaN"),
                                       ("c", "Infinity")])
def test_non_finite_prosumer_data_exits_1_without_traceback(
        command, key, value, fixture_file, tmp_path, capsys):
    # Python's json reads NaN and Infinity
    with open(fixture_file) as fh:
        doc = json.load(fh)
    doc["prosumers"][0][key] = float(value.replace("Infinity", "inf"))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, str(path)]) == 1
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gne", "validate"])
def test_a_nan_baseline_exits_1_without_traceback(command, fixture_file,
                                                  tmp_path, capsys):
    # a NaN p0 was kept, and dumping the scenario wrote "p0": NaN
    with open(fixture_file) as fh:
        doc = json.load(fh)
    doc["prosumers"][0].update(p0=math.nan, E0=1.0, D0=2.0)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: invalid scenario document: "
                   "prosumer p0 must be finite, got nan\n")


@pytest.mark.parametrize("record,value", [
    ("lines", {}), ("lines", [1]), ("prosumers", [1, 2]), ("prosumers", None)])
def test_records_that_are_no_json_objects_exit_1(record, value, fixture_file,
                                                 tmp_path, capsys):
    with open(fixture_file) as fh:
        doc = json.load(fh)
    (doc["network"] if record == "lines" else doc)[record] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["gne", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: invalid scenario document: {record} must be a "
                   "list of JSON objects\n")


@pytest.mark.parametrize("command", ["gne", "bid", "poa"])
def test_infinite_line_weight_exits_1_without_traceback(command, fixture_file,
                                                        tmp_path, capsys):
    with open(fixture_file) as fh:
        doc = json.load(fh)
    doc["network"]["lines"][0]["weight"] = float("inf")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert "must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key,value", [("from", 1.5), ("bus_count", 2.7),
                                       ("slack", 1.5)])
def test_a_fractional_bus_number_exits_1_without_traceback(key, value,
                                                           fixture_file,
                                                           tmp_path, capsys):
    with open(fixture_file) as fh:
        doc = json.load(fh)
    if key == "from":
        doc["network"]["lines"][0][key] = value
    else:
        doc["network"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["gne", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"invalid scenario document: {key} must be a whole number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("record,key,value", [
    ("lines", "limit", False), ("lines", "limit", "inf"),
    ("prosumers", "c", "0.003"), ("prosumers", "d", True),
    ("lines", "weight", "2"), ("prosumers", "D", " 100 ")])
def test_a_number_field_that_is_no_number_exits_1(record, key, value,
                                                   tmp_path, capsys):
    doc = json.loads((SCENARIOS / "two_prosumer_f5.json").read_text())
    where = doc["network"]["lines"] if record == "lines" else doc["prosumers"]
    where[0][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["gne", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"invalid scenario document: {key} must be a number" in err
    assert "Traceback" not in err


@pytest.fixture
def overflow_file(fixture_file, tmp_path):
    """The two-prosumer fixture with prosumer 2's demand at 1e307, where the
    equilibrium's costs and payments overflow floating point."""
    with open(fixture_file) as fh:
        doc = json.load(fh)
    doc["prosumers"][1]["D"] = 1e307
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command", ["gne", "poa", "bid"])
def test_non_finite_results_exit_1_without_traceback(command, overflow_file,
                                                     capsys):
    with np.errstate(all="ignore"):
        assert cli.main([command, overflow_file]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "is infinite or NaN" in err
    assert "Traceback" not in err


def test_bid_writes_no_trace_for_non_finite_results(overflow_file, tmp_path):
    trace = tmp_path / "trace.csv"
    with np.errstate(all="ignore"):
        _, code = cli.run_command(["bid", overflow_file, "--trace", str(trace)])
    assert code == 1
    assert not trace.exists()


def test_bid_checks_its_report_once(fixture_file, tmp_path, monkeypatch):
    calls = []
    check = cli._check_report
    monkeypatch.setattr(cli, "_check_report",
                        lambda *a: calls.append(a) or check(*a))
    trace = tmp_path / "t.csv"
    _, code = cli.run_command(["bid", fixture_file, "--trace", str(trace)])
    assert code == 0
    assert len(calls) == 1
    assert trace.read_text().startswith("iter,i,lambda,")


def test_batch_counts_non_finite_results_as_a_failure(overflow_file, tmp_path):
    scen_dir = tmp_path / "scens"
    scen_dir.mkdir()
    os.replace(overflow_file, scen_dir / "overflow.json")
    dump_scenario(cases.two_prosumer_line(5.0), scen_dir / "fine.json")
    out_dir = tmp_path / "reports"
    with np.errstate(all="ignore"):
        report, code = cli.run_command(["batch", "--dir", str(scen_dir),
                                        "--out", str(out_dir)])
    assert code == 1
    assert report.results["failures"] == 1
    assert report.results["files"]["fine.json"] == "ok"
    assert report.results["files"]["overflow.json"].startswith("error: results.")
    assert "is infinite or NaN" in report.results["files"]["overflow.json"]
    assert sorted(p.name for p in out_dir.iterdir()) == ["fine.report.json"]


def test_brlab_on_an_all_nan_scan_exits_1_without_traceback(overflow_file,
                                                            capsys):
    # prosumer 2's own cost overflows at every bid, as its demand is 1e307
    code = cli.main(["brlab", overflow_file, "--prosumer", "2",
                     "--fix-bids", "1,2"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert "is infinite or NaN" in err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_brlab_on_the_overflow_fixture_finds_the_lowest_cost(overflow_file):
    # prosumer 1's cost does not involve prosumer 2's demand of 1e307: the
    # walk over the whole bid line finds the minimum of a sweep of
    # prosumer_cost, at a bid near 9.961, with no window that overflows
    report, code = cli.run_command(["brlab", overflow_file, "--prosumer", "1",
                                    "--fix-bids", "1,2"])
    assert code == 0
    results = report.results
    scenario = load_scenario(overflow_file)
    sweep = [prosumer_cost(scenario, np.array([b, 2.0]), 0)
             for b in np.linspace(9.9, 10.02, 1201)]
    assert results["best_bid"] == pytest.approx(9.961, abs=1e-3)
    assert results["best_cost"] == pytest.approx(70.368, abs=1e-3)
    assert min(sweep) - 1e-9 <= results["best_cost"] <= min(sweep)
    lo, hi = results["interval"]
    assert lo <= 1.0 and lo <= results["best_bid"] <= hi


@pytest.mark.parametrize("argv", [
    ["gne"], ["poa"], ["bid"], ["brlab", "--prosumer", "2", "--fix-bids", "1,2"],
], ids=["gne", "poa", "bid", "brlab"])
def test_overflow_prints_no_runtime_warnings(argv, overflow_file):
    # a subprocess, so that no warning filter of the test run hides them
    proc = subprocess.run([sys.executable, "-m", "esharing", argv[0],
                           overflow_file, *argv[1:]],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "RuntimeWarning" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("command", ["ve", "bid"])
def test_package_warnings_print_one_labelled_line(command, tmp_path):
    # ve on a mesh warns that its closed form assumes a tree; bid with a
    # below a_min warns that it may not settle, and then settles
    path = MESH
    if command == "bid":
        path = str(tmp_path / "weak.json")
        dump_scenario(cases.three_bus_chain(1.0, (1.0, 1.0, 0.0), 0.3, a=0.2),
                      path)
    proc = subprocess.run([sys.executable, "-m", "esharing", command, path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == command
    assert proc.stderr.startswith("warning: ")
    assert len(proc.stderr.splitlines()) == 1


def _small_a_file(tmp_path, scenario, a):
    path = tmp_path / "small_a.json"
    dump_scenario(scenario, path)
    doc = json.loads(path.read_text())
    doc["a"] = a
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("scenario,a", [
    (cases.two_prosumer_line(5.0), 1e-10),
    (gen_scenario(3, 30, "tight"), 1e-9),
], ids=["two_prosumer_f5", "tight30"])
def test_a_breached_reclear_contract_exits_1(scenario, a, tmp_path, capsys):
    path = _small_a_file(tmp_path, scenario, a)
    assert cli.main(["gne", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "residuals.clearing_price_gap" in err
    assert "Traceback" not in err
    out_dir = tmp_path / "reports"
    report, code = cli.run_command(["batch", "--dir", str(tmp_path),
                                    "--out", str(out_dir)])
    assert code == 1
    assert report.results["failures"] == 1
    assert "residuals.clearing_price_gap" in report.results["files"]["small_a.json"]
    assert not list(out_dir.iterdir())


@pytest.mark.parametrize("row", [0, 36])
def test_validate_probes_every_bus(row):
    scenario = gen_scenario(7, 38, "tight")
    _, residuals = cli._cmd_validate(scenario)
    assert residuals["ptdf_oracle_gap"] <= 1e-12
    net = scenario.network
    ptdf = net.ptdf.copy()
    ptdf[row, 5] += 0.25
    bad = Scenario(network=dataclasses.replace(net, ptdf=ptdf),
                   prosumers=scenario.prosumers, a=scenario.a)
    _, residuals = cli._cmd_validate(bad)
    assert residuals["ptdf_oracle_gap"] == pytest.approx(0.25)


@pytest.mark.parametrize("argv", [
    ["gen", "--seed", "1", "--size", "5", "-o", "{blocker}/x.json"],
    ["batch", "--dir", "{scenarios}", "--out", "{blocker}/r"],
    ["bid", "{scenario}", "--trace", "{blocker}/t.csv"],
    ["brlab", "{chain}", "--prosumer", "2", "--fix-bids", "1.6,1.6,0.8",
     "--csv", "{blocker}/s.csv"],
], ids=["gen-output", "batch-out", "bid-trace", "brlab-csv"])
def test_an_unwritable_output_path_exits_1_without_traceback(
        argv, fixture_file, chain_file, tmp_path, capsys):
    # the output's directory is a regular file
    blocker = tmp_path / "f"
    blocker.write_text("")
    before = sorted(tmp_path.iterdir())
    code = cli.main([arg.format(blocker=blocker, scenarios=tmp_path,
                                scenario=fixture_file, chain=chain_file)
                     for arg in argv])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert sorted(tmp_path.iterdir()) == before
    assert blocker.read_text() == ""


def test_batch_counts_a_failed_report_write_as_a_failure(fixture_file,
                                                         tmp_path):
    # a directory stands where the report of two_f5.json would go
    out_dir = tmp_path / "reports"
    (out_dir / "two_f5.report.json").mkdir(parents=True)
    dump_scenario(cases.two_prosumer_line(10.0), tmp_path / "fine.json")
    report, code = cli.run_command(["batch", "--dir", str(tmp_path),
                                    "--out", str(out_dir)])
    assert code == 1
    assert report.results["failures"] == 1
    assert report.results["files"]["fine.json"] == "ok"
    assert report.results["files"]["two_f5.json"].startswith("error: [Errno")
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "fine.report.json", "two_f5.report.json"]


@pytest.mark.parametrize("argv", [
    ["bid", "{path}", "--eps", "1e-4", "--trace", "{path}"],
    ["brlab", "{path}", "--prosumer", "1", "--fix-bids", "10.5,30.6",
     "--csv", "{path}"],
], ids=["bid", "brlab"])
def test_the_digest_names_the_input_that_was_solved(argv, tmp_path):
    # the command overwrites its own scenario file; the digest is still
    # that of the bytes it parsed
    original = Path(MESH).with_name("two_prosumer_f5.json").read_bytes()
    path = tmp_path / "s.json"
    path.write_bytes(original)
    report, code = cli.run_command([a.format(path=path) for a in argv])
    assert code == 0
    assert path.read_bytes() != original
    assert report.digest == hashlib.sha256(original).hexdigest()[:16]


def test_batch_digests_the_bytes_it_parsed(fixture_file, tmp_path):
    out_dir = tmp_path / "reports"
    _, code = cli.run_command(["batch", "--dir", str(tmp_path),
                               "--out", str(out_dir)])
    assert code == 0
    doc = json.loads((out_dir / "two_f5.report.json").read_text())
    data = Path(fixture_file).read_bytes()
    assert doc["digest"] == hashlib.sha256(data).hexdigest()[:16]


def test_a_file_that_is_not_utf8_exits_1_without_traceback(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"version": "\xff"}')
    report, code = cli.run_command(["gne", str(bad)])
    assert report is None and code == 1
    assert capsys.readouterr().err.startswith(
        f"error: scenario file {bad} is not valid JSON: ")


NUMPY_OOM = ("Unable to allocate 298. GiB for an array with shape "
             "(200000, 199999) and data type float64")


@pytest.mark.parametrize("argv,patched", [
    (["gen", "--seed", "1", "--size", "200000", "-o", "{tmp}/g.json"],
     "gen_scenario"),
    (["gne", "{file}"], "build_network"),
], ids=["gen", "gne"])
@pytest.mark.parametrize("message,line", [
    (NUMPY_OOM, NUMPY_OOM),  # what numpy raises for 200,000 buses' PTDF
    ("", "MemoryError"),     # Python's own has no message
], ids=["numpy", "python"])
def test_running_out_of_memory_exits_1_with_one_line(
        argv, patched, message, line, fixture_file, tmp_path, monkeypatch,
        capsys):
    # raised, not provoked: whether a real 298 GiB request fails depends on
    # the host's overcommit policy
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    module = cli if patched == "gen_scenario" else scenario_io
    monkeypatch.setattr(module, patched, out_of_memory)
    report, code = cli.run_command(
        [a.format(tmp=tmp_path, file=fixture_file) for a in argv])
    assert report is None and code == 1
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize("mesh", WIDE_MESHES.values(), ids=WIDE_MESHES)
def test_a_singular_mesh_file_exits_1_with_one_line(mesh, tmp_path, capsys):
    bus_count, lines, slack, span = mesh
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "version": "1", "a": 1.0,
        "network": {"bus_count": bus_count, "slack": slack, "lines": [
            {"from": f, "to": t, "weight": w, "limit": 1.0}
            for f, t, w in lines]},
        "prosumers": [{"c": 1.0, "d": 0.0, "D": 1.0}] * bus_count}))
    code = cli.main(["gne", str(path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: invalid scenario document: the mesh's nodal "
                          "equations are numerically singular: line weights "
                          + span)
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1

import csv
import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings

from conftest import limited_scenarios, uniform_chain, with_chords
from esharing import bidding, cases, equilibrium, market, tree
from esharing.bidding import (
    BiddingConfig,
    BiddingTrace,
    a_min,
    fejer_check,
    platform_update,
    prosumer_update,
    run_bidding,
    write_trace_csv,
)
from esharing.errors import DimensionMismatch, MaxIterExceeded, WeakSensitivityWarning
from esharing.market import Scenario, clear_market
from esharing.scenario_io import gen_scenario


def test_platform_fixed_point(two_f5):
    bids = np.array([10.5, 30.6])
    lam = clear_market(two_f5, bids).prices
    assert platform_update(two_f5, lam, bids).prices == pytest.approx(lam, abs=1e-9)


def test_platform_uncongested_shift(two_f10):
    # away from limits the update averages the prior prices toward balance
    bids = np.array([12.0, 28.0])
    lam_k = np.array([1.0, 3.0])
    lam = platform_update(two_f10, lam_k, bids).prices
    shift = (lam_k.sum() / 2.0 - bids.sum() / two_f10.a) / 2.0
    assert lam == pytest.approx(lam_k / 2.0 - shift)
    assert lam.sum() == pytest.approx(bids.sum() / two_f10.a)


def test_prosumer_update_formula(two_f5):
    p, b = prosumer_update(two_f5, np.array([1.55, 2.56]))
    assert p == pytest.approx([105.0, 195.0], abs=1e-10)
    assert b == pytest.approx([10.5, 30.6], abs=1e-10)


def test_prosumer_update_is_best_reply(two_f10):
    # the update minimizes J_i(p) + lam * (D - p) + (p - D + a lam)^2 term
    lam = np.array([2.0, 2.0])
    p, b = prosumer_update(two_f10, lam)
    w = 1.0 / (two_f10.a * (two_f10.size - 1))
    grid = np.linspace(-50.0, 350.0, 200001)
    for i in range(2):
        vals = two_f10.prosumers[i].disutility(grid) \
            + lam[i] * (two_f10.D[i] - grid) \
            + 0.5 * w * (two_f10.D[i] - grid) ** 2
        assert p[i] == pytest.approx(grid[vals.argmin()], abs=0.01)


def test_kept_response_terms_follow_their_scenario():
    # the response terms kept with a scenario are its own: a copy with
    # another ``a``, or prosumers with another ``c``, responds by the closed
    # form of its own data, bit for bit
    base = gen_scenario(3, 8, "tight")
    lam = np.random.default_rng(5).uniform(-2.0, 4.0, base.size)
    prosumer_update(base, lam)
    other_c = Scenario(network=base.network, a=base.a, prosumers=[
        dataclasses.replace(pr, c=1.7 * pr.c) for pr in base.prosumers])
    for scenario in (base, dataclasses.replace(base, a=2.0 * base.a), other_c):
        p, b = prosumer_update(scenario, lam)
        s = scenario.a * (scenario.size - 1)
        p_ref = (s * lam - s * scenario.d + scenario.D) / (2.0 * s * scenario.c + 1.0)
        b_ref = scenario.D - p_ref + scenario.a * lam
        assert p.tobytes() == p_ref.tobytes()
        assert b.tobytes() == b_ref.tobytes()


def test_a_min_values():
    assert a_min(cases.two_prosumer_line(5.0)) == 0.0
    assert a_min(cases.three_bus_chain(1.0, (1.0, 1.0, 0.0), 0.3)) == \
        pytest.approx(0.25)
    ten = uniform_chain(10, c=0.003, d=0.1, demand=10.0,
                        limit=np.inf, a=200.0)
    assert a_min(ten) == pytest.approx(4000.0 / 27.0)


def test_bidding_converges_to_equilibrium(two_f5):
    eqm = equilibrium.improved_gne(two_f5)
    result = run_bidding(two_f5, BiddingConfig(epsilon=1e-4))
    assert result.iterations <= 50
    assert np.abs(result.bids - eqm.b_bar).max() <= 1e-3
    assert np.abs(result.production - eqm.p_bar).max() <= 1e-3
    report = fejer_check(result.trace, eqm)
    assert report.monotone
    assert report.max_violation <= 1e-9
    assert np.all(np.diff(report.distances) <= 1e-9)


def test_bidding_started_at_equilibrium_stays(two_f5):
    # one round from the equilibrium prices and bids returns its bids
    eqm = equilibrium.improved_gne(two_f5)
    cleared = platform_update(two_f5, eqm.lambda_r, eqm.b_bar)
    _, bids = prosumer_update(two_f5, cleared.prices)
    assert np.abs(bids - eqm.b_bar).max() <= 1e-6


def test_bidding_on_chain(chain_f03):
    eqm = equilibrium.improved_gne(chain_f03)
    result = run_bidding(chain_f03, BiddingConfig(epsilon=1e-8, max_iter=500))
    assert np.abs(result.bids - eqm.b_bar).max() <= 1e-6
    assert np.abs(result.prices - eqm.lambda_r).max() <= 1e-6


def test_weak_sensitivity_warns():
    base = cases.three_bus_chain(1.0, (1.0, 1.0, 0.0), 0.3)
    weak = Scenario(network=base.network, prosumers=base.prosumers, a=0.2)
    with pytest.warns(WeakSensitivityWarning):
        run_bidding(weak, BiddingConfig(epsilon=1e-3, max_iter=400))


def test_iteration_cap_raises_with_trace(two_f5):
    with pytest.raises(MaxIterExceeded) as excinfo:
        run_bidding(two_f5, BiddingConfig(epsilon=1e-14, max_iter=3))
    err = excinfo.value
    assert err.trace is not None
    assert len(err.trace) >= 3
    assert err.residual > 1e-14


@pytest.mark.parametrize("max_iter", [2.5, 3.0, True, False, "3", None])
def test_config_refuses_a_max_iter_that_is_not_an_integer(max_iter):
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        BiddingConfig(max_iter=max_iter)


def test_config_takes_a_numpy_integer_max_iter(two_f5):
    result = run_bidding(two_f5, BiddingConfig(epsilon=1e-4, max_iter=np.int64(50)))
    assert result.iterations <= 50


def test_config_refuses_a_non_finite_epsilon():
    for eps in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            BiddingConfig(epsilon=eps)


def test_default_epsilon_scales_with_demand(two_f5):
    config = BiddingConfig()
    expected = 1e-6 * (1.0 + float(np.abs(two_f5.D).max()))
    assert config.resolved_epsilon(two_f5) == pytest.approx(expected)


def test_trace_csv_export(tmp_path, two_f5):
    eqm = equilibrium.improved_gne(two_f5)
    result = run_bidding(two_f5, BiddingConfig(epsilon=1e-4))
    path = tmp_path / "trace.csv"
    write_trace_csv(result.trace, path, eqm=eqm)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,i,lambda,b,p,delta_b_norm,dist_to_eqm"
    assert len(lines) == 1 + 2 * len(result.trace)
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1"
    assert first[5] == ""  # no bid change defined on the first sweep
    dists = [float(row.split(",")[6]) for row in lines[1::2]]
    assert dists == sorted(dists, reverse=True)


def write_trace_rows(trace, path, eqm=None):
    """Reference for ``write_trace_csv``: one ``csv.writer`` row at a time,
    with the distance to the equilibrium from one dot product per row."""
    dist = None
    if eqm is not None:
        dist = []
        for k in range(len(trace)):
            dp = trace.production[k] - eqm.p_bar
            db = trace.bids[k] - eqm.b_bar
            dist.append(np.sqrt(float(dp @ dp) + float(db @ db)))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "i", "lambda", "b", "p",
                         "delta_b_norm", "dist_to_eqm"])
        for k in range(len(trace)):
            delta = trace.delta_b[k]
            for i in range(len(trace.bids[k])):
                writer.writerow([
                    k + 1, i + 1,
                    repr(float(trace.prices[k][i])),
                    repr(float(trace.bids[k][i])),
                    repr(float(trace.production[k][i])),
                    "" if np.isnan(delta) else repr(delta),
                    "" if dist is None else repr(float(dist[k])),
                ])


def test_trace_csv_matches_a_row_by_row_writer(tmp_path):
    scenario = gen_scenario(7, 38, "tight")
    eqm = equilibrium.improved_gne(scenario)
    run = run_bidding(scenario).trace
    odd = BiddingTrace()  # signed zeros, subnormals, extremes, nan and inf
    odd.record(np.array([-0.0, 5e-324, 1e308]), np.array([0.1, -1e-300, 3.0]),
               np.array([np.inf, 2.5, -7.0]), float("nan"))
    odd.record(np.array([1.0, 2.0, 3.0]), np.array([1 / 3, 2e-17, -4.0]),
               np.array([0.0, np.nan, 1e16]), 0.0)
    far = SimpleNamespace(p_bar=np.array([1.0, -2.0, 0.5]), b_bar=np.zeros(3))
    for trace, ref in ((run, eqm), (run, None), (odd, far), (odd, None),
                       (BiddingTrace(), far)):
        write_trace_csv(trace, tmp_path / "trace.csv", eqm=ref)
        write_trace_rows(trace, tmp_path / "rows.csv", eqm=ref)
        assert (tmp_path / "trace.csv").read_bytes() == \
            (tmp_path / "rows.csv").read_bytes()


def test_trace_distance_helper(two_f5):
    eqm = equilibrium.improved_gne(two_f5)
    result = run_bidding(two_f5, BiddingConfig(epsilon=1e-4))
    dist = result.trace.distances(eqm)
    assert len(dist) == len(result.trace)
    assert dist[-1] <= 1e-3


def record_stretches(monkeypatch, *counters):
    """Wrap the settled stretches; returns a list that gets, for each
    block a stretch computes (and for its end), the rounds in it and how
    much each of the ``counters`` lists grew while it was computed."""
    stretch, blocks = bidding._settled_rounds, []

    def recording(*args):
        run = stretch(*args)
        while True:
            sizes = [len(c) for c in counters]
            block = next(run, None)
            blocks.append((0 if block is None else len(block[0]),
                           *(len(c) - size for c, size in zip(counters, sizes))))
            if block is None:
                return
            yield block

    monkeypatch.setattr(bidding, "_settled_rounds", recording)
    return blocks


def test_settled_rounds_take_one_solver_iteration(monkeypatch):
    # each round hot-starts from the previous round's active set, so once
    # the set stops changing a round's program is solved by one held solve
    # of its guess, on a mesh too, and never reaches the finish; the rounds
    # after it follow that held set and make no held solve at all
    solve, mesh_components = market._solve_program, market._mesh_components
    finish = market._finish
    held_solves, finishes, solves = [], [], []

    def recording(*args):
        held, finished = len(held_solves), len(finishes)
        sol, flows = solve(*args)
        solves.append((args[5], sol.sides,
                       len(held_solves) - held, len(finishes) - finished))
        return sol, flows

    def counting(*args):
        held_solves.append(args)
        return mesh_components(*args)

    def finish_recording(*args):
        finishes.append(args)
        return finish(*args)

    monkeypatch.setattr(market, "_solve_program", recording)
    monkeypatch.setattr(market, "_mesh_components", counting)
    monkeypatch.setattr(market, "_finish", finish_recording)
    blocks = record_stretches(monkeypatch, solves, held_solves, finishes)
    result = run_bidding(with_chords(gen_scenario(7, 38, "tight"), 3))
    settled = [(held, finished) for guess, found, held, finished in solves
               if guess is not None and guess.any()
               and np.array_equal(guess, found)]
    stretched = sum(rows for rows, *_ in blocks)
    assert len(settled) + stretched > result.iterations // 2
    assert len(solves) + stretched == result.iterations
    assert settled and settled == [(1, 0)] * len(settled)
    assert [tuple(grown) for _, *grown in blocks] == [(0, 0, 0)] * len(blocks)


@pytest.mark.parametrize("chords", [0, 3])
def test_settled_rounds_build_no_factor(chords, monkeypatch):
    # a round that guesses the held set the previous round ended with reuses
    # that solve's factor, and the rounds after it follow that factor; so
    # once the set stops changing no round builds one
    scenario = gen_scenario(7, 38, "tight")
    if chords:
        scenario = with_chords(scenario, chords)
    solve, factors = market._solve_program, []
    rounds = []  # per clearing: the held lines found, and the factors built

    def recording(*args):
        built = len(factors)
        sol, flows = solve(*args)
        rounds.append((sol.sides.tobytes(), len(factors) - built))
        return sol, flows

    def building(module, name):
        build = getattr(module, name)

        def counting(*args):
            factors.append(args)
            return build(*args)
        monkeypatch.setattr(module, name, counting)

    building(tree, "_factor")
    building(market, "_mesh_factor")
    monkeypatch.setattr(market, "_solve_program", recording)
    blocks = record_stretches(monkeypatch, factors)
    result = run_bidding(scenario)
    changes = [k for k in range(1, len(rounds)) if rounds[k][0] != rounds[k - 1][0]]
    settled = rounds[changes[-1] + 1:]
    stretched = sum(rows for rows, _ in blocks)
    assert settled and len(settled) + stretched > result.iterations // 2
    assert [built for _, built in settled] == [0] * len(settled)
    assert [built for _, built in blocks] == [0] * len(blocks)
    assert factors  # the rounds before did build them


def test_settled_rounds_skip_the_finish(monkeypatch):
    # on a tree each round checks the previous round's held lines in closed
    # form; a round whose set changes repairs it by exchange steps, the
    # rounds that keep it follow it without a clearing, and no round
    # reaches the finish
    solve, finish = market._solve_program, market._finish
    iterations, finishes = [], []

    def recording(*args):
        sol, flows = solve(*args)
        iterations.append(sol.iterations)
        return sol, flows

    def counting(*args):
        finishes.append(args)
        return finish(*args)

    monkeypatch.setattr(market, "_solve_program", recording)
    monkeypatch.setattr(market, "_finish", counting)
    blocks = record_stretches(monkeypatch, iterations)
    result = run_bidding(gen_scenario(7, 38, "tight"))
    stretched = sum(rows for rows, _ in blocks)
    assert result.iterations == len(iterations) + stretched == 124
    assert stretched > 0
    assert [solved for _, solved in blocks] == [0] * len(blocks)
    assert 0 < sum(its > 1 for its in iterations) <= 15
    assert finishes == []


def test_settled_rounds_build_no_duals(monkeypatch):
    # the loop reads a clearing's prices and sides alone, so no clearing of
    # the run derives its quantities, its duals or its residual; the rounds
    # that follow a settled held set make no clearing at all
    outcomes = []

    def recording(*args):
        outcomes.append(platform_update(*args))
        return outcomes[-1]

    monkeypatch.setattr(bidding, "platform_update", recording)
    blocks = record_stretches(monkeypatch, outcomes)
    result = run_bidding(gen_scenario(7, 38, "tight"))
    stretched = sum(rows for rows, _ in blocks)
    assert stretched > 0
    assert len(outcomes) + stretched == result.iterations
    assert [cleared for _, cleared in blocks] == [0] * len(blocks)
    for out in outcomes:
        assert isinstance(out.solution, market._HeldSolution)
        assert not {"quantities", "eta"} & vars(out).keys()
        assert not {"eq_duals", "_signed", "_line_duals", "residual"} \
            & vars(out.solution).keys()


def run_traces(scenario, config=None):
    """The traces of ``run_bidding`` with its settled stretches, and with
    every round cleared by ``platform_update``."""
    traces = []
    for stretched in (True, False):
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakSensitivityWarning)
            if not stretched:
                mp.setattr(bidding, "_settled_rounds", lambda *args: iter(()))
            try:
                traces.append(run_bidding(scenario, config).trace)
            except MaxIterExceeded as exc:
                traces.append(exc.trace)
    return traces


def assert_traces_agree(fast, slow):
    # the stretches carry the prices along an affine map in place of the
    # clearing's held solve, so the iterates agree to rounding level
    assert (fast.termination, len(fast)) == (slow.termination, len(slow))
    for name in ("prices", "bids", "production", "delta_b"):
        x, y = np.array(getattr(slow, name)), np.array(getattr(fast, name))
        assert np.allclose(y, x, rtol=1e-12, atol=1e-12, equal_nan=True), name


@settings(max_examples=40, deadline=None)
@given(limited_scenarios(max_size=14))
def test_settled_stretches_follow_the_rounds_they_replace(scenario):
    # over trees and meshes, zero-limit lines among them, the run ends at
    # the same round and the same way as when every round is cleared, with
    # its iterates within 1e-12 (1 + |x|) of theirs; a sensitivity below
    # the threshold may not settle, and then rounding is not damped
    assume(scenario.a >= a_min(scenario))
    assert_traces_agree(*run_traces(scenario))


def record_rounds(monkeypatch):
    """Log, in order, each clearing ``("clear", guess, outcome)``, each
    stretch's start ``("stretch", sides)``, each run of its price map
    ``("run", rounds asked)``, each block it yields ``("block", rounds)``
    and its end ``("end",)``, unless the run stops within it."""
    events = []
    update, stretch, price_map = (bidding.platform_update, bidding._settled_rounds,
                                  bidding._price_map)

    def clearing(scenario, lam, b, active):
        out = update(scenario, lam, b, active)
        events.append(("clear", active, out))
        return out

    def mapping(*args):
        run, pushes = price_map(*args)

        def counting(anchor, count):
            events.append(("run", count))
            return run(anchor, count)
        return counting, pushes

    def stretching(scenario, prices, bids, sides, *rest):
        events.append(("stretch", sides))
        for block in stretch(scenario, prices, bids, sides, *rest):
            events.append(("block", len(block[0])))
            yield block
        events.append(("end",))

    monkeypatch.setattr(bidding, "platform_update", clearing)
    monkeypatch.setattr(bidding, "_price_map", mapping)
    monkeypatch.setattr(bidding, "_settled_rounds", stretching)
    return events


def test_a_held_set_change_inside_a_block_hands_back(monkeypatch):
    # the second block of the first stretch meets a round whose held set
    # changes; the stretch keeps the rounds before it and ends, and that
    # round is cleared by platform_update from the stretch's held set, which
    # its exchange steps change; the run goes on to settle again
    scenario = gen_scenario(1, 12, "tight")
    events = record_rounds(monkeypatch)
    run_bidding(scenario)
    k = next(k for k in range(len(events) - 1) if events[k][0] == "run"
             and events[k + 1][0] == "block" and 0 < events[k + 1][1] < events[k][1])
    sides = next(e[1] for e in reversed(events[:k]) if e[0] == "stretch")
    assert events[k + 2] == ("end",)
    kind, guess, out = events[k + 3]
    assert kind == "clear" and np.array_equal(guess, sides)
    assert not np.array_equal(out.sides, guess) and out.solution.iterations > 1
    assert any(e[0] == "block" for e in events[k + 3:])
    monkeypatch.undo()
    assert_traces_agree(*run_traces(scenario))


def test_the_cap_inside_a_settled_stretch(monkeypatch):
    # the cap stops the run within a stretch: the trace holds the start and
    # exactly max_iter rounds, the last of them from the stretch's last
    # block, which ran every round it was asked for
    events = record_rounds(monkeypatch)
    with pytest.raises(MaxIterExceeded) as excinfo:
        run_bidding(gen_scenario(7, 38, "tight"), BiddingConfig(max_iter=60))
    err = excinfo.value
    assert len(err.trace) == 61
    assert err.trace.termination == "max_iter"
    assert err.residual == err.trace.delta_b[-1]
    kinds = [e[0] for e in events]
    assert kinds.count("clear") + sum(e[1] for e in events if e[0] == "block") == 60
    assert kinds[-3:] == ["run", "block", "end"] and events[-3][1] == events[-2][1]


def test_fejer_check_of_a_one_row_trace(two_f5):
    eqm = equilibrium.improved_gne(two_f5)
    trace = BiddingTrace()
    trace.record(np.zeros(2), np.zeros(2), two_f5.D.copy(), float("nan"))
    report = fejer_check(trace, eqm)
    assert report.monotone and report.max_violation == 0.0
    assert report.distances.shape == (1,)
    assert report.distances[0] == pytest.approx(
        np.sqrt(((two_f5.D - eqm.p_bar) ** 2).sum() + (eqm.b_bar ** 2).sum()))


@pytest.mark.parametrize("prices", [0.0, [0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]]],
                         ids=["scalar", "one", "three", "row"])
def test_price_vectors_of_the_wrong_shape_are_refused(two_f5, prices):
    with pytest.raises(DimensionMismatch, match="prices"):
        platform_update(two_f5, prices, np.array([10.5, 30.6]))
    with pytest.raises(DimensionMismatch, match="prices"):
        prosumer_update(two_f5, prices)

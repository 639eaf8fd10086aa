import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import esharing
from esharing.errors import (
    DimensionMismatch,
    DisconnectedGraph,
    NonpositiveWeight,
    SingularLaplacian,
    UnbalancedInjection,
)
from esharing.network import (
    LineSpec,
    build_network,
    dc_flow_oracle,
    is_radial,
    line_flows,
)
from esharing.scenario_io import gen_scenario

from conftest import WIDE_MESHES, balanced_vector, random_tree, with_chords


@st.composite
def rooted_trees(draw, max_size=40):
    """``(bus_count, lines, slack)`` of a random tree: random parents over
    shuffled bus labels, each line pointing either way, a random slack bus
    and weights spread log-uniformly over 1e-3..1e3."""
    size = draw(st.integers(2, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    label = rng.permutation(size) + 1
    lines = []
    for i in range(1, size):
        ends = int(label[rng.integers(0, i)]), int(label[i])
        if rng.random() < 0.5:
            ends = ends[::-1]
        lines.append(LineSpec(*ends, float(10.0 ** rng.uniform(-3.0, 3.0))))
    return size, lines, int(rng.integers(1, size + 1))


def laplacian_ptdf(bus_count, lines, slack):
    """Reference: the PTDF solved from the reduced nodal Laplacian, which a
    mesh must match bit for bit and a tree to within the error bound of the
    solve, also returned: machine epsilon times the condition number of the
    Laplacian, or 1e-11 when that is smaller.  Weights spread over 1e+-3
    take the bound to about 1e-9."""
    C = np.zeros((bus_count, len(lines)))
    for l, ln in enumerate(lines):
        C[ln.from_bus - 1, l] = 1.0
        C[ln.to_bus - 1, l] = -1.0
    B = np.asarray([ln.weight for ln in lines])
    keep = np.arange(bus_count) != slack - 1
    Cr = C[keep, :]
    lap = (Cr * B) @ Cr.T
    np.linalg.cholesky(lap)
    ptdf = np.zeros((bus_count, len(lines)))
    ptdf[keep, :] = -np.linalg.solve(lap, Cr * B)
    return ptdf, max(1e-11, np.finfo(float).eps * np.linalg.cond(lap))


def test_two_bus_ptdf():
    net = build_network(2, [LineSpec(1, 2, 1.0, 5.0)])
    # one unit bought at bus 1 flows in over the line, against its orientation
    assert net.ptdf == pytest.approx(np.array([[-1.0], [0.0]]))
    assert net.slack == 2
    assert net.line_count == 1
    assert net.limits == pytest.approx([5.0])
    q = np.array([3.0, -3.0])
    assert line_flows(net, q) == pytest.approx([-3.0])


def test_chain_ptdf_rows():
    net = build_network(3, [LineSpec(1, 2), LineSpec(2, 3)])
    # purchases at bus i pull flow from the slack end of the path
    expected = np.array([[-1.0, -1.0], [0.0, -1.0], [0.0, 0.0]])
    assert net.ptdf == pytest.approx(expected)


def test_slack_row_is_zero():
    rng = np.random.default_rng(0)
    net = random_tree(rng, 7)
    assert net.ptdf[net.slack - 1] == pytest.approx(np.zeros(net.line_count))


def test_explicit_slack_changes_row_but_not_flows():
    lines = [LineSpec(1, 2, 1.3), LineSpec(2, 3, 0.7)]
    net_a = build_network(3, lines, slack=1)
    net_b = build_network(3, lines, slack=3)
    assert net_a.slack == 1
    q = np.array([1.5, -4.0, 2.5])
    assert line_flows(net_a, q) == pytest.approx(line_flows(net_b, q))


def test_orientation_flip_negates_column():
    fwd = build_network(3, [LineSpec(1, 2), LineSpec(2, 3)])
    rev = build_network(3, [LineSpec(2, 1), LineSpec(2, 3)])
    assert rev.ptdf[:, 0] == pytest.approx(-fwd.ptdf[:, 0])
    assert rev.ptdf[:, 1] == pytest.approx(fwd.ptdf[:, 1])


def test_tree_flows_ignore_weights():
    lines_a = [LineSpec(1, 2, 1.0), LineSpec(2, 3, 1.0), LineSpec(2, 4, 1.0)]
    lines_b = [LineSpec(1, 2, 0.2), LineSpec(2, 3, 5.0), LineSpec(2, 4, 1.7)]
    net_a = build_network(4, lines_a)
    net_b = build_network(4, lines_b)
    q = np.array([2.0, -1.0, 3.0, -4.0])
    assert line_flows(net_a, q) == pytest.approx(line_flows(net_b, q))


def test_mesh_flow_splits_by_weight():
    # equal-weight triangle: injection splits 2/3 direct, 1/3 around
    net = build_network(3, [LineSpec(1, 2, 1.0), LineSpec(2, 3, 1.0),
                            LineSpec(1, 3, 1.0)], slack=3)
    flows = dc_flow_oracle(net, np.array([1.0, 0.0, -1.0]))
    assert flows == pytest.approx([1.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0])
    assert not is_radial(net)


def test_is_radial_on_trees():
    rng = np.random.default_rng(3)
    assert is_radial(random_tree(rng, 9))


@given(rooted_trees(), st.integers(0, 2**32 - 1))
def test_ptdf_matches_nodal_oracle_on_trees(tree, seed):
    bus_count, lines, slack = tree
    net = build_network(bus_count, lines, slack)
    q = balanced_vector(np.random.default_rng(seed), bus_count)
    tol = laplacian_ptdf(bus_count, lines, slack)[1] * np.abs(q).sum()
    assert np.abs(line_flows(net, q) - dc_flow_oracle(net, -q)).max() <= tol


@given(st.integers(0, 10 ** 6))
def test_ptdf_matches_nodal_oracle_on_meshes(seed):
    rng = np.random.default_rng(seed)
    lines = [LineSpec(1, 2, float(rng.uniform(0.5, 2.0))),
             LineSpec(2, 3, float(rng.uniform(0.5, 2.0))),
             LineSpec(1, 3, float(rng.uniform(0.5, 2.0))),
             LineSpec(3, 4, float(rng.uniform(0.5, 2.0)))]
    net = build_network(4, lines)
    q = balanced_vector(rng, 4)
    assert line_flows(net, q) == pytest.approx(dc_flow_oracle(net, -q),
                                               abs=1e-9)


def test_oracle_rejects_unbalanced_injections():
    net = build_network(2, [LineSpec(1, 2)])
    with pytest.raises(UnbalancedInjection):
        dc_flow_oracle(net, np.array([1.0, 0.5]))


def test_disconnected_graph_rejected():
    with pytest.raises(DisconnectedGraph):
        build_network(4, [LineSpec(1, 2), LineSpec(3, 4)])
    # bus_count - 1 lines, but they close a cycle and leave the slack bus alone
    with pytest.raises(DisconnectedGraph, match=r"unreachable from bus 4: \[1, 2, 3\]"):
        build_network(4, [LineSpec(1, 2), LineSpec(2, 3), LineSpec(3, 1)])


def test_the_rooted_tree_pins_its_arrays():
    # buses 1-2-3 in a path to the slack bus 4, line 2 pointing up, and a
    # chord 1-3 that the spanning tree leaves out
    lines = [LineSpec(3, 4), LineSpec(2, 3), LineSpec(1, 2), LineSpec(1, 3)]
    tree = build_network(4, lines[:3]).tree
    assert tree.root == 3
    assert tree.parent.tolist() == [1, 2, 3, 3]
    assert tree.child.tolist() == [2, 1, 0]
    assert tree.order.tolist() == [0, 1, 2]
    assert tree.sign.tolist() == [-1.0, -1.0, -1.0]
    assert tree.head.tolist() == [3, 2, 1]
    for arr in (tree.parent, tree.child, tree.order, tree.sign, tree.head):
        assert not arr.flags.writeable
    assert [arr.dtype.kind for arr in (tree.parent, tree.child, tree.order,
                                       tree.sign, tree.head)] == list("iiifi")
    mesh = build_network(4, lines)
    assert mesh.tree is None
    flipped = build_network(4, [LineSpec(4, 3), LineSpec(3, 2), LineSpec(1, 2)],
                            slack=1)
    assert flipped.tree.parent.tolist() == [0, 0, 1, 2]
    assert flipped.tree.sign.tolist() == [-1.0, -1.0, 1.0]
    assert flipped.tree.order.tolist() == [2, 1, 0]
    single = build_network(1, []).tree
    assert single.child.dtype.kind == single.order.dtype.kind == "i"
    assert single.parent.tolist() == [0] and single.head.size == 0


@pytest.mark.parametrize("line,kind,message", [
    # the endpoint check comes first, then the weight's sign, its
    # finiteness, and the limit
    ((2, 2, -1.0, -1.0), DimensionMismatch, "line endpoints must differ, got 2->2"),
    ((1, 2, 0.0, np.nan), NonpositiveWeight, "line weight must be > 0, got 0.0"),
    ((1, 2, np.nan, -1.0), NonpositiveWeight, "line weight must be > 0, got nan"),
    ((1, 2, np.inf, -1.0), DimensionMismatch, "line weight must be finite, got inf"),
    ((1, 2, 1.0, -1.0), DimensionMismatch, "line limit must be >= 0, got -1.0"),
    ((1, 2, 1.0, np.nan), DimensionMismatch, "line limit must be >= 0, got nan")])
def test_line_errors_come_in_a_fixed_order(line, kind, message):
    with pytest.raises(kind) as exc:
        LineSpec(*line)
    assert type(exc.value) is kind
    assert str(exc.value) == message


def test_line_validation():
    with pytest.raises(DimensionMismatch):
        LineSpec(2, 2)
    with pytest.raises(NonpositiveWeight):
        LineSpec(1, 2, weight=0.0)
    with pytest.raises(NonpositiveWeight):
        LineSpec(1, 2, weight=-1.0)
    with pytest.raises(DimensionMismatch):
        LineSpec(1, 2, limit=-0.5)
    with pytest.raises(DimensionMismatch):
        LineSpec(1, 2, limit=math.nan)
    with pytest.raises(DimensionMismatch):
        LineSpec(1, 2, weight=math.inf)


def test_line_columns_are_checked_as_records():
    # the first line refused gives its record's message
    with pytest.raises(NonpositiveWeight) as exc:
        build_network(3, columns=([1, 2], [2, 3], [1.0, -2.0], [1.0, np.nan]))
    assert str(exc.value) == "line weight must be > 0, got -2.0"
    with pytest.raises(DimensionMismatch) as exc:
        build_network(3, columns=([1, 3], [2, 3], [1.0, 1.0], [1.0, 1.0]))
    assert str(exc.value) == "line endpoints must differ, got 3->3"
    with pytest.raises(DimensionMismatch, match="one length"):
        build_network(3, columns=([1, 2], [2, 3], [1.0], [1.0, 1.0]))


def test_columns_and_records_build_one_network():
    lines = [LineSpec(1, 2, 1.5, 2.0), LineSpec(3, 2, 0.5), LineSpec(1, 3, 2, 0)]
    by_records = build_network(3, lines, slack=2)
    assert by_records.lines == tuple(lines)
    by_columns = build_network(3, columns=(
        np.array([1, 3, 1]), [2, 2, 3], (1.5, 0.5, 2.0), [2.0, math.inf, 0.0]),
        slack=2)
    assert by_columns.lines == tuple(lines)
    for name in ("from_bus", "to_bus", "weights", "limits", "ptdf"):
        got, want = getattr(by_columns, name), getattr(by_records, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable


def test_bus_index_out_of_range():
    with pytest.raises(DimensionMismatch):
        build_network(2, [LineSpec(1, 3)])


@pytest.mark.parametrize("bus_count,lines,slack", [
    (0, [], None), (2, [LineSpec(1, 2)], 0), (2, [LineSpec(1, 2)], 3)],
    ids=["no-buses", "slack-0", "slack-past-n"])
def test_bus_count_and_slack_range(bus_count, lines, slack):
    with pytest.raises(DimensionMismatch):
        build_network(bus_count, lines, slack)


def test_flow_shape_check():
    net = build_network(2, [LineSpec(1, 2)])
    with pytest.raises(DimensionMismatch):
        line_flows(net, np.zeros(3))


def test_arrays_are_write_protected():
    net = build_network(2, [LineSpec(1, 2)])
    with pytest.raises(ValueError):
        net.ptdf[0, 0] = 99.0


def test_infinite_limit_mask():
    net = build_network(3, [LineSpec(1, 2, 1.0, 4.0),
                            LineSpec(2, 3, 1.0, math.inf)])
    assert list(np.isfinite(net.limits)) == [True, False]


@given(rooted_trees())
def test_tree_ptdf_is_exact(tree):
    bus_count, lines, slack = tree
    net = build_network(bus_count, lines, slack)
    assert net.tree is not None
    assert set(np.unique(net.ptdf)) <= {-1.0, 0.0, 1.0}
    assert not net.ptdf[slack - 1].any()
    solved, tol = laplacian_ptdf(bus_count, lines, slack)
    assert np.abs(net.ptdf - solved).max() <= tol


@given(rooted_trees(), st.integers(0, 2**32 - 1))
def test_tree_ptdf_ignores_the_weights(tree, seed):
    bus_count, lines, slack = tree
    rng = np.random.default_rng(seed)
    reweighted = [LineSpec(ln.from_bus, ln.to_bus,
                           float(10.0 ** rng.uniform(-3.0, 3.0)), ln.limit)
                  for ln in lines]
    assert np.array_equal(build_network(bus_count, lines, slack).ptdf,
                          build_network(bus_count, reweighted, slack).ptdf)


@given(st.integers(0, 2**32 - 1))
def test_mesh_ptdf_keeps_the_laplacian_solve(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(3, 15))
    lines = list(random_tree(rng, size).lines)
    for _ in range(int(rng.integers(1, 4))):
        u, v = rng.choice(size, 2, replace=False) + 1
        lines.append(LineSpec(int(u), int(v), float(rng.uniform(0.5, 2.0))))
    twin = lines[int(rng.integers(len(lines)))]
    lines.append(LineSpec(twin.to_bus, twin.from_bus, 0.5 * twin.weight))
    slack = int(rng.integers(1, size + 1))
    net = build_network(size, lines, slack)
    assert net.tree is None
    assert np.array_equal(net.ptdf, laplacian_ptdf(size, lines, slack)[0])


@pytest.mark.parametrize("mesh", WIDE_MESHES.values(), ids=WIDE_MESHES)
def test_a_singular_laplacian_says_why(mesh):
    bus_count, lines, slack, span = mesh
    with pytest.raises(SingularLaplacian, match=re.escape(
            f"nodal equations are numerically singular: line weights {span}")):
        build_network(bus_count, [LineSpec(*ln) for ln in lines], slack)


def test_oracle_takes_one_injection_vector_per_column():
    rng = np.random.default_rng(5)
    net = build_network(4, [LineSpec(1, 2, 1.0), LineSpec(2, 3, 0.5),
                            LineSpec(1, 3, 2.0), LineSpec(3, 4, 1.5)])
    inj = np.column_stack([balanced_vector(rng, 4) for _ in range(3)])
    flows = dc_flow_oracle(net, inj)
    assert flows.shape == (net.line_count, 3)
    for k in range(3):
        assert flows[:, k] == pytest.approx(dc_flow_oracle(net, inj[:, k]),
                                            rel=1e-12, abs=1e-12)
    assert line_flows(net, -inj) == pytest.approx(flows, abs=1e-9)
    inj[0, 1] += 1.0
    with pytest.raises(UnbalancedInjection, match="sum to 1.000e"):
        dc_flow_oracle(net, inj)
    with pytest.raises(DimensionMismatch):
        dc_flow_oracle(net, np.zeros((3, 2)))


# networks for the contract of the flow operations, built when a test asks:
# generated trees, the same trees with chords, parallel lines and zero limits
FLOW_NETWORKS = {
    "tree-2": lambda: gen_scenario(1, 2, "tight").network,
    "tree-20": lambda: gen_scenario(1, 20, "tight").network,
    "tree-200": lambda: gen_scenario(7, 200).network,
    "mesh-38-3": lambda: with_chords(gen_scenario(7, 38, "tight"), 3).network,
    "mesh-120-10": lambda: with_chords(gen_scenario(7, 120, "tight"), 10).network,
    "parallel": lambda: build_network(3, [
        LineSpec(1, 2, 1.0, 0.3), LineSpec(2, 3, 1.0, 2.0),
        LineSpec(1, 3, 1.0, 2.0), LineSpec(1, 2, 1.0, 0.3)]),
    "double-circuit": lambda: build_network(4, [
        LineSpec(1, 2, 1.5, 1.0), LineSpec(2, 1, 0.5, 1.0),
        LineSpec(2, 3, 1.0), LineSpec(3, 4, 2.0, 0.5)], slack=2),
    "zero-limit-tree": lambda: build_network(4, [
        LineSpec(1, 2, 1.0, 0.0), LineSpec(2, 3, 0.5, 1.0),
        LineSpec(4, 2, 2.0, 0.0)]),
    "zero-limit-twins": lambda: build_network(4, [
        LineSpec(1, 2, 1.0, 0.0), LineSpec(1, 2, 0.4, 0.0),
        LineSpec(2, 3, 0.5, 1.0), LineSpec(3, 4, 2.0), LineSpec(4, 1, 1.0, 0.0)],
        slack=3),
}


@pytest.fixture(params=list(FLOW_NETWORKS), ids=list(FLOW_NETWORKS))
def flow_net(request):
    return FLOW_NETWORKS[request.param]()


def test_flows_follow_the_nodal_equations(flow_net):
    # the contract of flows(), whatever computes it: the nodal equations'
    # flows of -q, one vector or the columns of a matrix
    net, rng = flow_net, np.random.default_rng(11)
    batch = np.column_stack([balanced_vector(rng, net.bus_count, 100.0)
                             for _ in range(4)])
    flows = net.flows(batch)
    assert flows.shape == (net.line_count, 4)
    tol = 1e-10 * (1.0 + np.abs(batch).sum(axis=0).max())
    np.testing.assert_allclose(flows, dc_flow_oracle(net, -batch), rtol=0, atol=tol)
    for k in range(4):
        single = net.flows(batch[:, k])
        assert single.shape == (net.line_count,)
        np.testing.assert_allclose(single, flows[:, k], rtol=0, atol=tol)


def test_price_terms_are_the_transpose_of_flows(flow_net):
    # q . price_terms(mu) = flows(q) . mu for every q and mu
    net, rng = flow_net, np.random.default_rng(12)
    for _ in range(3):
        q = rng.uniform(-10.0, 10.0, net.bus_count)
        mu = rng.uniform(0.0, 5.0, net.line_count)
        terms = net.price_terms(mu)
        assert terms.shape == (net.bus_count,)
        scale = np.abs(q).sum() * np.abs(mu).sum()
        assert q @ terms == pytest.approx(net.flows(q) @ mu, rel=0, abs=1e-13 * scale)


def test_rows_are_the_flows_of_unit_purchases(flow_net):
    # rows(p)[i] is line p's flow when bus i+1 buys one unit from the slack
    net = flow_net
    units = np.eye(net.bus_count)
    units[net.slack - 1] -= 1.0
    unit_flows = net.flows(units)  # column i: the purchase e_i - e_slack
    for p in range(net.line_count):
        np.testing.assert_allclose(net.rows(p), unit_flows[p], rtol=0, atol=1e-12)
    mask = np.arange(net.line_count) % 2 == 0
    rows = net.rows(mask)
    assert rows.shape == (np.count_nonzero(mask), net.bus_count)
    np.testing.assert_allclose(rows, unit_flows[mask], rtol=0, atol=1e-12)


def test_only_the_network_module_reads_the_ptdf():
    # every other module goes through flows, price_terms and rows, so that
    # how the network computes its flows is known in one module
    readers = set()
    for path in sorted(Path(esharing.__file__).parent.rglob("*.py")):
        if path.name != "network.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            readers.update(path.name for node in ast.walk(tree)
                           if isinstance(node, ast.Attribute) and node.attr == "ptdf")
    assert readers == set()

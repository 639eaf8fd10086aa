import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from esharing import cases
from esharing.market import Prosumer, Scenario
from esharing.network import LineSpec, build_network
from esharing.qp import QuadraticProgram, solve_qp

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def two_f5():
    """Two prosumers on one line with transfer limit 5."""
    return cases.two_prosumer_line(5.0)


@pytest.fixture
def two_f10():
    """Two prosumers on one line with transfer limit 10."""
    return cases.two_prosumer_line(10.0)


@pytest.fixture
def chain_f03():
    """Three identical-cost prosumers on a path, leaf line capped at 0.3."""
    return cases.three_bus_chain(1.0, (1.0, 1.0, 0.0), 0.3)


@pytest.fixture
def chain_f027():
    """Same chain with the cap tightened to 0.27."""
    return cases.three_bus_chain(1.0, (1.0, 1.0, 0.0), 0.27)


@pytest.fixture
def triangle_net():
    """Three-bus loop, the smallest non-radial network."""
    return build_network(3, [LineSpec(1, 2), LineSpec(2, 3), LineSpec(1, 3)])


def equal_pair(c: float, demands, limit: float, a: float = 1.0) -> Scenario:
    """Two-bus game with equal quadratic coefficients and no linear term.

    The setting whose equilibria :func:`esharing.brlab.classify_gne_2bus`
    describes in closed form.
    """
    net = build_network(2, [LineSpec(1, 2, 1.0, limit)])
    pros = [Prosumer(c=c, d=0.0, demand_reduction=float(demands[i]))
            for i in range(2)]
    return Scenario(network=net, prosumers=pros, a=a)


def uniform_chain(size: int, c: float, d: float, demand: float,
                  limit: float, a: float) -> Scenario:
    """Path network of identical prosumers (symmetry checks)."""
    lines = [LineSpec(i, i + 1, 1.0, limit) for i in range(1, size)]
    net = build_network(size, lines)
    pros = [Prosumer(c=c, d=d, demand_reduction=demand) for _ in range(size)]
    return Scenario(network=net, prosumers=pros, a=a)


def random_tree(rng, size):
    """Random labelled tree on ``size`` buses with random positive weights."""
    lines = []
    for child in range(2, size + 1):
        parent = int(rng.integers(1, child))
        weight = float(rng.uniform(0.5, 2.0))
        lines.append(LineSpec(parent, child, weight))
    return build_network(size, lines)


@st.composite
def limited_scenarios(draw, max_size=20, mesh=None):
    """Scenarios whose every line has a limit that binds at moderate bids.

    The network is a random tree of up to ``max_size`` buses or a mesh: the
    tree plus a few chords and a parallel copy of one line with a different
    weight.  ``mesh`` chooses; by default each is drawn half of the time.
    One line may have a zero limit, and on a mesh a parallel twin with a
    zero limit too, so that their two rows are dependent.
    """
    size = draw(st.integers(3, max_size))
    if mesh is None:
        mesh = draw(st.booleans())
    zero_limit = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = list(random_tree(rng, size).lines)
    if mesh:
        for _ in range(int(rng.integers(1, 4))):
            u, v = rng.choice(size, 2, replace=False) + 1
            lines.append(LineSpec(int(u), int(v), float(rng.uniform(0.5, 2.0))))
        twin = lines[int(rng.integers(len(lines)))]
        lines.append(LineSpec(twin.from_bus, twin.to_bus,
                              twin.weight * float(rng.uniform(0.2, 0.8))))
    limits = rng.uniform(0.05, 1.0, len(lines))
    if zero_limit:
        pinned = int(rng.integers(len(lines)))
        limits[pinned] = 0.0
        if mesh and draw(st.booleans()):
            twin = lines[pinned]
            lines.append(LineSpec(twin.from_bus, twin.to_bus,
                                  twin.weight * float(rng.uniform(0.2, 0.8))))
            limits = np.append(limits, 0.0)
    lines = [LineSpec(ln.from_bus, ln.to_bus, ln.weight, float(F))
             for ln, F in zip(lines, limits)]
    prosumers = [Prosumer(c=float(rng.uniform(0.5, 2.0)),
                          d=float(rng.uniform(0.0, 1.0)),
                          demand_reduction=float(rng.uniform(0.0, 2.0)))
                 for _ in range(size)]
    return Scenario(network=build_network(size, lines), prosumers=prosumers,
                    a=float(rng.uniform(0.5, 2.0)))


def with_chords(scenario, count, seed=0):
    """The scenario on its network plus ``count`` chords between random
    buses, each limited at the median line limit: a congested mesh."""
    net = scenario.network
    rng = np.random.default_rng(seed)
    limit = float(np.median(net.limits))
    lines = list(net.lines)
    for _ in range(count):
        u, v = rng.choice(net.bus_count, 2, replace=False) + 1
        lines.append(LineSpec(int(u), int(v), float(rng.uniform(0.5, 2.0)), limit))
    return Scenario(network=build_network(net.bus_count, lines, net.slack),
                    prosumers=scenario.prosumers, a=scenario.a)


def balanced_vector(rng, size, scale=10.0):
    q = rng.uniform(-scale, scale, size)
    return q - q.mean()


def oracle(net, hess, linear, base, k):
    """A package program ``(net, hess, linear, base, k)`` as a dense QP in
    ``x``, and the dense solver's solution of it."""
    G = net.ptdf.T
    qp = QuadraticProgram(
        hessian=hess, linear=linear,
        eq_matrix=np.ones((1, net.bus_count)), eq_rhs=[base.sum() / k],
        ineq_matrix=-k * G, ineq_lower=-net.limits - G @ base,
        ineq_upper=net.limits - G @ base)
    return qp, solve_qp(qp)

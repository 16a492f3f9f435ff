"""`enumerate_paths` against the networkx version it replaced.

`path_reference` holds the networkx original: it builds the free-flow
DiGraph and takes networkx's `shortest_simple_paths`.  Both must return the
same paths in the same order, ties included, and raise the same
`PathError` for a disconnected OD pair with positive demand.  The search
itself must yield networkx's paths in networkx's order, beyond the ones
`enumerate_paths` keeps; given the k that `enumerate_paths` keeps, it must
yield them up to the first path `enumerate_paths` stops at.
"""

import itertools
import math
import random

import networkx as nx
import pytest

import path_reference as ref
from queuenet import fixtures
from queuenet.net import (
    Link,
    Network,
    Node,
    ODPair,
    PathError,
    _FreeFlowGraph,
    enumerate_paths,
)

GRIDS = [(5, 3), (6, 8), (8, 12), (15, 12)]
#: paths compared per OD pair in the yield sequence
YIELDS = 40


def _outcome(enumerate_, network, k):
    """The paths `enumerate_` returns, or the message of its PathError."""
    try:
        return list(enumerate_(network, k))
    except PathError as exc:
        return str(exc)


def _both(network, k):
    ours = _outcome(lambda nw, k: enumerate_paths(nw, k).paths, network, k)
    return ours, _outcome(ref.enumerate_paths, network, k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_six_node(six_node, k):
    ours, theirs = _both(six_node.network, k)
    assert ours == theirs


@pytest.mark.parametrize("size, n_od", GRIDS)
def test_grids(size, n_od):
    ours, theirs = _both(fixtures.grid_network(size, n_od, 1100.0), 3)
    assert ours == theirs


def _random_network(rng):
    """A small digraph with parallel links, self-loops, mixed and tied
    free-flow times, and OD pairs of zero and positive demand, some of
    them disconnected."""
    n = rng.randint(3, 12)
    nodes = tuple(Node(f"v{i}") for i in range(n))
    links = []
    for j in range(rng.randint(n, 4 * n)):
        tail = rng.randrange(n)
        head = tail if rng.random() < 0.05 else rng.randrange(n)
        # 0.1 + 0.2 != 0.3: costs that tie only after rounding
        t_f = rng.choice([0.05, 0.05, 0.1, 0.2, 0.3, 0.1 + 0.2, round(rng.uniform(0.01, 1.0), 2)])
        links.append(Link(f"a{rng.randrange(100)}_{j}", f"v{tail}", f"v{head}", t_f, 1000.0))
    od_pairs = {}
    for _ in range(rng.randint(1, 5)):
        origin, destination = rng.sample(range(n), 2)
        od_pairs[origin, destination] = ODPair(
            f"v{origin}", f"v{destination}", rng.choice([0.0, 100.0])
        )
    return Network(nodes, tuple(links), tuple(od_pairs.values()))


def _random_networks():
    """300 random networks, each with the k to enumerate it at."""
    rng = random.Random(2024)
    for _ in range(300):
        network = _random_network(rng)
        yield network, rng.randint(1, 6)


def test_random_digraphs():
    outcomes = {"paths": 0, "disconnected": 0}
    for network, k in _random_networks():
        ours, theirs = _both(network, k)
        assert ours == theirs, (network, k)
        outcomes["disconnected" if isinstance(ours, str) else "paths"] += 1
    # the seed exercises both outcomes
    assert min(outcomes.values()) >= 50, outcomes


def test_yield_sequence():
    networks = [network for network, _ in _random_networks()]
    networks += [fixtures.grid_network(size, n_od, 1100.0) for size, n_od in GRIDS]
    for network in networks:
        g = _FreeFlowGraph(network)
        node_id = [node.id for node in network.nodes]
        reference = ref.free_flow_graph(network)
        for od in network.od_pairs:
            ours = g.simple_paths(g.index[od.origin], g.index[od.destination])
            ours = [[node_id[v] for v in path] for path in itertools.islice(ours, YIELDS)]
            theirs = nx.shortest_simple_paths(reference, od.origin, od.destination, "weight")
            try:
                theirs = list(itertools.islice(theirs, YIELDS))
            except nx.NetworkXNoPath:
                theirs = []
            assert ours == theirs, (network, od)


def _cost(g, path):
    """A node path's free-flow time, summed as `enumerate_paths` sums it."""
    return sum(g.edge[e][0] for e in zip(path, path[1:]))


def test_bounded_search_yields_the_same_paths_until_enumeration_stops():
    # given k, the search skips the spur searches that can only find paths
    # costing more than the k-th.  Up to the first path enumerate_paths
    # stops at, it yields the full search's paths; there it may yield
    # another path that also costs too much, or none
    cases = list(_random_networks())
    cases += [(fixtures.grid_network(size, n_od, 1100.0), 3) for size, n_od in GRIDS]
    stops = 0
    for network, k in cases:
        g = _FreeFlowGraph(network)
        for od in network.od_pairs:
            s, t = g.index[od.origin], g.index[od.destination]
            bounded = g.simple_paths(s, t, k)
            costs = []
            for path in itertools.islice(g.simple_paths(s, t), k + 32):
                kth = sorted(costs)[k - 1] if len(costs) >= k else math.inf
                ours = next(bounded, None)
                if _cost(g, path) > kth + 1e-12:
                    assert ours is None or _cost(g, ours) > kth + 1e-12, (network, od)
                    stops += 1
                    break
                assert ours == path, (network, od)
                costs.append(_cost(g, path))
            else:
                if len(costs) < k + 32:
                    assert next(bounded, None) is None, (network, od)
    # the seed reaches the stop often
    assert stops >= 100, stops

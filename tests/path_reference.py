"""networkx version of `net.enumerate_paths`, the one it replaced.

`net.enumerate_paths` ports networkx 3.x's `shortest_simple_paths` (Yen's
search over a bidirectional Dijkstra) to integer node indices.  This is
the networkx original, kept as an oracle: both must return the same paths
in the same order.
"""

import math

import networkx as nx

from queuenet.net import Path, PathError


def free_flow_graph(network):
    # Parallel links collapse to the cheapest one (ties: smallest link id).
    g = nx.DiGraph()
    for node in network.nodes:
        g.add_node(node.id)
    for link in sorted(network.links, key=lambda l: (l.free_flow_time, l.id)):
        if not g.has_edge(link.tail, link.head):
            g.add_edge(link.tail, link.head, weight=link.free_flow_time, link_id=link.id)
    return g


def enumerate_paths(network, k):
    """The `Path`s `net.enumerate_paths(network, k)` puts in its path set."""
    g = free_flow_graph(network)
    paths = []
    for i, od in enumerate(network.od_pairs):
        if od.demand == 0 and not nx.has_path(g, od.origin, od.destination):
            continue
        gen = nx.shortest_simple_paths(g, od.origin, od.destination, weight="weight")
        candidates = []
        kth_cost = math.inf
        try:
            for node_path in gen:
                link_ids = tuple(
                    g[u][v]["link_id"] for u, v in zip(node_path, node_path[1:])
                )
                cost = sum(g[u][v]["weight"] for u, v in zip(node_path, node_path[1:]))
                if len(candidates) >= k and cost > kth_cost + 1e-12:
                    break
                candidates.append((cost, link_ids))
                if len(candidates) >= k:
                    kth_cost = sorted(c for c, _ in candidates)[k - 1]
                if len(candidates) >= k + 32:
                    break
        except nx.NetworkXNoPath as exc:
            raise PathError(f"OD {od.origin}->{od.destination} is disconnected") from exc
        candidates.sort(key=lambda cl: (round(cl[0], 12), cl[1]))
        for _, link_ids in candidates[:k]:
            paths.append(Path(od_index=i, links=link_ids))
    return paths

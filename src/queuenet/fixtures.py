"""Bundled and synthetic test networks.

The six-node network is the package's reference scenario (shipped as CSV
data); the others are small synthetic fixtures used by tests and demos.
"""
from __future__ import annotations

import io
from importlib import resources
from pathlib import Path as FsPath

import numpy as np

from .net import Link, Network, Node, ODPair, Path, PathSet, load_demands, load_network, load_path_set

__all__ = [
    "six_node_network",
    "six_node_path_set",
    "write_six_node_scenario",
    "two_route_network",
    "shared_corridor_path_set",
    "grid_network",
]

_DATA = resources.files("queuenet") / "data" / "sixnode"


def _read(name: str) -> io.StringIO:
    return io.StringIO((_DATA / name).read_text())


def six_node_network() -> Network:
    """Six nodes, seven links, two OD pairs (1->3 and 2->4) of 3000 veh/hr.

    Both OD pairs have a long direct link and a three-link alternative
    through the shared middle link 4, the network's bottleneck.
    """
    network = load_network(_read("nodes.csv"), _read("links.csv"))
    return load_demands(_read("demands.csv"), network)


def six_node_path_set(network: Network | None = None) -> PathSet:
    network = network or six_node_network()
    return load_path_set(_read("paths.csv"), network)


def write_six_node_scenario(directory: str | FsPath) -> FsPath:
    """Copy the bundled scenario files into `directory`; returns the config path."""
    directory = FsPath(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in ("nodes.csv", "links.csv", "demands.csv", "paths.csv", "scenario.cfg"):
        (directory / name).write_text((_DATA / name).read_text())
    return directory / "scenario.cfg"


def two_route_network(
    demand: float = 2000.0,
    capacity: float = 1800.0,
    free_flow_time: float = 0.25,
) -> Network:
    """One OD pair connected by two identical parallel two-link routes."""
    nodes = tuple(Node(i) for i in ("o", "a", "b", "d"))
    links = (
        Link("u1", "o", "a", free_flow_time / 2, capacity),
        Link("u2", "a", "d", free_flow_time / 2, capacity),
        Link("l1", "o", "b", free_flow_time / 2, capacity),
        Link("l2", "b", "d", free_flow_time / 2, capacity),
    )
    return Network(nodes, links, (ODPair("o", "d", demand),))


def shared_corridor_path_set(demand: float = 2400.0) -> PathSet:
    """Two OD pairs sharing two parallel middle links.

    Each OD's two paths differ only in which middle link they use, so the
    path-flow split between the middle links is not unique while the link
    flows are.  Paths are given explicitly because shortest-path
    enumeration would collapse the parallel middle links.
    """
    nodes = tuple(Node(i) for i in ("o1", "o2", "m", "w", "d1", "d2"))
    links = (
        Link("e1", "o1", "m", 0.10, 3000.0),
        Link("e2", "o2", "m", 0.10, 3000.0),
        Link("m1", "m", "w", 0.20, 2600.0),
        Link("m2", "m", "w", 0.20, 2600.0),
        Link("g1", "w", "d1", 0.10, 3000.0),
        Link("g2", "w", "d2", 0.10, 3000.0),
    )
    network = Network(
        nodes,
        links,
        (ODPair("o1", "d1", demand), ODPair("o2", "d2", demand)),
    )
    paths = [
        Path(0, ("e1", "m1", "g1")),
        Path(0, ("e1", "m2", "g1")),
        Path(1, ("e2", "m1", "g2")),
        Path(1, ("e2", "m2", "g2")),
    ]
    return PathSet(network, paths)


def grid_network(
    size: int = 15,
    n_od: int = 50,
    demand: float = 600.0,
    seed: int = 7,
) -> Network:
    """Directed size x size grid with deterministic pseudo-random OD pairs.

    Every horizontal and vertical neighbor pair gets links in both
    directions (~4*size*(size-1) links).  Capacities cycle through a few
    levels so some links queue at the default demand.  The n_od distinct
    OD pairs are drawn at least 4 grid steps apart; a ValueError says so
    when the grid has fewer such pairs.
    """
    # ordered pairs 4+ steps apart: all, less those at the 24 offsets 1 to 3 steps long
    near = sum(max(0, size - abs(r)) * max(0, size - abs(c))
               for r in range(-3, 4) for c in range(-3, 4) if 0 < abs(r) + abs(c) < 4)
    if n_od > (far := size * size * (size * size - 1) - near):
        raise ValueError(f"n_od={n_od}: a {size}x{size} grid has {far} OD pairs 4+ steps apart")
    nodes = tuple(
        Node(f"n{r}_{c}", x=float(c), y=float(r))
        for r in range(size)
        for c in range(size)
    )
    links: list[Link] = []
    caps = (1400.0, 1800.0, 2200.0)
    k = 0
    for r in range(size):
        for c in range(size):
            here = f"n{r}_{c}"
            for rr, cc in ((r, c + 1), (r + 1, c)):
                if rr >= size or cc >= size:
                    continue
                there = f"n{rr}_{cc}"
                for tail, head in ((here, there), (there, here)):
                    links.append(
                        Link(f"l{k}", tail, head, 0.05, caps[k % len(caps)])
                    )
                    k += 1
    rng = np.random.default_rng(seed)
    od_pairs: list[ODPair] = []
    seen: set[tuple[str, str]] = set()
    while len(od_pairs) < n_od:
        r1, c1, r2, c2 = rng.integers(0, size, 4)
        o, d = f"n{r1}_{c1}", f"n{r2}_{c2}"
        # keep ODs a few hops apart so k-path enumeration has real choices
        if o == d or abs(int(r1) - int(r2)) + abs(int(c1) - int(c2)) < 4:
            continue
        if (o, d) in seen:
            continue
        seen.add((o, d))
        od_pairs.append(ODPair(o, d, demand))
    return Network(nodes, tuple(links), tuple(od_pairs))

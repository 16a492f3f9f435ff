"""Benchmark inputs: the three workloads, generated from a seed as CSV text.

Every workload is a fixed base instance.  The seed draws an isomorphic
copy of it: fresh node and link labels and a shuffled row order in every
CSV file.  The network, demands and path set are the same up to the
relabelling, so the work a solve does does not depend on the seed, and
the answer maps back onto the stored reference by link label.  Link
labels keep their sort order, because `enumerate_paths` breaks ties
between equal-cost paths by comparing link ids.  The order of OD pairs is
kept too: it is the solver's Gauss-Seidel sweep order.

The six-node workload is the paper's scenario and ignores the seed.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

import numpy as np

from queuenet import fixtures
from queuenet.net import Network, ODPair, Path, PathSet, write_path_set

WORKLOADS = ("sixnode_demand_sweep", "grid15_enum", "grid20_paths")


@dataclass(frozen=True)
class GridSpec:
    size: int
    n_od: int
    demand: float


#: `grid_network`'s own seed, as in criterion 10; the benchmark seed relabels
GRID_SEED = 7
#: paths per OD pair on the grids, enumerated or generated
K_PATHS = 3


#: base instances, sized so one pipeline run takes a few seconds and a run
#: of the benchmark holds several; the smoke test swaps in a tiny grid
GRID15 = GridSpec(15, 12, 1100.0)
GRID20 = GridSpec(20, 12, 1400.0)
SWEEP_VALUES = tuple(float(v) for v in np.arange(1000.0, 6001.0, 250.0))


@dataclass
class Scenario:
    """One workload's input files plus what the benchmark needs to run it."""

    name: str
    files: dict[str, str]  # file name -> CSV text
    od_pairs: tuple[tuple[str, str, float], ...]  # in demands.csv order
    k: int | None = None  # enumerate k paths instead of reading paths.csv
    sweep_values: tuple[float, ...] = ()  # demand values for OD `sweep_od`
    sweep_od: int = 0  # index of the swept OD pair
    #: generated link label -> label in the base instance (and reference)
    base_link_id: dict[str, str] = field(default_factory=dict)

    @property
    def has_paths_file(self) -> bool:
        return "paths.csv" in self.files

    @property
    def demands(self) -> tuple[float, ...]:
        return tuple(d for _, _, d in self.od_pairs)

    def point_demands(self, value: float) -> list[float]:
        demands = list(self.demands)
        demands[self.sweep_od] = value
        return demands

    def config_text(self) -> str:
        lines = ["nodes=nodes.csv", "links=links.csv", "demands=demands.csv"]
        lines.append("paths=paths.csv" if self.has_paths_file else f"k={self.k}")
        return "\n".join(lines) + "\n"


def _network_csv(network: Network, node_order, link_order) -> dict[str, str]:
    nodes = ["node_id,x_coord,y_coord"]
    for i in node_order:
        n = network.nodes[i]
        nodes.append(f"{n.id},{'' if n.x is None else repr(n.x)},"
                     f"{'' if n.y is None else repr(n.y)}")
    links = ["link_id,from_node,to_node,free_flow_time,capacity"]
    for i in link_order:
        l = network.links[i]
        links.append(f"{l.id},{l.tail},{l.head},{l.free_flow_time!r},{l.capacity!r}")
    demands = ["origin,destination,demand"]
    for od in network.od_pairs:
        demands.append(f"{od.origin},{od.destination},{od.demand!r}")
    return {
        "nodes.csv": "\n".join(nodes) + "\n",
        "links.csv": "\n".join(links) + "\n",
        "demands.csv": "\n".join(demands) + "\n",
    }


def _od_pairs(network: Network) -> tuple[tuple[str, str, float], ...]:
    return tuple((od.origin, od.destination, od.demand) for od in network.od_pairs)


def _relabel(network: Network, paths: list[Path] | None, seed: int):
    """Isomorphic copy of (network, paths) with seed-drawn labels and rows.

    Returns (files, relabelled network, base_link_id).
    """
    rng = np.random.default_rng(seed)
    node_tokens = rng.permutation(len(network.nodes))
    node_map = {n.id: f"v{t}" for n, t in zip(network.nodes, node_tokens)}
    # fixed-width numeric labels sort like the originals they replace
    by_label = sorted(range(len(network.links)), key=lambda i: network.links[i].id)
    numbers = np.sort(rng.choice(10**6, size=len(network.links), replace=False))
    link_map = {
        network.links[i].id: f"e{num:06d}" for i, num in zip(by_label, numbers)
    }
    renamed = Network(
        tuple(replace(n, id=node_map[n.id]) for n in network.nodes),
        tuple(
            replace(l, id=link_map[l.id], tail=node_map[l.tail], head=node_map[l.head])
            for l in network.links
        ),
        tuple(
            ODPair(node_map[od.origin], node_map[od.destination], od.demand)
            for od in network.od_pairs
        ),
    )
    files = _network_csv(
        renamed,
        rng.permutation(len(network.nodes)),
        rng.permutation(len(network.links)),
    )
    if paths is not None:
        # rows of different OD pairs interleave; each OD keeps its own order
        ods = np.array([p.od_index for p in paths])
        slots = rng.permutation(len(paths))
        order = np.empty(len(paths), dtype=int)
        for i in np.unique(ods):
            members = np.flatnonzero(ods == i)
            order[np.sort(slots[members])] = members
        new_paths = [
            Path(paths[j].od_index, tuple(link_map[lid] for lid in paths[j].links))
            for j in order
        ]
        sink = io.StringIO()
        write_path_set(PathSet(renamed, new_paths), sink)
        files["paths.csv"] = sink.getvalue()
    return files, renamed, {new: old for old, new in link_map.items()}


def staircase_paths(network: Network) -> list[Path]:
    """Up to K_PATHS distinct monotone paths per OD pair of a grid network.

    Candidates, in order: columns first, rows first, and alternating steps.
    All are shortest paths by free-flow time on the uniform grid.
    """
    link_of = {(l.tail, l.head): l.id for l in network.links}

    def coords(node_id: str) -> tuple[int, int]:
        r, c = node_id[1:].split("_")
        return int(r), int(c)

    paths: list[Path] = []
    for i, od in enumerate(network.od_pairs):
        (r1, c1), (r2, c2) = coords(od.origin), coords(od.destination)
        dr, dc = int(np.sign(r2 - r1)), int(np.sign(c2 - c1))
        col_steps = [(0, dc)] * abs(c2 - c1)
        row_steps = [(dr, 0)] * abs(r2 - r1)
        alternating = [s for pair in zip(col_steps, row_steps) for s in pair]
        longer = col_steps if len(col_steps) > len(row_steps) else row_steps
        alternating += longer[len(alternating) // 2 :]
        found: list[tuple[str, ...]] = []
        for steps in (col_steps + row_steps, row_steps + col_steps, alternating):
            r, c, links = r1, c1, []
            for sr, sc in steps:
                links.append(link_of[(f"n{r}_{c}", f"n{r + sr}_{c + sc}")])
                r, c = r + sr, c + sc
            if tuple(links) not in found:
                found.append(tuple(links))
        paths.extend(Path(i, links) for links in found[:K_PATHS])
    return paths


def sixnode_demand_sweep(seed: int) -> Scenario:
    """Six-node scenario, OD 2->4 off, OD 1->3 swept 1000:6000:250."""
    base = fixtures.six_node_network()
    network = base.with_demands(
        [ODPair(od.origin, od.destination, 3000.0 if i == 0 else 0.0)
         for i, od in enumerate(base.od_pairs)]
    )
    files = _network_csv(
        network, range(len(network.nodes)), range(len(network.links))
    )
    sink = io.StringIO()
    write_path_set(fixtures.six_node_path_set(network), sink)
    files["paths.csv"] = sink.getvalue()
    return Scenario(
        "sixnode_demand_sweep",
        files,
        _od_pairs(network),
        sweep_values=SWEEP_VALUES,
        sweep_od=0,
        base_link_id={l.id: l.id for l in network.links},
    )


def grid15_enum(seed: int, spec: GridSpec = GRID15) -> Scenario:
    """Criterion 10's 15x15 grid and first 12 OD pairs, paths enumerated."""
    network = fixtures.grid_network(spec.size, spec.n_od, spec.demand, GRID_SEED)
    files, renamed, base_ids = _relabel(network, None, seed)
    return Scenario("grid15_enum", files, _od_pairs(renamed), k=K_PATHS, base_link_id=base_ids)


def grid20_paths(seed: int, spec: GridSpec = GRID20) -> Scenario:
    """A larger grid whose staircase paths come from a file."""
    network = fixtures.grid_network(spec.size, spec.n_od, spec.demand, GRID_SEED)
    paths = staircase_paths(network)
    files, renamed, base_ids = _relabel(network, paths, seed)
    return Scenario("grid20_paths", files, _od_pairs(renamed), base_link_id=base_ids)


def make(name: str, seed: int, grid: GridSpec | None = None) -> Scenario:
    """Scenario of workload `name`; `grid` replaces a grid workload's size."""
    if name == "sixnode_demand_sweep":
        return sixnode_demand_sweep(seed)
    if name == "grid15_enum":
        return grid15_enum(seed, grid or GRID15)
    if name == "grid20_paths":
        return grid20_paths(seed, grid or GRID20)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")

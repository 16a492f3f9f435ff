"""Road network and path-set data model with GMNS-style CSV ingestion.

Links carry free-flow time (hours) and physical capacity (veh/hr).  Paths
are fixed, enumerated link chains per OD pair; the path set records which
links a path uses only as flat (link, path) entries in traversal order,
over which per-(link, path) data such as queues are vectors, and is the one
place that sums such data along each path (`PathSet.running_sum`,
`PathSet.held_upstream`).  It holds per OD pair its paths and the links
they use.  The path set is also where the inputs become arrays: free-flow
times and capacities per link, demands per OD pair, read once and
read-only.
"""
from __future__ import annotations

import copy
import csv
import io
import math
from dataclasses import dataclass, field, replace
from typing import IO, Iterable, Mapping, Sequence

import networkx as nx
import numpy as np

from .cost import PARAM_NAMES

__all__ = [
    "NetworkError",
    "PathError",
    "Node",
    "Link",
    "ODPair",
    "Path",
    "PathSet",
    "Network",
    "load_network",
    "load_demands",
    "enumerate_paths",
    "load_path_set",
    "write_path_set",
]

#: maximum tolerated |t_f - length/free_speed| when both are given (hours)
TIME_CONSISTENCY_TOL = 1e-3


class NetworkError(ValueError):
    """Invalid network data (bad ids, missing columns, broken invariants)."""


class PathError(NetworkError):
    """Invalid path definition (disconnected chain, unknown links)."""


@dataclass(frozen=True)
class Node:
    id: str
    x: float | None = None
    y: float | None = None


@dataclass(frozen=True)
class Link:
    id: str
    tail: str
    head: str
    free_flow_time: float  # hours
    capacity: float  # physical capacity, veh/hr
    length: float | None = None  # km
    free_speed: float | None = None  # km/hr
    overrides: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not 0 < self.free_flow_time < math.inf:
            raise NetworkError(f"link {self.id}: free_flow_time must be finite and > 0")
        if not 0 < self.capacity < math.inf:
            raise NetworkError(f"link {self.id}: capacity must be finite and > 0")
        for v in (self.length, self.free_speed):
            if v is not None and not 0 < v < math.inf:
                raise NetworkError(f"link {self.id}: length and free_speed must be finite and > 0")
        if self.length is not None and self.free_speed is not None:
            implied = self.length / self.free_speed
            if abs(self.free_flow_time - implied) > TIME_CONSISTENCY_TOL:
                raise NetworkError(
                    f"link {self.id}: free_flow_time {self.free_flow_time} "
                    f"inconsistent with length/free_speed {implied:.4f}"
                )


@dataclass(frozen=True)
class ODPair:
    origin: str
    destination: str
    demand: float  # veh/hr

    def __post_init__(self) -> None:
        if not 0 <= self.demand < math.inf:
            raise NetworkError(
                f"OD {self.origin}->{self.destination}: demand must be finite and >= 0"
            )
        if self.origin == self.destination:
            raise NetworkError(f"OD pair with origin == destination ({self.origin})")


@dataclass(frozen=True)
class Network:
    nodes: tuple[Node, ...]
    links: tuple[Link, ...]
    od_pairs: tuple[ODPair, ...] = ()

    def __post_init__(self) -> None:
        node_ids = [n.id for n in self.nodes]
        if len(set(node_ids)) != len(node_ids):
            dupes = sorted({i for i in node_ids if node_ids.count(i) > 1})
            raise NetworkError(f"duplicate node ids: {dupes}")
        link_ids = [l.id for l in self.links]
        if len(set(link_ids)) != len(link_ids):
            dupes = sorted({i for i in link_ids if link_ids.count(i) > 1})
            raise NetworkError(f"duplicate link ids: {dupes}")
        known = set(node_ids)
        for l in self.links:
            if l.tail not in known or l.head not in known:
                raise NetworkError(f"link {l.id} references undeclared node")
        _check_od_nodes(self.od_pairs, known)

    def link_by_id(self, link_id: str) -> Link:
        for l in self.links:
            if l.id == link_id:
                return l
        raise NetworkError(f"unknown link id: {link_id}")

    def with_demands(self, od_pairs: Iterable[ODPair]) -> "Network":
        """This network with other OD pairs.  It shares the node and link
        tuples, already checked, and checks only the new OD pairs' nodes."""
        od_pairs = tuple(od_pairs)
        _check_od_nodes(od_pairs, {n.id for n in self.nodes})
        new = copy.copy(self)
        object.__setattr__(new, "od_pairs", od_pairs)
        return new


def _check_od_nodes(od_pairs: Iterable[ODPair], known: set[str]) -> None:
    for od in od_pairs:
        if od.origin not in known or od.destination not in known:
            raise NetworkError(
                f"OD {od.origin}->{od.destination} references undeclared node"
            )


@dataclass(frozen=True)
class Path:
    od_index: int
    links: tuple[str, ...]


class PathSet:
    """Fixed path set with its flat path-link entries and OD groups, and
    the inputs as arrays: `t_f` and `c_max` per link, `demand` per OD pair.

    Immutable after construction; safe to share across concurrent solves.
    """

    def __init__(self, network: Network, paths: Sequence[Path]):
        self.network = network
        self.paths = tuple(paths)
        link_by_id = {l.id: l for l in network.links}
        self._link_index = {l.id: i for i, l in enumerate(network.links)}
        self.n_links = len(network.links)
        self.n_paths = len(self.paths)

        for p in self.paths:
            if p.od_index < 0 or p.od_index >= len(network.od_pairs):
                raise PathError(f"path {p.links}: od_index {p.od_index} out of range")
            od = network.od_pairs[p.od_index]
            if not p.links:
                raise PathError(f"empty path for OD {od.origin}->{od.destination}")
            for lid in p.links:
                if lid not in link_by_id:
                    raise PathError(f"path references unknown link id: {lid}")
            if len(set(p.links)) != len(p.links):
                raise PathError(f"path {p.links} repeats a link")
            chain = [link_by_id[lid] for lid in p.links]
            if chain[0].tail != od.origin:
                raise PathError(
                    f"path {p.links}: first link tail {chain[0].tail} != origin {od.origin}"
                )
            if chain[-1].head != od.destination:
                raise PathError(
                    f"path {p.links}: last link head {chain[-1].head} "
                    f"!= destination {od.destination}"
                )
            for a, b in zip(chain, chain[1:]):
                if a.head != b.tail:
                    raise PathError(
                        f"path {p.links}: links {a.id} and {b.id} do not chain"
                    )

        # numeric structure used by the solver; the inputs are read-only
        self.t_f = _read_only([l.free_flow_time for l in network.links])
        self.c_max = _read_only([l.capacity for l in network.links])
        self.path_link_idx: list[np.ndarray] = [
            np.array([self._link_index[lid] for lid in p.links], dtype=np.intp)
            for p in self.paths
        ]
        # the same (link, path) pairs flattened in traversal order, path after
        # path, with each path's first entry, where `running_sum` restarts
        lengths = np.array([len(idx) for idx in self.path_link_idx], dtype=np.intp)
        self.entry_link = (
            np.concatenate(self.path_link_idx) if self.n_paths else np.empty(0, np.intp)
        )
        self.entry_path = np.repeat(np.arange(self.n_paths), lengths)
        self.path_start = np.cumsum(lengths) - lengths
        self.path_od = np.array([p.od_index for p in self.paths], dtype=np.intp)
        self.od_groups: list[np.ndarray] = [
            np.flatnonzero(self.path_od == i) for i in range(len(network.od_pairs))
        ]
        # per OD group: the sorted union of its paths' link indices
        od_e = self.path_od[self.entry_path]
        self.od_group_links: list[np.ndarray] = [
            np.flatnonzero(np.bincount(self.entry_link[od_e == i], minlength=self.n_links))
            for i in range(len(network.od_pairs))
        ]
        self._set_demands(network.od_pairs)

    def _set_demands(self, od_pairs: Sequence[ODPair]) -> None:
        for od, group in zip(od_pairs, self.od_groups):
            if od.demand > 0 and not len(group):
                raise PathError(
                    f"OD {od.origin}->{od.destination} has positive demand but no path"
                )
        self.demand = _read_only([od.demand for od in od_pairs])

    def with_demands(self, demands: Sequence[float]) -> "PathSet":
        """The same paths under other OD demands, in OD pair order.

        The copy shares every array and OD group with this path set and
        checks only the demands: each as `ODPair` does, and that no OD
        pair without a path gets a positive one.
        """
        if len(demands) != len(self.network.od_pairs):
            raise ValueError("demands override must match the OD pair count")
        od_pairs = tuple(
            replace(od, demand=float(d)) for od, d in zip(self.network.od_pairs, demands)
        )
        new = copy.copy(self)
        new._set_demands(od_pairs)
        new.network = self.network.with_demands(od_pairs)
        return new

    def link_index(self, link_id: str) -> int:
        return self._link_index[link_id]

    def running_sum(self, values: np.ndarray) -> np.ndarray:
        """Inclusive running sums of per-entry values, restarted on every path."""
        total = np.concatenate(([0.0], np.cumsum(values)))
        return total[1:] - total[self.path_start][self.entry_path]

    def held_upstream(self, held: np.ndarray) -> np.ndarray:
        """Per entry, what its path's queues before it hold: the running
        sum of `held` without the entry's own."""
        return self.running_sum(held) - held


def _read_only(values: list[float]) -> np.ndarray:
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


def _parse_float(row: Mapping[str, str], key: str, row_no: int) -> float:
    raw = (row.get(key) or "").strip()
    if not raw:
        raise NetworkError(f"row {row_no}: missing value for '{key}'")
    try:
        return float(raw)
    except ValueError as exc:
        raise NetworkError(f"row {row_no}: cannot parse {key}={raw!r}") from exc


def _opt_float(row: Mapping[str, str], key: str) -> float | None:
    raw = (row.get(key) or "").strip()
    return float(raw) if raw else None


def _pick(row: Mapping[str, str], *names: str) -> str | None:
    for name in names:
        if name in row and (row[name] or "").strip():
            return (row[name] or "").strip()
    return None


def load_network(node_source: IO[str], link_source: IO[str]) -> Network:
    """Build a Network from GMNS-style node and link CSV tables.

    Nodes need node_id (x_coord/y_coord optional).  Links need link_id,
    from_node, to_node, capacity, and free_flow_time or length+free_speed.
    Missing free_speed is derived from length/free_flow_time; missing
    free_flow_time from length/free_speed.  Extra columns are ignored,
    except per-link overrides, one column per `CostParams` field.
    """
    nodes: list[Node] = []
    for row_no, row in enumerate(csv.DictReader(node_source), start=2):
        nid = _pick(row, "node_id", "id")
        if nid is None:
            raise NetworkError(f"row {row_no}: missing node_id")
        nodes.append(
            Node(
                id=nid,
                x=_opt_float(row, "x_coord" if _pick(row, "x_coord") else "x"),
                y=_opt_float(row, "y_coord" if _pick(row, "y_coord") else "y"),
            )
        )
    if not nodes:
        raise NetworkError("no nodes")

    links: list[Link] = []
    for row_no, row in enumerate(csv.DictReader(link_source), start=2):
        lid = _pick(row, "link_id", "id")
        if lid is None:
            raise NetworkError(f"row {row_no}: missing link_id")
        tail = _pick(row, "from_node", "from_node_id", "tail")
        head = _pick(row, "to_node", "to_node_id", "head")
        if tail is None or head is None:
            raise NetworkError(f"row {row_no}: link {lid} missing from_node/to_node")
        capacity = _parse_float(row, "capacity", row_no)
        if capacity <= 0:
            raise NetworkError(f"row {row_no}: link {lid} has capacity <= 0")
        length = _opt_float(row, "length")
        free_speed = _opt_float(row, "free_speed")
        t_f = _opt_float(row, "free_flow_time")
        if t_f is None:
            if length is None or free_speed is None or free_speed <= 0:
                raise NetworkError(
                    f"row {row_no}: link {lid} needs free_flow_time or "
                    "length + free_speed"
                )
            t_f = length / free_speed
        if t_f <= 0:
            raise NetworkError(f"row {row_no}: link {lid} has free_flow_time <= 0")
        if free_speed is None and length is not None:
            free_speed = length / t_f
        overrides = tuple(
            (k, v) for k in PARAM_NAMES if (v := _opt_float(row, k)) is not None
        )
        links.append(
            Link(
                id=lid,
                tail=tail,
                head=head,
                free_flow_time=t_f,
                capacity=capacity,
                length=length,
                free_speed=free_speed,
                overrides=overrides,
            )
        )
    if not links:
        raise NetworkError("no links")
    return Network(tuple(nodes), tuple(links))


def load_demands(source: IO[str], network: Network) -> Network:
    """Attach OD demands from a CSV table (origin, destination, demand)."""
    od_pairs: list[ODPair] = []
    for row_no, row in enumerate(csv.DictReader(source), start=2):
        origin = _pick(row, "origin", "o_zone_id", "from_node")
        destination = _pick(row, "destination", "d_zone_id", "to_node")
        if origin is None or destination is None:
            raise NetworkError(f"row {row_no}: missing origin/destination")
        demand = _parse_float(row, "demand", row_no)
        od_pairs.append(ODPair(origin, destination, demand))
    return network.with_demands(od_pairs)


def _free_flow_graph(network: Network) -> nx.DiGraph:
    # Parallel links collapse to the cheapest one (ties: smallest link id).
    g = nx.DiGraph()
    for node in network.nodes:
        g.add_node(node.id)
    for link in sorted(network.links, key=lambda l: (l.free_flow_time, l.id)):
        if not g.has_edge(link.tail, link.head):
            g.add_edge(link.tail, link.head, weight=link.free_flow_time, link_id=link.id)
    return g


def enumerate_paths(network: Network, k: int) -> PathSet:
    """Up to k loopless shortest paths per OD pair by free-flow time.

    Ordering is deterministic: ascending cost, ties broken by the
    lexicographic sequence of link ids.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError("k must be an integer >= 1")
    g = _free_flow_graph(network)
    paths: list[Path] = []
    for i, od in enumerate(network.od_pairs):
        if od.demand == 0 and (
            od.origin not in g or not nx.has_path(g, od.origin, od.destination)
        ):
            continue
        try:
            gen = nx.shortest_simple_paths(g, od.origin, od.destination, weight="weight")
        except nx.NetworkXNoPath as exc:
            raise PathError(
                f"OD {od.origin}->{od.destination} is disconnected"
            ) from exc
        candidates: list[tuple[float, tuple[str, ...]]] = []
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
            if not candidates:
                raise PathError(
                    f"OD {od.origin}->{od.destination} is disconnected"
                ) from exc
        candidates.sort(key=lambda cl: (round(cl[0], 12), cl[1]))
        for _, link_ids in candidates[:k]:
            paths.append(Path(od_index=i, links=link_ids))
    return PathSet(network, paths)


def load_path_set(source: IO[str], network: Network) -> PathSet:
    """Read paths from rows `origin,destination,link_id_1;link_id_2;...`."""
    od_index = {
        (od.origin, od.destination): i for i, od in enumerate(network.od_pairs)
    }
    paths: list[Path] = []
    for row_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if row_no == 1 and line.lower().startswith("origin"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise PathError(f"row {row_no}: expected 'origin,destination,links'")
        origin, destination, chain = parts
        key = (origin, destination)
        if key not in od_index:
            raise PathError(f"row {row_no}: unknown OD pair {origin}->{destination}")
        link_ids = tuple(
            s.strip() for s in chain.strip("[]").split(";") if s.strip()
        )
        if not link_ids:
            raise PathError(f"row {row_no}: empty link sequence")
        paths.append(Path(od_index=od_index[key], links=link_ids))
    return PathSet(network, paths)


def write_path_set(path_set: PathSet, sink: IO[str]) -> None:
    """Write paths in the load_path_set row format (round-trip safe)."""
    sink.write("origin,destination,links\n")
    for p in path_set.paths:
        od = path_set.network.od_pairs[p.od_index]
        sink.write(f"{od.origin},{od.destination},{';'.join(p.links)}\n")

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

Every input file follows one line rule, `input_lines`: blank lines and
lines whose first non-blank character is `#` are skipped, and a line keeps
its number in the file.  The node, link, demand and path tables are CSV
read by one row parser, `_table`: the first line is the header.  A loader
only parses: it makes each row a `Node`, `Link`, `ODPair` or `Path`, and
the record checks its own values.  One reader, `_read_table`, runs it over
the rows; an error a row raises names the row's line, and every error in a
table names its file when the source has a name.  One writer,
`_write_table`, writes every table the package writes, as `_table` reads it.
"""
from __future__ import annotations

import copy
import csv
import math
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from typing import IO, Callable, Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .cost import PARAM_NAMES, CostParams

__all__ = [
    "NetworkError",
    "PathError",
    "Node",
    "Link",
    "ODPair",
    "Path",
    "PathSet",
    "Network",
    "input_lines",
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


def _check_id(kind: str, id_: str) -> None:
    """Refuse an id that a table would not read back: a `#` first makes its
    row a comment (`input_lines`); `;` joins a path's link ids (`load_path_set`)."""
    if not (id_ == id_.strip() != "" and id_.isprintable()) or id_[0] == "#":
        raise NetworkError(f"{kind} {id_!r}: an id must be unpadded printable text not led by '#'")
    if kind == "link" and ";" in id_:
        raise NetworkError(f"link {id_!r}: an id must not hold ';'")


@dataclass(frozen=True)
class Node:
    id: str
    x: float | None = None
    y: float | None = None

    def __post_init__(self) -> None:
        _check_id("node", self.id)


@dataclass(frozen=True)
class Link:
    """A directed link that checks its own values, with a `NetworkError`
    naming it: free-flow time and capacity finite and > 0, length and free
    speed too where given, and with both a free-flow time within
    `TIME_CONSISTENCY_TOL` of length/free_speed.  Each override sets one
    `PARAM_NAMES` field on this link to a value `CostParams` accepts, and
    its id reads back from a table (`_check_id`)."""

    id: str
    tail: str
    head: str
    free_flow_time: float  # hours
    capacity: float  # physical capacity, veh/hr
    length: float | None = None  # km
    free_speed: float | None = None  # km/hr
    overrides: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        _check_id("link", self.id)
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
        if self.overrides:
            try:  # CostParams raises a TypeError for a name it has no field for
                CostParams(**dict(self.overrides))
            except (TypeError, ValueError) as exc:
                raise NetworkError(f"link {self.id}: {exc}") from None


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

    def __post_init__(self) -> None:
        if not self.links:
            raise PathError("empty link sequence")
        if len(set(self.links)) != len(self.links):
            raise PathError(f"path {self.links} repeats a link")


class PathSet:
    """Fixed path set with its flat path-link entries and OD groups, and
    the inputs as arrays: `t_f` and `c_max` per link, `demand` per OD pair.

    Immutable after construction; safe to share across concurrent solves.
    """

    def __init__(self, network: Network, paths: Sequence[Path]):
        self.network = network
        self.paths = tuple(paths)
        self._link_index = {l.id: i for i, l in enumerate(network.links)}
        self.n_links = len(network.links)
        self.n_paths = len(self.paths)

        for p in self.paths:
            if p.od_index < 0 or p.od_index >= len(network.od_pairs):
                raise PathError(f"path {p.links}: od_index {p.od_index} out of range")
            od = network.od_pairs[p.od_index]
            for lid in p.links:
                if lid not in self._link_index:
                    raise PathError(f"path references unknown link id: {lid}")
            chain = [network.links[self._link_index[lid]] for lid in p.links]
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
        # the (link, path) pairs in traversal order, path after path, with
        # each path's first entry, where `running_sum` restarts
        lengths = np.array([len(p.links) for p in self.paths], dtype=np.intp)
        self.entry_link = np.array(
            [self._link_index[lid] for p in self.paths for lid in p.links], dtype=np.intp
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


def input_lines(source: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line of an input file but the
    blank ones and comments: lines whose first non-blank character is `#`."""
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def _table(source: Iterable[str], columns: Sequence[str] = ()) -> Iterator[tuple[int, dict]]:
    """(line number, {column: cell}) per row of a CSV table read by
    `input_lines`.  Its first line is the header, which must name `columns`
    and no column twice; a row with more cells than the header is refused."""
    numbered = list(input_lines(source))
    rows = csv.reader([line for _, line in numbered])
    header = [name.strip() for name in next(rows, ())]
    if not set(columns) <= set(header):
        raise NetworkError(f"header {','.join(header)!r} must name {', '.join(columns)}")
    if len(set(header)) < len(header):
        name = next(name for i, name in enumerate(header) if name in header[:i])
        raise NetworkError(f"header names column {name!r} twice")
    for cells in rows:
        row_no = numbered[rows.line_num - 1][0]
        if len(cells) > len(header):
            raise NetworkError(f"row {row_no}: {len(cells)} cells, header has {len(header)}")
        yield row_no, dict(zip(header, cells))


def _write_table(sink: IO[str], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The header, then each row, as a CSV table that `_table` reads back: a
    cell is quoted only where it holds a comma, a quote or a line break."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _read_table(source: Iterable[str], parse: Callable, finish: Callable, columns=()):
    """`finish` of {row's line: `parse(row)`} over the rows of the table
    `source` (`_table`).  An error `parse` raises names its row, and every
    error raised here, `finish`'s too, names the file when the source has
    a name (an opened file's `name`)."""
    try:
        records = {}
        for row_no, row in _table(source, columns):
            try:
                records[row_no] = parse(row)
            except ValueError as exc:
                raise type(exc)(f"row {row_no}: {exc}") from None
        return finish(records)
    except ValueError as exc:
        name = getattr(source, "name", None)
        if name is None:
            raise
        raise type(exc)(f"{name}: {exc}") from None


def _some(rows: dict, kind: str) -> tuple:
    """A table's records in row order; there must be at least one."""
    if not rows:
        raise NetworkError(f"no {kind}")
    return tuple(rows.values())


def _number(row: Mapping[str, str], key: str, required=False) -> float | None:
    """The cell `key` as a finite float; None if it is empty and not `required`."""
    raw = (row.get(key) or "").strip()
    if not raw and not required:
        return None
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise NetworkError(f"{key}={raw!r} is not a finite number")
    return value


def _pick(row: Mapping[str, str], *names: str) -> str | None:
    for name in names:
        if name in row and (row[name] or "").strip():
            return (row[name] or "").strip()
    return None


def load_network(node_source: IO[str], link_source: IO[str]) -> Network:
    """Build a Network from GMNS-style node and link CSV tables.

    Nodes need node_id (x_coord/y_coord optional).  Links need link_id,
    from_node, to_node, capacity, and free_flow_time or length+free_speed.
    Missing free_flow_time is derived from length/free_speed.  Extra columns
    are ignored, except per-link overrides, one column per `CostParams` field.
    """
    return Network(
        _read_table(node_source, _node, lambda rows: _some(rows, "nodes")),
        _read_table(link_source, _link, lambda rows: _some(rows, "links")),
    )


def _node(row: Mapping[str, str]) -> Node:
    nid = _pick(row, "node_id", "id")
    if nid is None:
        raise NetworkError("missing node_id")
    x = _number(row, "x_coord" if _pick(row, "x_coord") else "x")
    y = _number(row, "y_coord" if _pick(row, "y_coord") else "y")
    return Node(nid, x, y)


def _link(row: Mapping[str, str]) -> Link:
    lid = _pick(row, "link_id", "id")
    if lid is None:
        raise NetworkError("missing link_id")
    tail = _pick(row, "from_node", "from_node_id", "tail")
    head = _pick(row, "to_node", "to_node_id", "head")
    if tail is None or head is None:
        raise NetworkError(f"link {lid} missing from_node/to_node")
    capacity = _number(row, "capacity", required=True)
    length = _number(row, "length")
    free_speed = _number(row, "free_speed")
    t_f = _number(row, "free_flow_time")
    if t_f is None:
        if length is None or free_speed is None or free_speed <= 0:
            raise NetworkError(f"link {lid} needs free_flow_time or length + free_speed")
        t_f = length / free_speed
    overrides = tuple(
        (k, v) for k in PARAM_NAMES if k in row and (v := _number(row, k)) is not None
    )
    return Link(lid, tail, head, t_f, capacity, length, free_speed, overrides)


def load_demands(source: IO[str], network: Network) -> Network:
    """Attach OD demands from a CSV table (origin, destination, demand),
    one row per OD pair."""

    def attach(rows: dict[int, ODPair]) -> Network:
        first_row: dict[tuple[str, str], int] = {}
        for row_no, od in rows.items():
            first = first_row.setdefault((od.origin, od.destination), row_no)
            if first != row_no:
                raise NetworkError(
                    f"OD pair {od.origin}->{od.destination} given twice, on rows "
                    f"{first} and {row_no}"
                )
        return network.with_demands(_some(rows, "OD pairs"))

    return _read_table(source, _od_pair, attach)


def _od_pair(row: Mapping[str, str]) -> ODPair:
    origin = _pick(row, "origin", "o_zone_id", "from_node")
    destination = _pick(row, "destination", "d_zone_id", "to_node")
    if origin is None or destination is None:
        raise NetworkError("missing origin/destination")
    return ODPair(origin, destination, _number(row, "demand", required=True))


class _FreeFlowGraph:
    """The free-flow graph on integer node indices, and Yen's search
    for its loopless shortest paths.

    Parallel links collapse to the cheapest one (ties: smallest link id).
    Each node lists its successors and predecessors in the order of their
    links by (free-flow time, id).  Where paths tie, which ones the search
    yields first is fixed by that order, by the search's steps and by the
    order in which it sums the floats.  It yields the same paths in the
    same order as networkx's `shortest_simple_paths`, which
    `tests/path_reference.py` keeps, with fewer spur searches.
    """

    def __init__(self, network: Network):
        self.index = {node.id: i for i, node in enumerate(network.nodes)}
        n = len(network.nodes)
        self.succ: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        self.pred: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        #: (tail, head) -> (free-flow time, link id) of the link kept
        self.edge: dict[tuple[int, int], tuple[float, str]] = {}
        for link in sorted(network.links, key=lambda l: (l.free_flow_time, l.id)):
            u, v = self.index[link.tail], self.index[link.head]
            if (u, v) not in self.edge:
                self.edge[u, v] = (link.free_flow_time, link.id)
                self.succ[u].append((v, link.free_flow_time))
                self.pred[v].append((u, link.free_flow_time))

    def simple_paths(self, source: int, target: int) -> Iterator[tuple[int, ...]]:
        """Loopless paths from source to target, shortest first (Yen 1971),
        as node tuples; none if target cannot be reached.  source != target.

        Each spur search ignores the root's nodes before the spur node and
        the spur node's links into the next node of every path already
        yielded with the same root.  (Links out of earlier root nodes need
        not be ignored: those nodes are.)  The candidate buffer is a heap
        on (cost, push count) that refuses a path only while that path is
        in it.

        Each buffered path keeps its deviation index d, the spur index it
        was pushed at (Lawler 1972); the first path has d = 1.  A yielded
        path searches only at the spur indices i >= d, which yields the
        same paths in the same order as searching at every i.  For i < d
        the path shares its first i+1 nodes with the path R that pushed it,
        so its search at i has the spur node and the ignored nodes of the
        search at i of the latest path yielded before it with that root.
        It also has that search's banned next hops, because its own next
        hop is R's, which was banned there already.  That search finds no
        path, or one that has stayed buffered since (a path with that root
        yielded in between would be later), so this one's path would be
        refused, and skipping it changes nothing.
        """
        n = len(self.succ)
        first = self._shortest(source, target, bytearray(n), ())
        if first is None:
            return
        # (cost, push count, path, d): push counts are unique, so d is
        # never compared
        buffer = [(first[0], 0, first[1], 1)]
        buffered = {first[1]}
        pushes = 1
        yielded: list[tuple[int, ...]] = []
        while buffer:
            _, _, path, deviation = heappop(buffer)
            buffered.remove(path)
            yield path
            yielded.append(path)
            weights = [self.edge[e][0] for e in zip(path, path[1:])]
            ignored = bytearray(n)
            same_root = yielded
            for i in range(1, len(path)):
                spur_node = path[i - 1]
                same_root = [p for p in same_root if p[i - 1] == spur_node]
                spur = None
                if i >= deviation:
                    spur = self._shortest(
                        spur_node, target, ignored, {p[i] for p in same_root}
                    )
                if spur is not None:
                    candidate = path[: i - 1] + spur[1]
                    if candidate not in buffered:
                        # each root's length is summed afresh from the source,
                        # not carried along: the order of the additions decides
                        # how near-ties round
                        cost = sum(weights[: i - 1]) + spur[0]
                        heappush(buffer, (cost, pushes, candidate, i))
                        buffered.add(candidate)
                        pushes += 1
                ignored[spur_node] = 1

    def _shortest(
        self, source: int, target: int, ignored: bytearray, banned: Collection[int]
    ) -> tuple[float, tuple[int, ...]] | None:
        """Bidirectional Dijkstra: (length, node path), or None when no
        path avoids the ignored nodes and the links from source into
        `banned`.

        Directions alternate, forward first, also past a stale heap entry;
        heap ties go by push count; the meeting node is recorded when it is
        relaxed with a smaller total, and the search stops when a node is
        settled in both directions.  Ignored nodes start out settled in
        both, so no relaxation reaches them.
        """
        inf = math.inf
        dist = ([inf] * len(self.succ), [inf] * len(self.succ))
        settled = (bytearray(ignored), bytearray(ignored))
        parent = ([-1] * len(self.succ), [-1] * len(self.succ))
        fringe = ([(0.0, 0, source)], [(0.0, 1, target)])
        dist[0][source] = dist[1][target] = 0.0
        pushes = 2
        meeting = None  # (total, node, forward parent, backward parent)
        d = 1
        while fringe[0] and fringe[1]:
            d = 1 - d
            dv, _, v = heappop(fringe[d])
            done = settled[d]
            if done[v]:
                continue
            done[v] = 1
            if settled[1 - d][v]:
                return _meeting_path(meeting, parent)
            if d == 0:
                nbrs = self.succ[v]
                if v == source and banned:
                    nbrs = [e for e in nbrs if e[0] not in banned]
            else:
                nbrs = self.pred[v]
                if v in banned:
                    nbrs = [e for e in nbrs if e[0] != source]
            heap, seen, other, par = fringe[d], dist[d], dist[1 - d], parent[d]
            for w, weight in nbrs:
                if done[w]:
                    continue
                vw = dv + weight
                if vw < seen[w]:
                    seen[w] = vw
                    heappush(heap, (vw, pushes, w))
                    pushes += 1
                    par[w] = v
                    if other[w] < inf:
                        total = vw + other[w]
                        if meeting is None or meeting[0] > total:
                            meeting = (total, w, parent[0][w], parent[1][w])
        return None


def _meeting_path(
    meeting: tuple[float, int, int, int], parent: tuple[list[int], list[int]]
) -> tuple[float, tuple[int, ...]]:
    # the parents were snapshot at the meeting; every node up their chains
    # was settled then, and a settled node's parent never changes
    total, node, u, v = meeting
    head = [node]
    while u >= 0:
        head.append(u)
        u = parent[0][u]
    head.reverse()
    while v >= 0:
        head.append(v)
        v = parent[1][v]
    return total, tuple(head)


def enumerate_paths(network: Network, k: int) -> PathSet:
    """Up to k loopless shortest paths per OD pair by free-flow time.

    Per OD pair, Yen's search yields paths shortest first, ties in the
    order its bidirectional Dijkstra finds them.  It stops after k+32
    paths, or earlier at the first path that costs more than the k-th
    cheapest so far (by more than 1e-12).  Of the paths yielded, the k
    smallest by (cost rounded to 12 decimals, link ids) are kept, in that
    order.  Where more paths tie than the search yields, that is not the
    k smallest of all paths by the same key: on
    `fixtures.grid_network(15, 12, 1100)` with k = 3 the two rules differ
    on OD pairs 2 (n0_4->n4_13), 5 (n12_4->n5_4) and 10 (n12_9->n1_0).

    A disconnected OD pair raises `PathError`, unless its demand is zero;
    then it gets no path.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError("k must be an integer >= 1")
    g = _FreeFlowGraph(network)
    paths: list[Path] = []
    for i, od in enumerate(network.od_pairs):
        candidates: list[tuple[float, tuple[str, ...]]] = []
        kth_cost = math.inf
        for node_path in g.simple_paths(g.index[od.origin], g.index[od.destination]):
            edges = [g.edge[e] for e in zip(node_path, node_path[1:])]
            link_ids = tuple(link_id for _, link_id in edges)
            cost = sum(weight for weight, _ in edges)
            if len(candidates) >= k and cost > kth_cost + 1e-12:
                break
            candidates.append((cost, link_ids))
            if len(candidates) >= k:
                kth_cost = sorted(c for c, _ in candidates)[k - 1]
            if len(candidates) >= k + 32:
                break
        if not candidates:
            if od.demand == 0:
                continue
            raise PathError(f"OD {od.origin}->{od.destination} is disconnected")
        candidates.sort(key=lambda cl: (round(cl[0], 12), cl[1]))
        for _, link_ids in candidates[:k]:
            paths.append(Path(od_index=i, links=link_ids))
    return PathSet(network, paths)


_PATH_COLUMNS = ("origin", "destination", "links")


def _path_cells(path_set: PathSet) -> Iterator[tuple[str, str, str]]:
    """Per path: its origin, destination and link ids joined by `;`."""
    for p in path_set.paths:
        od = path_set.network.od_pairs[p.od_index]
        yield od.origin, od.destination, ";".join(p.links)


def load_path_set(source: IO[str], network: Network) -> PathSet:
    """Read paths from a CSV table with the header `origin,destination,links`
    and one path per row, its link ids joined by `;` (`write_path_set`).
    Other columns are ignored, so a solve's paths.csv reads back too."""
    od_index = {(od.origin, od.destination): i for i, od in enumerate(network.od_pairs)}

    def path(row: Mapping[str, str]) -> Path:
        key = (_pick(row, "origin"), _pick(row, "destination"))
        if key not in od_index:
            raise PathError(f"unknown OD pair {key[0]}->{key[1]}")
        chain = _pick(row, "links") or ""
        return Path(od_index[key], tuple(s.strip() for s in chain.split(";") if s.strip()))

    return _read_table(source, path, lambda rows: PathSet(network, rows.values()), _PATH_COLUMNS)


def write_path_set(path_set: PathSet, sink: IO[str]) -> None:
    """Write paths as the table `load_path_set` reads (`_write_table`)."""
    _write_table(sink, _PATH_COLUMNS, _path_cells(path_set))

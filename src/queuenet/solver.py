"""Alternating path-flow / queue solver for equilibrium with residual queues.

`solve` is one loop over two half-steps, run until neither moves: with the
queues frozen, path-based gradient-projection (GP) passes shift flow from
costlier paths to the cheapest path of each OD pair, scaled by the local
cost curvature on the non-shared links; with the flows frozen, the
complementarity fixed-point sweep sets each link's queue so inflow net of
held-back traffic matches the queue-reduced capacity.

Each queue mode supplies only its step rule: the fixed-point mode (default)
takes the GP passes as they come, relaxes the sweep by `_queue_relaxation`
and damps flow<->queue limit cycles; the smoothed-gradient mode puts each
GP pass and the unrelaxed sweep through one accept-or-halve rule on the
equilibrium merit `cost.merit` (`_accept_or_halve`).

Queues are carried per (link, path) so that a queue at one link shelters
the links downstream of it on the same path.  They hold back part of the
path's own traffic, so the loop keeps one invariant: after every flow
change no path holds back more than it carries, and one projection,
`_project_queues`, keeps it so.

The flow half-step runs GP passes until one moves no path flow by more
than max(0.1 epsilon, INNER_TOL_SHARE * the previous iteration's largest
link-queue change): the flow block is solved only as exactly as the next
queue update warrants, and to 0.1 epsilon once the queues settle.  The
first iteration, with no queue change yet, uses 0.1 epsilon.  The GP
curvature on a queued link carries the queuing-delay slope alpha m
(Q/C)^(m-1), evaluated at Q/C >= QUEUE_RATIO_FLOOR so that with m < 1 a
dissolving queue's rounding residue cannot make it unbounded.

The solver works on the flat path-link entries of `PathSet`: one entry
per (link, path) pair, path after path in traversal order (`entry_link`,
`entry_path`, each path's first entry at `path_start`); the queues are one
vector over them.  Link totals and path costs are `np.bincount` over the
entries, and what a path holds upstream of an entry is a running sum
restarted on every path (`cost._segment_cumsum`).
The fixed-point sweep updates every link at once from the arrivals of its
previous round (Jacobi) until the queues stop moving; a link's queue is
settled once those upstream of it are, so the sweep needs no link order
and runs the same on a cyclic link precedence (overlapping paths on a
cyclic graph) as on an acyclic one.
The GP step runs level by level, over OD groups (`_group_levels`): a
group's level is one above the highest level of any earlier group that
shares a link with it, so the groups of one level use disjoint links and
each level is one vectorized step.  That is exact Gauss-Seidel in the
path-set order of the groups: a group reads and writes link flows only on
its own links, every earlier group sharing one of them is at a lower
level, and no later one is.  Within a level, path costs and step
curvatures are products with the level's block-diagonal 0/1 path-by-link
membership matrix, built from the level's entries.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Literal, NamedTuple, Sequence

import numpy as np

from . import cost as _cost
from .cost import CostParams
from .net import Network, PathSet

__all__ = [
    "SolverOptions",
    "SolutionState",
    "ConvergenceReport",
    "assemble_link_state",
    "solve",
    "solve_variant",
    "VARIANTS",
]

VARIANTS = (
    "queue_dependent",
    "fixed_capacity_queue",
    "traditional_ue",
    "system_optimum",
)

#: queues may not eat more than this share of a link's base capacity
QUEUE_CAP_FRACTION = 0.999

#: curvature floor in the gradient-projection step denominator
CURVATURE_FLOOR = 1e-6

#: a solve that carries queues is feasible (and may count as converged)
#: only if no link discharges more than C(Q) + this share of C_max
CAPACITY_RTOL = 1e-6

#: a solve counts as converged only if the relative gap of the cost its
#: variant prices paths by is at most this (criterion 7)
GAP_TOL = 1e-4

#: GP passes per outer iteration, at most
MAX_INNER_PASSES = 50

#: the GP passes of an outer iteration stop once the flows move by at most
#: this share of the previous iteration's largest queue change (or by
#: 0.1 epsilon, whichever is larger): a flow block solved more exactly
#: than the queues it holds frozen are about to move buys nothing
INNER_TOL_SHARE = 0.03

#: the queue sweep's rounds stop once no per-entry queue moves by more than
#: this (veh); exact equality can cycle in the last bit
SWEEP_TOL = 1e-9

#: with m < 1 the queuing-delay slope (Q/C)^(m-1) grows without bound as
#: Q -> 0+; the GP curvature evaluates it at no less than this Q/C, so a
#: dissolving queue's rounding residue cannot freeze the steps through it
QUEUE_RATIO_FLOOR = 1e-6


@dataclass(frozen=True)
class SolverOptions:
    queue_mode: Literal["fixed_point", "smoothed_gradient"] = "fixed_point"
    variant: str = "queue_dependent"
    epsilon: float = 1e-3
    max_outer_iterations: int = 2000

    def __post_init__(self) -> None:
        if self.queue_mode not in ("fixed_point", "smoothed_gradient"):
            raise ValueError(f"unknown queue_mode: {self.queue_mode}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant: {self.variant}")
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and > 0")
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be >= 1")


@dataclass
class ConvergenceReport:
    iterations: int
    flow_change: float
    queue_change: float
    wall_time: float = 0.0
    #: per-iteration rows, filled only when `solve` is called with
    #: `history=True` (empty otherwise):
    #: (iteration, J after flow step, J after queue step, max |df|, max |dQ|, gap)
    #: J is the function the mode's half-steps descend: `cost.merit` in the
    #: smoothed-gradient mode; the fixed-point mode descends nothing and
    #: records `cost.objective`
    history: list[tuple[int, float, float, float, float, float]] = field(
        default_factory=list
    )
    #: why the solve stopped: "tolerance" (converged), "iteration_limit",
    #: "stalled" (steps vanished at a relative gap above GAP_TOL), or
    #: "infeasible" (a queue-carrying state discharges above C(Q))
    termination: str = "tolerance"
    #: GP flow passes over all outer iterations
    inner_passes: int = 0

    @property
    def converged(self) -> bool:
        return self.termination == "tolerance"


@dataclass
class SolutionState:
    """Equilibrium state: path flows plus per-(link, path) queues."""

    path_set: PathSet
    params: CostParams  # per-link arrays, variant already applied
    variant: str
    path_flows: np.ndarray  # (n_paths,)
    queue_alloc: np.ndarray  # (n_entries,): Q_ap on each path-link entry
    link_flows: np.ndarray  # x: inflow assigned to each link
    link_queues: np.ndarray  # Q: residual queue at each link entrance
    upstream_queues: np.ndarray  # Q': traffic held upstream of each link
    throughflows: np.ndarray  # v = x - Q - Q'
    link_times: np.ndarray  # generalized link times at (v, Q)

    @property
    def t_f(self) -> np.ndarray:
        return np.array([l.free_flow_time for l in self.path_set.network.links])

    @property
    def c_max(self) -> np.ndarray:
        return np.array([l.capacity for l in self.path_set.network.links])

    def path_costs(self) -> np.ndarray:
        return _path_costs(self.path_set, self.link_times)

    def completing_flows(self) -> np.ndarray:
        """Trip-completing path flows f_p = f~_p - sum of queues along p."""
        return self.path_flows - _path_held(self.path_set, self.queue_alloc)

    def objective(self) -> float:
        return _cost.objective(
            self.throughflows, self.link_queues, self.t_f, self.c_max, self.params
        )


def assemble_link_state(
    path_set: PathSet, path_flows: np.ndarray, queue_alloc: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Derive (x, Q, Q', v) from path flows and per-entry queues.

    x is assigned inflow, Q the link's own queue, Q' the traffic held in
    queues upstream of the link on each of its paths, and v = x - Q - Q'
    the flow that actually traverses the link.
    """
    link_e, path_e, n_links = path_set.entry_link, path_set.entry_path, path_set.n_links
    held = np.asarray(queue_alloc, dtype=float)
    x = np.bincount(link_e, np.asarray(path_flows, dtype=float)[path_e], n_links)
    q = np.bincount(link_e, held, n_links)
    q_prime = np.bincount(link_e, _cost._segment_cumsum(held, path_set) - held, n_links)
    v = x - q - q_prime
    if np.any(v < -1e-9):
        worst = int(np.argmin(v))
        raise ValueError(
            f"infeasible state: negative throughflow {v[worst]:.3g} on link "
            f"{path_set.network.links[worst].id}"
        )
    return x, q, q_prime, np.maximum(v, 0.0)


class _LinkArrays(NamedTuple):
    """Per-link arrays unpacked once per solve for the hot path, in the
    order `cost._priced_cost` takes them after (v, Q)."""

    t_f: np.ndarray
    c_max: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    m: np.ndarray
    n: np.ndarray
    gamma: np.ndarray

    @classmethod
    def of(cls, params: CostParams, t_f: np.ndarray, c_max: np.ndarray) -> "_LinkArrays":
        return cls(t_f, c_max, *(
            np.broadcast_to(a, c_max.shape) for a in _cost._link_arrays(params)
        ))

    def sub(self, idx: np.ndarray) -> "_LinkArrays":
        return _LinkArrays(*(a[idx] for a in self))


class _GroupLevel(NamedTuple):
    """One level of link-disjoint OD groups for the GP pass: its paths,
    group after group; its links; the block-diagonal 0/1 paths x links
    membership matrix; each path's group within the level; each group's
    first row; and the link arrays on the level's links."""

    paths: np.ndarray
    links: np.ndarray
    member: np.ndarray
    group: np.ndarray
    starts: np.ndarray
    la: _LinkArrays


def _group_levels(path_set: PathSet, la: _LinkArrays) -> list[_GroupLevel]:
    """OD groups stacked into levels of groups that share no link.

    Taken in path-set order, a group's level is one above the highest level
    of any earlier group that shares a link with it; `last` holds each
    link's latest level.  Groups with fewer than two paths never move flow
    and are in no level.
    """
    last = np.full(path_set.n_links, -1, dtype=np.intp)
    by_level: list[list[int]] = []
    for gi, group in enumerate(path_set.od_groups):
        if len(group) < 2:
            continue
        links = path_set.od_group_links[gi]
        level = int(last[links].max()) + 1
        last[links] = level
        if level == len(by_level):
            by_level.append([])
        by_level[level].append(gi)
    levels = []
    row = np.empty(path_set.n_paths, dtype=np.intp)
    col = np.empty(path_set.n_links, dtype=np.intp)
    for gis in by_level:
        paths = np.concatenate([path_set.od_groups[gi] for gi in gis])
        links = np.concatenate([path_set.od_group_links[gi] for gi in gis])
        sizes = [len(path_set.od_groups[gi]) for gi in gis]
        row[paths] = np.arange(len(paths))
        col[links] = np.arange(len(links))
        inside = np.isin(path_set.entry_path, paths)
        member = np.zeros((len(paths), len(links)))
        member[row[path_set.entry_path[inside]], col[path_set.entry_link[inside]]] = 1.0
        group = np.repeat(np.arange(len(gis)), sizes)
        starts = np.cumsum(sizes) - sizes
        levels.append(_GroupLevel(paths, links, member, group, starts, la.sub(links)))
    return levels


def _gp_flow_pass(
    path_set: PathSet,
    f: np.ndarray,
    queue_alloc: np.ndarray,
    levels: list[_GroupLevel],
    options: SolverOptions,
) -> np.ndarray:
    """One gradient-projection sweep over all OD pairs (returns new flows).

    Each OD group moves flow from every costlier path to its cheapest one,
    by the cost gap over the summed slope of the priced cost on the links
    the two paths do not share (Jayakrishnan et al. 1994): a Newton step on
    the generalized times, or on the marginal times for the system
    optimum.  On queued links the slope also carries the queuing delay's
    response.  A step never moves queued traffic.

    Queues are frozen for the whole pass; link flows are updated
    incrementally between the levels of link-disjoint OD groups
    (`_group_levels`), which is the Gauss-Seidel order over groups.  All
    groups of a level step at once through the level's membership matrix,
    each on its own links only.  `queue_alloc` is feasible for `f`.
    """
    f = f.copy()
    x, q, q_prime, _ = assemble_link_state(path_set, f, queue_alloc)
    held = _path_held(path_set, queue_alloc)  # queued traffic, immovable
    system_optimum = options.variant == "system_optimum"

    with np.errstate(divide="ignore", invalid="ignore"):
        for paths, links, member, group, starts, la_l in levels:
            q_l = q[links]
            v_l = np.maximum(x[links] - q_l - q_prime[links], 0.0)
            cost, slope = _cost._priced_cost(v_l, q_l, *la_l, system_optimum)
            if np.count_nonzero(q_l):
                # on queued links extra inflow feeds the queue (amplified by
                # 1/(1-gamma)), so the equilibrium cost responds through the
                # queuing-delay term as well; fold that into the curvature
                # so steps stay small where the queue, not the running
                # time, reacts
                c_l = la_l.c_max - la_l.gamma * q_l
                queue_slope = (
                    la_l.alpha
                    * la_l.m
                    * np.maximum(q_l / c_l, QUEUE_RATIO_FLOOR) ** (la_l.m - 1.0)
                    * (c_l + la_l.gamma * q_l)
                    / (c_l**2 * np.maximum(1.0 - la_l.gamma, 1e-3))
                )
                slope = slope + np.where(q_l > 0, queue_slope, 0.0)
            costs = member @ cost
            # each group's first cheapest path, as argmin picks it: a stable
            # sort by group, then cost
            best = np.lexsort((costs, group))[starts]
            best_row = best[group]
            gap = costs - costs[best_row]
            # summed slope on the links either path uses but not both
            curvature = np.maximum(
                np.abs(member - member.take(best_row, axis=0)) @ slope, CURVATURE_FLOOR
            )
            f_l = f[paths]
            movable = np.maximum(f_l - held[paths], 0.0)
            delta = np.where(
                (gap > 0) & (f_l > 0),
                np.minimum(movable, gap / curvature),
                0.0,
            )
            if not np.count_nonzero(delta):
                continue
            # the flow change of each path: -delta, and what its group
            # moved onto the cheapest path (whose own delta is 0)
            change = -delta
            change[best] = np.add.reduceat(delta, starts)
            x[links] += change @ member
            f[paths] = f_l + change
    return f


def _flush_remnants(path_set: PathSet, f: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Zero out costlier paths whose flow is noise relative to OD demand.

    The curvature-scaled step can leave a geometrically decaying remnant on
    a path that should carry nothing, especially when a sliver of queue is
    attributed to it (flow and held queue then chase each other downward).
    Reassigning the remnant (bounded by 1e-3 of the OD demand) to the
    cheapest path perturbs link flows by less than the solve tolerance.
    `costs` are the path costs at the current state.  The closing sweep of
    `solve` re-derives every queue, so a flushed path holds none.
    """
    od = path_set.path_od
    best = _cheapest(path_set, costs)[od]
    floor = 1e-3 * np.bincount(od, f, len(path_set.network.od_pairs))[od]
    # a cheapest path is never flushed, so a single-path OD pair keeps its flow
    flush = (f > 0.0) & (f <= floor) & (costs > costs[best] + 1e-9)
    f = f.copy()
    np.add.at(f, best[flush], f[flush])
    f[flush] = 0.0
    return f


def _path_held(path_set: PathSet, queue_alloc: np.ndarray) -> np.ndarray:
    """Queued traffic per path, summed over the path's entries."""
    return np.bincount(path_set.entry_path, queue_alloc, path_set.n_paths)


def _path_costs(path_set: PathSet, times: np.ndarray) -> np.ndarray:
    """Per path, the sum of its links' times."""
    return np.bincount(path_set.entry_path, times[path_set.entry_link], path_set.n_paths)


def _cheapest(path_set: PathSet, costs: np.ndarray) -> np.ndarray:
    """Each OD pair's first cheapest path, as argmin picks it (-1 if it has
    no path): the head of its run in a stable sort by OD pair, then cost."""
    od = path_set.path_od
    order = np.lexsort((costs, od))
    heads = order[np.diff(od[order], prepend=-1) != 0]
    best = np.full(len(path_set.network.od_pairs), -1, dtype=np.intp)
    best[od[heads]] = heads
    return best


def _relative_gap(
    path_set: PathSet, f: np.ndarray, costs: np.ndarray
) -> float:
    best = _cheapest(path_set, costs)
    demand = np.array([od.demand for od in path_set.network.od_pairs])
    num = float(f @ (costs - costs[best[path_set.path_od]]))
    den = float(demand[best >= 0] @ costs[best[best >= 0]])
    return num / den if den > 0 else 0.0


def _queue_targets_fixed_point(
    path_set: PathSet,
    f: np.ndarray,
    queue_alloc: np.ndarray,
    c_max: np.ndarray,
    params: CostParams,
    relaxation: float,
    slack: np.ndarray | None = None,
) -> np.ndarray:
    """Complementarity fixed-point queue sweep (returns new per-entry queues).

    Per link: the inflow that survives upstream queues is x - Q'; if it
    exceeds the base capacity, the steady queue solves x - Q' - Q = C_max -
    gamma*Q, i.e. Q = (x - Q' - C_max)/(1 - gamma); otherwise the queue
    vanishes.  The link queue is attributed to its paths in proportion to
    their arriving flow, relaxed from the input queues, and capped at what
    arrives.  Each round applies that map to every link at once, with the
    arrivals of the previous round (Jacobi), until no entry moves by more
    than SWEEP_TOL, at most n_links + 1 rounds.  A link's queue is right
    once the links upstream of it are, so on acyclic precedence the rounds
    reach the fixed point after the deepest link's depth + 1, and on cyclic
    precedence they need no link order either.  The result is projected so
    no path holds back more than it carries, whether or not they settled.

    With `slack`, each link keeps that capacity slack C(Q) - v instead of
    closing it (a slack of -inf holds no queue).
    """
    link_e, n_links = path_set.entry_link, path_set.n_links
    gamma = np.broadcast_to(np.asarray(params.gamma, dtype=float), c_max.shape)
    start = np.asarray(queue_alloc, dtype=float)
    held = start
    flow_e = f[path_set.entry_path]
    # gamma -> 0+ overflows the capacity cap to inf, which is no cap
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(n_links + 1):
            # per-path flow still arriving after upstream queues (last round)
            upstream = _cost._segment_cumsum(held, path_set) - held
            arriving = np.maximum(flow_e - upstream, 0.0)
            inflow = np.bincount(link_e, arriving, n_links)  # = x - Q'
            surplus = inflow - c_max
            if slack is not None:
                surplus = surplus + slack
            target = np.where(
                gamma >= 1.0,
                np.where(surplus > 0, np.inf, 0.0),
                np.maximum(0.0, surplus / (1.0 - gamma)),
            )
            # never hold back more than arrives, nor beyond the capacity cap
            target = np.minimum(target, inflow)
            target = np.where(
                gamma > 0, np.minimum(target, QUEUE_CAP_FRACTION * c_max / gamma), target
            )
            # relax per (link, path): sudden re-attribution between paths is
            # as destabilizing downstream as a sudden change in the link
            # total; a path never holds back more than it brings to the link
            queued = (target > 0) & (inflow > 0)
            share = np.where(queued[link_e], arriving / inflow[link_e], 0.0)
            new = np.minimum(
                np.maximum(0.0, start + relaxation * (target[link_e] * share - start)),
                arriving,
            )
            moved = float(np.max(np.abs(new - held), initial=0.0))
            held = new
            if moved <= SWEEP_TOL:
                break
    return _project_queues(path_set, f, held)


def _project_queues(
    path_set: PathSet, f: np.ndarray, queue_alloc: np.ndarray
) -> np.ndarray:
    """Nonnegative queues cut so no path holds back more than it carries,
    upstream queues first: each entry is capped at what arrives past the
    path's upstream queues.  Entries within that are kept exactly, so a
    feasible input (no path holds more than its flow) comes back as it is."""
    if np.all(_path_held(path_set, queue_alloc) <= f):
        return queue_alloc
    upstream = _cost._segment_cumsum(queue_alloc, path_set) - queue_alloc
    return np.minimum(queue_alloc, np.maximum(f[path_set.entry_path] - upstream, 0.0))


def _queue_relaxation(gamma: np.ndarray) -> float:
    """The fixed-point mode's queue relaxation: slower as queues erode
    capacity faster, clip(0.5 (1 - max gamma), 0.05, 0.5)."""
    return float(np.clip(0.5 * (1.0 - gamma.max()), 0.05, 0.5))


def _accept_or_halve(trial, step, halve, merit, j, current):
    """The first (flows, queues, merit) of trial(step), trial(halve(step)),
    ... (at most 40 trials) whose merit is <= j; else (*current, j)."""
    for _ in range(40):
        flows, queues = trial(step)
        j_trial = merit(flows, queues)
        if j_trial <= j:
            return flows, queues, j_trial
        step = halve(step)
    return (*current, j)


def _aon_initial_flows(path_set: PathSet) -> np.ndarray:
    """All-or-nothing start: full OD demand on its free-flow cheapest path."""
    t_f = np.array([l.free_flow_time for l in path_set.network.links])
    f = np.zeros(path_set.n_paths)
    for i, group in enumerate(path_set.od_groups):
        if len(group) == 0:
            continue
        ff_costs = [
            (float(t_f[path_set.path_link_idx[j]].sum()), path_set.paths[j].links, j)
            for j in group
        ]
        _, _, best = min(ff_costs)
        f[best] = path_set.network.od_pairs[i].demand
    return f


def _apply_variant(params: CostParams, variant: str) -> CostParams:
    if variant == "fixed_capacity_queue":
        # capacity never degrades, and the smoothing base collapses so the
        # running-time exponent is insensitive to queues
        return params.replace(
            gamma=np.zeros_like(np.asarray(params.gamma, dtype=float)),
            phi=np.ones_like(np.asarray(params.phi, dtype=float)),
        )
    return params


def solve(
    path_set: PathSet,
    params: CostParams | None = None,
    options: SolverOptions | None = None,
    demands: Sequence[float] | None = None,
    initial_flows: np.ndarray | None = None,
    history: bool = False,
) -> tuple[SolutionState, ConvergenceReport]:
    """Solve for equilibrium path flows and residual queues.

    `demands` optionally overrides the OD demands, in OD pair order, on a
    copy of the network and a `PathSet` of the same paths.  `history` asks for
    `ConvergenceReport.history`, one row per outer iteration (J after each
    half-step, the step sizes and the relative gap); it is off by default
    because pricing those rows is bookkeeping the iteration never reads, and
    the iterates are the same either way.
    """
    options = options or SolverOptions()
    network = path_set.network
    base = (params or CostParams()).for_links(network.links)
    base = _apply_variant(base, options.variant)
    t_f = np.array([l.free_flow_time for l in network.links])
    c_max = np.array([l.capacity for l in network.links])

    if demands is not None:
        if len(demands) != len(network.od_pairs):
            raise ValueError("demands override must match the OD pair count")
        ods = [replace(od, demand=float(d)) for od, d in zip(network.od_pairs, demands)]
        network = network.with_demands(ods)
        path_set = PathSet(network, path_set.paths)

    if initial_flows is not None:
        f = np.asarray(initial_flows, dtype=float).copy()
        if f.shape != (path_set.n_paths,):
            raise ValueError("initial_flows must have one entry per path")
        if not np.all(np.isfinite(f) & (f >= 0)):
            raise ValueError("initial_flows must be finite and >= 0")
        for i, group in enumerate(path_set.od_groups):
            want = path_set.network.od_pairs[i].demand
            got = float(f[group].sum()) if len(group) else 0.0
            if abs(got - want) > 1e-6 * max(1.0, want):
                raise ValueError(
                    f"initial_flows violate demand conservation for OD {i}"
                )
    else:
        f = _aon_initial_flows(path_set)

    queue_alloc = np.zeros(len(path_set.entry_link))
    la = _LinkArrays.of(base, t_f, c_max)
    group_levels = _group_levels(path_set, la)
    theta = _queue_relaxation(la.gamma)

    update_queues = options.variant != "traditional_ue"
    smoothed = options.queue_mode == "smoothed_gradient"
    system_optimum = options.variant == "system_optimum"

    def merit(f_: np.ndarray, qa_: np.ndarray) -> float:
        return _cost.merit(
            path_set, f_, qa_, t_f, c_max, base,
            system_optimum=system_optimum, capacity_bound=update_queues,
        )

    def sweep(f_: np.ndarray, qa_: np.ndarray, step: float, slack=None) -> np.ndarray:
        return _queue_targets_fixed_point(path_set, f_, qa_, c_max, base, step, slack)

    def objective(f_: np.ndarray, qa_: np.ndarray) -> float:
        _, q_, _, v_ = assemble_link_state(path_set, f_, qa_)
        return _cost.objective(v_, q_, t_f, c_max, base)

    def price(f_: np.ndarray, qa_: np.ndarray):
        """(x, Q, Q', v) at (f_, qa_), and the generalized link times there."""
        links = assemble_link_state(path_set, f_, qa_)
        return links, _cost.link_travel_time(links[3], links[1], t_f, c_max, base)

    # each mode's step rule: from (f, queues, j), `flow_step` takes a GP
    # pass's flows g and `queue_step` sweeps; both return the new (f, queues, j)
    if smoothed:
        # both half-steps are accepted or halved on the merit: no damping
        def flow_step(f_, qa_, j_, g):
            # queued links queue the change in arrivals, keeping slack C(Q) - v
            _, q0, _, v0 = assemble_link_state(path_set, f_, qa_)
            slack = np.where(q0 > 0, c_max - la.gamma * q0 - v0, -np.inf)
            g, qa_, j_ = _accept_or_halve(
                lambda g_: (g_, sweep(g_, qa_, 1.0, slack)), g,
                lambda g_: f_ + 0.5 * (g_ - f_), merit, j_, (f_, qa_),
            )
            projected = _project_queues(path_set, g, qa_)
            # a cut, if only by an ulp, leaves the state j was taken at
            return g, projected, (j_ if projected is qa_ else merit(g, projected))

        def queue_step(f_, qa_, j_):
            # the sweep unrelaxed, halved until the merit does not rise
            return _accept_or_halve(
                lambda s: (f_, sweep(f_, qa_, s)), 1.0,
                lambda s: s / 2.0, merit, j_, (f_, qa_),
            )

        j = merit(f, queue_alloc)
    else:
        # plain GP passes, the theta-relaxed sweep and the damping below
        def flow_step(f_, qa_, j_, g):
            return g, _project_queues(path_set, g, qa_), j_

        def queue_step(f_, qa_, j_):
            return f_, sweep(f_, qa_, theta), j_

        j = np.nan

    rows: list[tuple[int, float, float, float, float, float]] = []
    flow_change = queue_change = 0.0
    termination = "iteration_limit"
    it = 0
    od, n_od = path_set.path_od, len(path_set.od_groups)
    damping = np.ones(n_od)
    delta_prev: np.ndarray | None = None
    inner_passes = 0
    link_q = np.bincount(path_set.entry_link, queue_alloc, path_set.n_links)
    t_start = time.perf_counter()
    for it in range(1, options.max_outer_iterations + 1):
        f_prev = f.copy()
        q_prev = link_q
        # the first iteration has no queue change yet (queue_change is 0)
        inner_tol = max(0.1 * options.epsilon, INNER_TOL_SHARE * queue_change)

        # flow half-step: GP passes with the queues frozen
        for _ in range(MAX_INNER_PASSES):
            inner_passes += 1
            g = _gp_flow_pass(path_set, f, queue_alloc, group_levels, options)
            f_new, queue_alloc, j = flow_step(f, queue_alloc, j, g)
            inner_change = float(np.max(np.abs(f_new - f))) if f.size else 0.0
            f = f_new
            if inner_change <= inner_tol:
                break

        # near-degenerate path sets can sustain a flow<->queue limit cycle:
        # the iterate swings between two flow splits of identical cost.
        # Detect the reversal (successive flow deltas pointing in opposite
        # directions) and damp the outer flow update; averaging a two-cycle
        # lands on its fixed point.  Recover the step size once the
        # iteration behaves monotonically again.
        delta = f - f_prev
        if delta_prev is not None and not smoothed:
            damping = np.where(
                np.bincount(od, delta_prev * delta, n_od) < 0.0,  # reversed
                np.maximum(0.05, 0.5 * damping), np.minimum(1.0, 1.25 * damping),
            )
            damped = damping[od] < 1.0
            if np.any(damped):
                f = np.where(damped, f_prev + damping[od] * delta, f)
                queue_alloc = _project_queues(path_set, f, queue_alloc)
        delta_prev = f - f_prev

        if history:
            j_half = j if smoothed else objective(f, queue_alloc)
        # queue half-step, with the flows frozen
        if update_queues:
            f, queue_alloc, j = queue_step(f, queue_alloc, j)

        flow_change = float(np.max(np.abs(f - f_prev))) if f.size else 0.0
        link_q = np.bincount(path_set.entry_link, queue_alloc, path_set.n_links)
        queue_change = float(np.max(np.abs(link_q - q_prev)))
        if history:
            (_, q, _, v), times = price(f, queue_alloc)
            j_full = j if smoothed else _cost.objective(v, q, t_f, c_max, base)
            gap = _relative_gap(path_set, f, _path_costs(path_set, times))
            rows.append((it, j_half, j_full, flow_change, queue_change, gap))
        if max(flow_change, queue_change) <= options.epsilon:
            termination = "tolerance"
            break

    # the state the last iteration ended at, priced once
    _, times = price(f, queue_alloc)
    f = _flush_remnants(path_set, f, _path_costs(path_set, times))
    if update_queues:
        # one exact (unrelaxed) sweep so queued links satisfy v = C(Q) to
        # machine precision rather than to the stopping tolerance
        queue_alloc = sweep(f, queue_alloc, 1.0)

    (x, q, q_prime, v), times = price(f, queue_alloc)
    if termination == "tolerance":
        # small steps are no equilibrium where they vanish away from it: the
        # smoothed mode stalls where neither half-step lowers the merit, and
        # GP steps vanish wherever the curvature dwarfs the cost gap; gate
        # on the gap of the cost this variant prices paths by
        priced = _cost._priced_cost(v, q, *la, True)[0] if system_optimum else times
        if _relative_gap(path_set, f, _path_costs(path_set, priced)) > GAP_TOL:
            termination = "stalled"
    if update_queues and np.any(v - (c_max - la.gamma * q) > CAPACITY_RTOL * c_max):
        # a state that discharges above C(Q) is not an equilibrium, however
        # small the last steps were
        termination = "infeasible"
    state = SolutionState(
        path_set=path_set,
        params=base,
        variant=options.variant,
        path_flows=f,
        queue_alloc=queue_alloc,
        link_flows=x,
        link_queues=q,
        upstream_queues=q_prime,
        throughflows=v,
        link_times=times,
    )
    report = ConvergenceReport(
        iterations=it,
        flow_change=flow_change,
        queue_change=queue_change,
        wall_time=time.perf_counter() - t_start,
        history=rows,
        termination=termination,
        inner_passes=inner_passes,
    )
    return state, report


def solve_variant(
    path_set: PathSet,
    variant: str,
    params: CostParams | None = None,
    options: SolverOptions | None = None,
    **kwargs,
) -> tuple[SolutionState, ConvergenceReport]:
    """`solve` with the variant swapped into the options."""
    options = replace(options or SolverOptions(), variant=variant)
    return solve(path_set, params, options, **kwargs)

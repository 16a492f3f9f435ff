"""Alternating path-flow / queue solver for equilibrium with residual queues.

`solve` is one loop over two half-steps, run until neither moves: with the
queues frozen, path-based gradient-projection (GP) passes shift flow from
costlier paths to the cheapest path of each OD pair, scaled by the local
cost curvature on the non-shared links and split among the pair's shifting
paths, so each pair moves by one step; with the flows frozen, the
complementarity fixed-point sweep sets each link's queue so inflow net of
held-back traffic matches the queue-reduced capacity.

Each queue mode supplies only its step rule: the fixed-point mode (default)
takes the GP passes as they come, relaxes the sweep by `_queue_relaxation`
and damps flow<->queue limit cycles; the smoothed-gradient mode puts each
GP pass and the unrelaxed sweep through one accept-or-halve rule on the
equilibrium merit `cost.merit` (`_accept_or_halve`).

Queues are carried per (link, path) so that a queue at one link shelters
the links downstream of it on the same path.  They hold back part of the
path's own traffic, so the loop keeps one invariant: no path holds back
more than it carries.  Only the queue sweep can break it, and it ends by
restoring it (`_project_queues`); no flow step moves held traffic, so none
needs a cut (a smoothed flow trial takes its queues from the sweep).

The loop stops when the steps vanish; the verdict comes from `kkt_report`,
the one audit that prices the variant's relative gap and the capacity
residual.  The returned state is `stalled` if its gap exceeds GAP_TOL and,
when the variant carries queues, `infeasible` if a link discharges above
C(Q) + CAPACITY_RTOL C_max.  The history rows take their gap from it too.

The flow half-step runs GP passes until one moves no path flow by more
than max(0.1 STEP_TOL, INNER_TOL_SHARE * the previous iteration's largest
link-queue change): the flow block is solved only as exactly as the next
queue update warrants, and to 0.1 STEP_TOL once the queues settle.  The
first iteration, with no queue change yet, uses 0.1 STEP_TOL.  The passes
hold the per-entry queues frozen, so everything the pricing reads of them
is computed once, by `_frozen_queues`: per link Q and Q', per path its
queued traffic, and over all links at once the queue half of the priced
cost (C(Q), the delay term, t_f beta n and the slope at zero flow,
`cost._queue_part`) and the queue-slope curvature, 0 on a link without a
queue; each level of OD groups reads its own links' slice.  Each pass
computes only the flow half: x, v and the running time with its slope
(`cost._flow_part`).  The frozen terms are computed again only when the
queues are a different array: in the fixed-point mode that is once per
outer iteration, after the queue sweep; the smoothed mode sweeps the
queues in every flow trial, so it computes them on every pass.  A variant
without queues keeps the ones it starts with in every trial too, and
computes them once per solve in either mode.  The GP curvature on a queued
link carries the queuing-delay slope alpha m (Q/C)^(m-1), evaluated at
Q/C >= QUEUE_RATIO_FLOOR so that with m < 1 a dissolving queue's rounding
residue cannot make it unbounded.

The solver works on the flat path-link entries of `PathSet`: one entry
per (link, path) pair (`entry_link`, `entry_path`); the queues are one
vector over them.  Link totals and path costs are `np.bincount` over the
entries, and what a path holds upstream of an entry is
`PathSet.held_upstream`.
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
from dataclasses import dataclass, field
from typing import Literal, NamedTuple, Sequence

import numpy as np

from . import cost as _cost
from .cost import CostParams
from .net import PathSet

__all__ = [
    "SolverOptions",
    "SolutionState",
    "ConvergenceReport",
    "EquilibriumReport",
    "assemble_link_state",
    "kkt_report",
    "solve",
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

#: the outer loop stops once an iteration moves no path flow and no link
#: queue by more than this (veh/h); a bound on the step, not on the
#: distance to the equilibrium, which GAP_TOL judges
STEP_TOL = 1e-3

#: a link counts as congested when its queue exceeds this share of capacity
CONGESTION_THRESHOLD = 1e-6

#: GP passes per outer iteration, at most
MAX_INNER_PASSES = 50

#: the GP passes of an outer iteration stop once the flows move by at most
#: this share of the previous iteration's largest queue change (or by
#: 0.1 STEP_TOL, whichever is larger): a flow block solved more exactly
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
    max_outer_iterations: int = 2000

    def __post_init__(self) -> None:
        if self.queue_mode not in ("fixed_point", "smoothed_gradient"):
            raise ValueError(f"unknown queue_mode: {self.queue_mode}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant: {self.variant}")
        n = self.max_outer_iterations
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"max_outer_iterations must be an integer, not {n!r}")
        if n < 1:
            raise ValueError("max_outer_iterations must be >= 1")


@dataclass
class ConvergenceReport:
    iterations: int
    wall_time: float = 0.0
    #: per-iteration rows, filled only when `solve` is called with
    #: `history=True` (empty otherwise):
    #: (iteration, J after flow step, J after queue step, max |df|, max |dQ|, gap)
    #: J is `cost.merit` in both modes (the smoothed-gradient mode descends
    #: it), NaN where a queue-carrying variant has gamma >= 1
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
        return self.path_set.t_f

    @property
    def c_max(self) -> np.ndarray:
        return self.path_set.c_max

    def path_costs(self) -> np.ndarray:
        return _path_costs(self.path_set, self.link_times)

    def completing_flows(self) -> np.ndarray:
        """Trip-completing path flows f_p = f~_p - sum of queues along p."""
        return self.path_flows - _path_held(self.path_set, self.queue_alloc)

    def total_cost(self) -> float:
        """Total generalized cost sum_a (v_a + Q_a) t_a, running and queued
        traffic alike; its derivative in v is the marginal time t + (v+Q) t_v."""
        return float(np.sum((self.throughflows + self.link_queues) * self.link_times))


def assemble_link_state(
    path_set: PathSet, path_flows: np.ndarray, queue_alloc: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Derive (x, Q, Q', v) from path flows and per-entry queues.

    x is assigned inflow, Q the link's own queue, Q' the traffic held in
    queues upstream of the link on each of its paths, and v = x - Q - Q'
    the flow that actually traverses the link.
    """
    x = _link_inflow(path_set, path_flows)
    q, q_prime = _link_queues(path_set, queue_alloc)
    return x, q, q_prime, _throughflow(path_set, x, q, q_prime)


def _link_inflow(path_set: PathSet, path_flows: np.ndarray) -> np.ndarray:
    """x: the path flows assigned to each link."""
    flows = np.asarray(path_flows, dtype=float)[path_set.entry_path]
    return np.bincount(path_set.entry_link, flows, path_set.n_links)


def _link_queues(
    path_set: PathSet, queue_alloc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(Q, Q') per link: its own queue, and what its paths hold upstream."""
    link_e, n_links = path_set.entry_link, path_set.n_links
    held = np.asarray(queue_alloc, dtype=float)
    q = np.bincount(link_e, held, n_links)
    q_prime = np.bincount(link_e, path_set.held_upstream(held), n_links)
    return q, q_prime


def _throughflow(
    path_set: PathSet, x: np.ndarray, q: np.ndarray, q_prime: np.ndarray
) -> np.ndarray:
    """v = x - Q - Q', refusing a state that discharges a negative flow."""
    v = x - q - q_prime
    if np.any(v < -1e-9):
        worst = int(np.argmin(v))
        raise ValueError(
            f"infeasible state: negative throughflow {v[worst]:.3g} on link "
            f"{path_set.network.links[worst].id}"
        )
    return np.maximum(v, 0.0)


class _GroupLevel(NamedTuple):
    """One level of link-disjoint OD groups for the GP pass: its paths,
    group after group; its links; the block-diagonal 0/1 paths x links
    membership matrix; each path's group within the level; and each
    group's first row."""

    paths: np.ndarray
    links: np.ndarray
    member: np.ndarray
    group: np.ndarray
    starts: np.ndarray


def _group_levels(path_set: PathSet) -> list[_GroupLevel]:
    """OD groups stacked into levels of groups that share no link.

    Taken in path-set order, a group's level is one above the highest level
    of any earlier group that shares a link with it; `last` holds each
    link's latest level.  Groups that can never move flow are in no level:
    those with fewer than two paths, and those of OD pairs with zero demand
    (`path_set` carries the demands solved for, so a swept OD pair drops
    out only where its demand is 0), whose paths all carry nothing.
    """
    last = np.full(path_set.n_links, -1, dtype=np.intp)
    by_level: list[list[int]] = []
    for gi, group in enumerate(path_set.od_groups):
        if len(group) < 2 or path_set.demand[gi] == 0:
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
        levels.append(_GroupLevel(paths, links, member, group, starts))
    return levels


class _FrozenQueues(NamedTuple):
    """The queue part of the GP pass's pricing (`_frozen_queues`): all it
    reads of the per-entry queues it holds frozen.  Per link Q and Q'; per
    path its queued traffic; per level of `_group_levels`, the slices on
    the level's links of Q', of the queue half of the priced cost and of
    the curvature the queues add (0 on a link without a queue)."""

    queue_alloc: np.ndarray  # the queues these terms were priced from
    q: np.ndarray
    q_prime: np.ndarray
    held: np.ndarray
    levels: list[tuple[np.ndarray, _cost._QueuePart, np.ndarray]]


def _frozen_queues(
    path_set: PathSet,
    queue_alloc: np.ndarray,
    levels: list[_GroupLevel],
    params: CostParams,
) -> _FrozenQueues:
    """Price what the GP pass needs of `queue_alloc`, once for every pass
    that holds these queues frozen: the queue half of the cost over all
    links, at the per-link `params`, and each level's slice of it."""
    q, q_prime = _link_queues(path_set, queue_alloc)
    alpha, _, m, _, gamma = arrays = _cost._link_arrays(params)
    with np.errstate(divide="ignore", invalid="ignore"):
        qp = _cost._queue_part(q, path_set.t_f, path_set.c_max, *arrays)
        # on queued links extra inflow feeds the queue (amplified by
        # 1/(1-gamma)), so the equilibrium cost responds through the
        # queuing-delay term as well; fold that into the curvature so
        # steps stay small where the queue, not the running time, reacts
        queue_slope = np.where(
            q > 0,
            alpha
            * m
            * np.maximum(q / qp.c, QUEUE_RATIO_FLOOR) ** (m - 1.0)
            * (qp.c + gamma * q)
            / (qp.c**2 * np.maximum(1.0 - gamma, 1e-3)),
            0.0,
        )
    frozen_levels = [
        (
            q_prime[level.links],
            _cost._QueuePart(*(a[level.links] for a in qp)),
            queue_slope[level.links],
        )
        for level in levels
    ]
    return _FrozenQueues(
        queue_alloc, q, q_prime, _path_held(path_set, queue_alloc), frozen_levels
    )


def _gp_flow_pass(
    path_set: PathSet,
    f: np.ndarray,
    frozen: _FrozenQueues,
    levels: list[_GroupLevel],
    options: SolverOptions,
) -> np.ndarray:
    """One gradient-projection sweep over all OD pairs (returns new flows).

    Each OD group moves flow from every costlier path to its cheapest one,
    by the cost gap over the summed slope of the priced cost on the links
    the two paths do not share (Jayakrishnan et al. 1994): a Newton step on
    the generalized times, or on the marginal times for the system
    optimum.  On queued links the slope also carries the queuing delay's
    response.  A group's shifts all land on its cheapest path's links, so
    they are taken as one step: each is divided by the number of the
    group's paths that shift in the pass (Bertsekas & Gafni 1982).  A step
    never moves queued traffic.

    The queues are `frozen`'s, priced once for every pass that holds them
    (`_frozen_queues`); a pass prices only the flow part of the cost.  Link
    flows are updated incrementally between the levels of link-disjoint OD
    groups (`_group_levels`), which is the Gauss-Seidel order over groups.
    All groups of a level step at once through the level's membership
    matrix, each on its own links only.  A level in which no path both
    costs more than its group's cheapest and carries flow stops once
    priced: it takes no curvature, step or update.  The frozen queues are
    feasible for `f`.
    """
    f = f.copy()
    x = _link_inflow(path_set, f)
    _throughflow(path_set, x, frozen.q, frozen.q_prime)  # raises if v < 0 anywhere
    held = frozen.held  # queued traffic, immovable
    system_optimum = options.variant == "system_optimum"

    with np.errstate(divide="ignore", invalid="ignore"):
        for level, (q_prime_l, qp, queue_slope) in zip(levels, frozen.levels):
            paths, links, member, group, starts = level
            v_l = np.maximum(x[links] - qp.q - q_prime_l, 0.0)
            cost, slope = _cost._flow_part(v_l, qp, system_optimum)
            slope = slope + queue_slope
            costs = member @ cost
            # each group's first cheapest path, as argmin picks it: a stable
            # sort by group, then cost
            best = np.lexsort((costs, group))[starts]
            best_row = best[group]
            gap = costs - costs[best_row]
            f_l = f[paths]
            shifts = (gap > 0) & (f_l > 0)
            if not np.count_nonzero(shifts):
                continue
            # summed slope on the links either path uses but not both
            curvature = np.maximum(
                np.abs(member - member.take(best_row, axis=0)) @ slope, CURVATURE_FLOOR
            )
            # a group's shifts share one step: per group, the paths that shift
            shifting = np.bincount(group, shifts)[group]
            movable = np.maximum(f_l - held[paths], 0.0)
            delta = np.where(shifts, np.minimum(movable, gap / curvature / shifting), 0.0)
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


def _min_od_costs(path_set: PathSet, costs: np.ndarray) -> np.ndarray:
    """Each OD pair's cheapest path cost (NaN if it has no path)."""
    best = _cheapest(path_set, costs)
    mins = np.full(len(best), np.nan)
    mins[best >= 0] = costs[best[best >= 0]]
    return mins


@dataclass
class EquilibriumReport:
    relative_gap: float
    min_od_costs: np.ndarray  # cheapest used-or-not path cost per OD pair
    max_complementarity_residual: float
    max_capacity_residual: float
    congested_links: tuple[str, ...]
    complementarity_residuals: np.ndarray = field(repr=False, default=None)
    capacity_residuals: np.ndarray = field(repr=False, default=None)


def kkt_report(state: SolutionState) -> EquilibriumReport:
    """Equilibrium-condition audit of a solution; `solve` decides whether
    its answer converged, stalled or is infeasible from this audit.

    The relative gap is total excess path cost over the cheapest path of
    each OD pair, normalized by total demand-weighted minimum cost, with
    paths priced as the variant prices them: by generalized times, or for
    the system optimum by marginal times.  It is zero at an exact
    equilibrium of that cost.  `min_od_costs` are generalized costs in
    every variant.  The complementarity residual per link is
    |Q * ((C_max - v)/gamma - Q)| (|Q * (C_max - v)| for gamma = 0): a
    queue may persist only when it has choked capacity down to the
    throughflow.  The capacity residual is max(0, v - C(Q)).  Only the path
    flows, the link-level fields, the link times, the parameters and the
    variant are read, never the per-entry queues.
    """
    ps = state.path_set
    c_max = state.c_max
    q, v = state.link_queues, state.throughflows
    costs = state.path_costs()
    priced = costs
    if state.variant == "system_optimum":
        marginal = _cost.marginal_link_time(v, q, state.t_f, c_max, state.params)
        priced = _path_costs(ps, marginal)
    best = _cheapest(ps, priced)
    excess = float(state.path_flows @ (priced - priced[best[ps.path_od]]))
    total = float(ps.demand[best >= 0] @ priced[best[best >= 0]])

    gamma = np.asarray(state.params.gamma, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        slack = np.where(
            gamma > 0,
            (c_max - v) / np.where(gamma > 0, gamma, 1.0) - q,
            c_max - v,
        )
    comp = np.abs(q * slack)
    cap = np.maximum(0.0, v - _cost.capacity(q, c_max, state.params))
    congested = tuple(
        ps.network.links[i].id for i in np.flatnonzero(q > CONGESTION_THRESHOLD * c_max)
    )
    return EquilibriumReport(
        relative_gap=excess / total if total > 0 else 0.0,
        min_od_costs=_min_od_costs(ps, costs),
        max_complementarity_residual=float(comp.max()) if comp.size else 0.0,
        max_capacity_residual=float(cap.max()) if cap.size else 0.0,
        congested_links=congested,
        complementarity_residuals=comp,
        capacity_residuals=cap,
    )


def _queue_targets_fixed_point(
    path_set: PathSet,
    f: np.ndarray,
    queue_alloc: np.ndarray,
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
    link_e, n_links, c_max = path_set.entry_link, path_set.n_links, path_set.c_max
    gamma = np.asarray(params.gamma, dtype=float)
    start = np.asarray(queue_alloc, dtype=float)
    held = start
    flow_e = f[path_set.entry_path]
    # gamma -> 0+ overflows the capacity cap to inf, which is no cap
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the per-link constants of the map, the same in every round
        saturates, eroding, one_minus_gamma = gamma >= 1.0, gamma > 0, 1.0 - gamma
        cap = QUEUE_CAP_FRACTION * c_max / gamma
        for _ in range(n_links + 1):
            # per-path flow still arriving after upstream queues (last round)
            arriving = np.maximum(flow_e - path_set.held_upstream(held), 0.0)
            inflow = np.bincount(link_e, arriving, n_links)  # = x - Q'
            surplus = inflow - c_max
            if slack is not None:
                surplus = surplus + slack
            target = np.where(
                saturates,
                np.where(surplus > 0, np.inf, 0.0),
                np.maximum(0.0, surplus / one_minus_gamma),
            )
            # never hold back more than arrives, nor beyond the capacity cap
            target = np.minimum(target, inflow)
            target = np.where(eroding, np.minimum(target, cap), target)
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
    feasible input (no path holds more than its flow) comes back as it is.
    Only the queue sweep calls it (no flow step can break the invariant);
    it stays separate for queues given from outside a sweep."""
    if np.all(_path_held(path_set, queue_alloc) <= f):
        return queue_alloc
    upstream = path_set.held_upstream(queue_alloc)
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
    """All-or-nothing start: full OD demand on the path `_cheapest` picks at
    free-flow times."""
    best = _cheapest(path_set, _path_costs(path_set, path_set.t_f))
    has_path = best >= 0
    f = np.zeros(path_set.n_paths)
    f[best[has_path]] = path_set.demand[has_path]
    return f


def _random_split(path_set: PathSet, rng: np.random.Generator) -> np.ndarray:
    """Path flows that split each OD demand by a uniform Dirichlet draw,
    one draw per OD pair that has a path, in OD pair order."""
    f = np.zeros(path_set.n_paths)
    for group, demand in zip(path_set.od_groups, path_set.demand):
        if len(group):
            f[group] = rng.dirichlet(np.ones(len(group))) * demand
    return f


def _apply_variant(params: CostParams, variant: str) -> CostParams:
    if variant == "fixed_capacity_queue":
        # capacity never degrades
        return params.replace(gamma=np.zeros_like(np.asarray(params.gamma, dtype=float)))
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

    `demands` optionally overrides the OD demands, in OD pair order
    (`PathSet.with_demands`).  `history` asks for
    `ConvergenceReport.history`, one row per outer iteration (J after each
    half-step, the step sizes and the relative gap); it is off by default
    because pricing those rows is bookkeeping the iteration never reads, and
    the iterates are the same either way.
    """
    options = options or SolverOptions()
    network = path_set.network
    base = (params or CostParams()).for_links(network.links)
    base = _apply_variant(base, options.variant)
    t_f, c_max = path_set.t_f, path_set.c_max

    if demands is not None:
        path_set = path_set.with_demands(demands)

    if initial_flows is not None:
        f = np.asarray(initial_flows, dtype=float).copy()
        if f.shape != (path_set.n_paths,):
            raise ValueError("initial_flows must have one entry per path")
        if not np.all(np.isfinite(f) & (f >= 0)):
            raise ValueError("initial_flows must be finite and >= 0")
        want = path_set.demand
        got = np.bincount(path_set.path_od, f, len(want))
        bad = np.flatnonzero(np.abs(got - want) > 1e-6 * np.maximum(1.0, want))
        if bad.size:
            raise ValueError(
                f"initial_flows violate demand conservation for OD {bad[0]}"
            )
    else:
        f = _aon_initial_flows(path_set)

    queue_alloc = np.zeros(len(path_set.entry_link))
    group_levels = _group_levels(path_set)
    theta = _queue_relaxation(base.gamma)
    frozen = _frozen_queues(path_set, queue_alloc, group_levels, base)

    update_queues = options.variant != "traditional_ue"
    smoothed = options.queue_mode == "smoothed_gradient"

    def merit(f_: np.ndarray, qa_: np.ndarray) -> float:
        return _cost.merit(
            path_set, f_, qa_, base,
            system_optimum=options.variant == "system_optimum",
            capacity_bound=update_queues,
        )

    def sweep(f_: np.ndarray, qa_: np.ndarray, step: float, slack=None) -> np.ndarray:
        return _queue_targets_fixed_point(path_set, f_, qa_, base, step, slack)

    def history_j(f_: np.ndarray, qa_: np.ndarray) -> float:
        # the merit, undefined where a queue-carrying variant has gamma >= 1
        return merit(f_, qa_) if not update_queues or np.all(base.gamma < 1.0) else np.nan

    def state_at(f_: np.ndarray, qa_: np.ndarray) -> SolutionState:
        """Path flows f_ and per-entry queues qa_ as a priced state."""
        x, q, q_prime, v = assemble_link_state(path_set, f_, qa_)
        times = _cost.link_travel_time(v, q, t_f, c_max, base)
        return SolutionState(
            path_set, base, options.variant, f_, qa_, x, q, q_prime, v, times
        )

    # each mode's step rule: from (f, queues, j), `flow_step` takes a GP
    # pass's flows g and `queue_step` sweeps; both return the new (f, queues, j)
    if smoothed:
        # both half-steps are accepted or halved on the merit: no damping
        def flow_step(f_, qa_, j_, g):
            if update_queues:
                # queued links queue the change in arrivals, keeping slack C(Q) - v
                _, q0, _, v0 = assemble_link_state(path_set, f_, qa_)
                slack = np.where(q0 > 0, c_max - base.gamma * q0 - v0, -np.inf)
                trial = lambda g_: (g_, sweep(g_, qa_, 1.0, slack))
            else:
                # a variant without queues keeps the (empty) ones it has
                trial = lambda g_: (g_, qa_)
            return _accept_or_halve(
                trial, g, lambda g_: f_ + 0.5 * (g_ - f_), merit, j_, (f_, qa_),
            )

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
            return g, qa_, j_

        def queue_step(f_, qa_, j_):
            return f_, sweep(f_, qa_, theta), j_

        j = np.nan

    rows: list[tuple[int, float, float, float, float, float]] = []
    queue_change = 0.0
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
        inner_tol = max(0.1 * STEP_TOL, INNER_TOL_SHARE * queue_change)

        # flow half-step: GP passes with the queues frozen, priced again
        # only when a step replaced them
        for _ in range(MAX_INNER_PASSES):
            inner_passes += 1
            if frozen.queue_alloc is not queue_alloc:
                frozen = _frozen_queues(path_set, queue_alloc, group_levels, base)
            g = _gp_flow_pass(path_set, f, frozen, group_levels, options)
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
            f = np.where(damping[od] < 1.0, f_prev + damping[od] * delta, f)
        delta_prev = f - f_prev

        if history:
            j_half = history_j(f, queue_alloc)
        # queue half-step, with the flows frozen
        if update_queues:
            f, queue_alloc, j = queue_step(f, queue_alloc, j)

        flow_change = float(np.max(np.abs(f - f_prev))) if f.size else 0.0
        link_q = np.bincount(path_set.entry_link, queue_alloc, path_set.n_links)
        queue_change = float(np.max(np.abs(link_q - q_prev)))
        if history:
            j_full = history_j(f, queue_alloc)
            gap = kkt_report(state_at(f, queue_alloc)).relative_gap
            rows.append((it, j_half, j_full, flow_change, queue_change, gap))
        if max(flow_change, queue_change) <= STEP_TOL:
            termination = "tolerance"
            break

    f = _flush_remnants(path_set, f, state_at(f, queue_alloc).path_costs())
    if update_queues:
        # one exact (unrelaxed) sweep so queued links satisfy v = C(Q) to
        # machine precision rather than to the stopping tolerance
        queue_alloc = sweep(f, queue_alloc, 1.0)

    # vanished steps are no equilibrium where the audit finds a gap (the
    # smoothed mode stalls where neither half-step lowers the merit, GP steps
    # vanish where the curvature dwarfs the cost gap) or a link above C(Q)
    state = state_at(f, queue_alloc)
    audit = kkt_report(state)
    if termination == "tolerance" and audit.relative_gap > GAP_TOL:
        termination = "stalled"
    if update_queues and np.any(audit.capacity_residuals > CAPACITY_RTOL * c_max):
        termination = "infeasible"
    report = ConvergenceReport(
        iterations=it,
        wall_time=time.perf_counter() - t_start,
        history=rows,
        termination=termination,
        inner_passes=inner_passes,
    )
    return state, report


"""Per-path, per-link loop versions of the solver's hot path.

These are the straightforward loops that `solver.assemble_link_state`,
`solver._queue_targets_fixed_point` and `solver._gp_flow_pass` replaced
with array operations over the path-link entries.  They serve as oracles:
the vectorized versions must compute the same numbers up to rounding.

The loops keep the dense layout: queues are an (n_links, n_paths) array
Q_ap, zero where path p does not use link a, and path membership is a
dense 0/1 link-path incidence.  `dense_queues` converts the solver's
per-entry queues at the boundary.
"""

import networkx as nx
import numpy as np

from queuenet import cost as _cost
from queuenet.cost import QUEUE_RATIO_FLOOR
from queuenet.solver import CURVATURE_FLOOR, QUEUE_CAP_FRACTION, SWEEP_TOL


def path_link_idx(path_set):
    """Per path, the indices of its links in traversal order."""
    return [
        np.array([path_set.link_index(lid) for lid in p.links], dtype=np.intp)
        for p in path_set.paths
    ]


def incidence(path_set):
    """Dense 0/1 (n_links, n_paths) link-path incidence."""
    inc = np.zeros((path_set.n_links, path_set.n_paths))
    for j, idx in enumerate(path_link_idx(path_set)):
        inc[idx, j] = 1.0
    return inc


def dense_queues(path_set, held):
    """Per-entry queues as an (n_links, n_paths) array, zero off the entries."""
    queue_alloc = np.zeros((path_set.n_links, path_set.n_paths))
    queue_alloc[path_set.entry_link, path_set.entry_path] = held
    return queue_alloc


def assemble_link_state(path_set, path_flows, queue_alloc):
    x = incidence(path_set) @ path_flows
    q = queue_alloc.sum(axis=1)
    q_prime = np.zeros(path_set.n_links)
    for j, idx in enumerate(path_link_idx(path_set)):
        held = queue_alloc[idx, j]
        q_prime[idx[1:]] += np.cumsum(held[:-1])
    v = x - q - q_prime
    if np.any(v < -1e-9):
        worst = int(np.argmin(v))
        raise ValueError(
            f"infeasible state: negative throughflow {v[worst]:.3g} on link "
            f"{path_set.network.links[worst].id}"
        )
    return x, q, q_prime, np.maximum(v, 0.0)


def link_precedence_graph(path_set):
    g = nx.DiGraph()
    g.add_nodes_from(range(path_set.n_links))
    for idx in path_link_idx(path_set):
        g.add_edges_from(zip(idx[:-1], idx[1:]))
    return g


def link_precedence_order(path_set):
    """Upstream-first link order; earliest path position if cyclic (the
    passes then take more than one round to settle)."""
    try:
        return np.array(
            list(nx.topological_sort(link_precedence_graph(path_set))), dtype=np.intp
        )
    except nx.NetworkXUnfeasible:
        first_pos = np.full(path_set.n_links, np.inf)
        for idx in path_link_idx(path_set):
            for pos, a in enumerate(idx):
                first_pos[a] = min(first_pos[a], pos)
        return np.argsort(first_pos, kind="stable")


def queue_targets_fixed_point(
    path_set, f, queue_alloc, c_max, params, relaxation, slack=None
):
    """Per-link passes in upstream-first order, each relaxed from the input
    queues and reading the queues set so far, repeated until no entry moves
    by more than SWEEP_TOL.  On acyclic precedence the first pass is the
    fixed point; on cyclic precedence later passes settle it."""
    gamma = np.broadcast_to(np.asarray(params.gamma, dtype=float), c_max.shape)
    new_alloc = queue_alloc.copy()
    paths_through = [[] for _ in range(path_set.n_links)]
    link_idx = path_link_idx(path_set)
    for j, idx in enumerate(link_idx):
        for pos, a in enumerate(idx.tolist()):
            paths_through[a].append((j, pos))
    order = link_precedence_order(path_set)
    for _ in range(path_set.n_links + 1):
        previous = new_alloc.copy()
        for a in order:
            through = paths_through[a]
            arriving = np.empty(len(through))
            for k, (j, pos) in enumerate(through):
                idx = link_idx[j]
                arriving[k] = max(f[j] - float(new_alloc[idx[:pos], j].sum()), 0.0)
            inflow = float(arriving.sum())
            g = gamma[a]
            surplus = inflow - c_max[a]
            if slack is not None:
                surplus += slack[a]
            target = min(max(0.0, surplus / (1.0 - g)), inflow)
            if g > 0:
                target = min(target, QUEUE_CAP_FRACTION * c_max[a] / g)
            if target > 0 and inflow > 0:
                share = arriving / inflow
            else:
                share = np.zeros(len(through))
            for k, (j, _pos) in enumerate(through):
                new_alloc[a, j] = min(
                    max(
                        0.0,
                        queue_alloc[a, j]
                        + relaxation * (target * share[k] - queue_alloc[a, j]),
                    ),
                    arriving[k],
                )
        if np.max(np.abs(new_alloc - previous)) <= SWEEP_TOL:
            break
    return new_alloc


def gp_flow_pass(path_set, f, queue_alloc, params, options):
    """Takes queues feasible for `f`: no path holds back more than it
    carries; `params` holds per-link arrays."""
    f = f.copy()
    x, q, q_prime, _ = assemble_link_state(path_set, f, queue_alloc)
    held = queue_alloc.sum(axis=0)
    system_optimum = options.variant == "system_optimum"
    link_idx = path_link_idx(path_set)
    arrays = (path_set.t_f, path_set.c_max, *_cost._link_arrays(params))

    for gi, group in enumerate(path_set.od_groups):
        if len(group) < 2:
            continue
        glinks = path_set.od_group_links[gi]
        positions = [np.searchsorted(glinks, link_idx[j]) for j in group]
        _, c_max_g, alpha_g, _, m_g, _, gamma_g = la_g = [a[glinks] for a in arrays]
        q_g = q[glinks]
        v_g = np.maximum((x - q - q_prime)[glinks], 0.0)
        qp = _cost._queue_part(q_g, *la_g)
        with np.errstate(invalid="ignore", divide="ignore"):
            cost, slope = _cost._flow_part(v_g, qp, system_optimum)
        costs = np.array([cost[pos].sum() for pos in positions])
        local_best = int(np.argmin(costs))
        best_pos = set(positions[local_best].tolist())
        c_g = c_max_g - gamma_g * q_g
        # the delay slope is taken at Q/C >= QUEUE_RATIO_FLOOR, as the solver does
        queue_slope = (
            alpha_g
            * m_g
            * np.maximum(q_g / c_g, QUEUE_RATIO_FLOOR) ** (m_g - 1.0)
            * (c_g + gamma_g * q_g)
            / (c_g**2 * (1.0 - gamma_g))
        )
        slope = slope + np.where(q_g > 0, queue_slope, 0.0)
        c_min = float(costs.min())
        # the paths that shift: loaded, and costlier than the cheapest
        shifting = [
            local
            for local, j in enumerate(group)
            if local != local_best and f[j] > 0 and costs[local] - c_min > 0
        ]
        delta = np.zeros(len(group))
        for local in shifting:
            j = group[local]
            gap = costs[local] - c_min
            own = set(positions[local].tolist())
            distinct = list(own ^ best_pos)
            curvature = max(float(np.sum(slope[distinct])), CURVATURE_FLOOR)
            movable = max(f[j] - held[j], 0.0)
            # the group's shifts share one step
            delta[local] = min(movable, gap / curvature / len(shifting))
        if not np.any(delta > 0):
            continue
        moved = 0.0
        for local in np.flatnonzero(delta):
            x[glinks[positions[local]]] -= delta[local]
            moved += delta[local]
        x[glinks[positions[local_best]]] += moved
        f[group] -= delta
        f[group[local_best]] += moved
    return f

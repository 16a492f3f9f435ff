"""Solution quality diagnostics and model comparison utilities.

The equilibrium audit, `kkt_report` with its `EquilibriumReport`, lives in
`solver`, whose verdict on a solve is that audit of the returned state; it
is re-exported here with the other diagnostics.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .net import PathSet
from .solver import (
    VARIANTS,
    ConvergenceReport,
    EquilibriumReport,
    SolutionState,
    SolverOptions,
    _random_split,
    assemble_link_state,
    kkt_report,
    solve,
)
from . import cost as _cost
from .cost import CostParams

__all__ = [
    "EquilibriumReport",
    "ComparisonRow",
    "kkt_report",
    "compare_models",
    "uniqueness_probe",
    "gradient_check",
]


@dataclass
class ComparisonRow:
    variant: str
    state: SolutionState
    report: ConvergenceReport
    total_generalized_cost: float  # state.total_cost()
    total_queue: float


def compare_models(
    path_set: PathSet,
    params: CostParams | None = None,
    options: SolverOptions | None = None,
    variants: tuple[str, ...] = VARIANTS,
) -> list[ComparisonRow]:
    """Solve the same scenario under several model variants."""
    options = options or SolverOptions()
    rows = []
    for variant in variants:
        state, report = solve(path_set, params, replace(options, variant=variant))
        rows.append(
            ComparisonRow(
                variant=variant,
                state=state,
                report=report,
                total_generalized_cost=state.total_cost(),
                total_queue=float(state.link_queues.sum()),
            )
        )
    return rows


def uniqueness_probe(
    path_set: PathSet,
    params: CostParams | None = None,
    options: SolverOptions | None = None,
    n_starts: int = 8,
    seed: int = 0,
) -> tuple[float, float, list[SolutionState]]:
    """Re-solve from random demand splits and measure solution spread.

    Initial path flows are Dirichlet-random splits of each OD demand.
    Returns (link-flow spread, path-flow spread, states): the max pairwise
    infinity-norm differences.  Link flows should agree across starts;
    path flows need not when paths overlap.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    rng = np.random.default_rng(seed)
    states: list[SolutionState] = []
    for _ in range(n_starts):
        f0 = _random_split(path_set, rng)
        state, _ = solve(path_set, params, options, initial_flows=f0)
        states.append(state)
    # rounding is monotone, so the widest pair is max - min per coordinate
    link_spread = float(np.max(np.ptp([s.link_flows for s in states], axis=0)))
    path_spread = float(np.max(np.ptp([s.path_flows for s in states], axis=0)))
    return link_spread, path_spread, states


def gradient_check(
    path_set: PathSet,
    path_flows: np.ndarray,
    queue_alloc: np.ndarray,
    params: CostParams,
) -> float:
    """Worst relative error |analytic - fd| / |fd|, over all links at one
    state, of the slopes the GP step divides by against central differences:
    `cost._flow_part`'s flow slope under both pricings (generalized and
    marginal time) where v > 0, probed by v +- 1e-4 v, and
    `cost._queue_response_slope`, d(delay)/dy along the steady queue
    Q = (y - C_max)/(1 - gamma), where Q/C >= QUEUE_RATIO_FLOOR, probed by
    moving Q by +-1e-4 Q.  Steps in proportion to v and Q stay within the
    scale on which v**(n-1) and (Q/C)**(m-1) bend.  Scaling t_f by 2**-500
    and beta by 2**500 keeps t_f beta r**n and drops the terms that do not
    move with v, t_f + delay, whose round-off, eps (t_f + delay) / h, would
    bury the slope of a lightly loaded link."""
    _, q, _, v = assemble_link_state(path_set, path_flows, queue_alloc)
    alpha, _, m, _, gamma = arrays = _cost._link_arrays(params)
    qp = _cost._queue_part(q, path_set.t_f, path_set.c_max, *arrays)
    scale = 2.0**-500
    moving = qp._replace(t_f=qp.t_f * scale, beta=qp.beta / scale, delay=np.zeros_like(q))
    h, dq = 1e-4 * v, 1e-4 * q
    analytic, fd = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        for system_optimum in (False, True):
            analytic.append(_cost._flow_part(v, qp, system_optimum)[1])
            above, below = (_cost._flow_part(v + s, moving, system_optimum)[0] for s in (h, -h))
            fd.append((above - below) / (2.0 * h))
        above, below = (
            _cost._queue_part(q + s, path_set.t_f, path_set.c_max, *arrays).delay
            for s in (dq, -dq)
        )
        analytic.append(_cost._queue_response_slope(qp, alpha, m, gamma))
        fd.append((above - below) / (2.0 * dq * (1.0 - gamma)))
        error = np.abs(np.subtract(analytic, fd)) / np.maximum(np.abs(fd), np.finfo(float).tiny)
        probed = np.array([v > 0, v > 0, q / qp.c >= _cost.QUEUE_RATIO_FLOOR])
    return float(error[probed].max(initial=0.0))

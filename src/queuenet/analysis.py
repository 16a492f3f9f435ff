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
    kkt_report,
    solve,
)
from .cost import CostParams, merit, merit_gradient

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


#: the least slope an error is measured against, in units of eps |J| / h
FD_RESOLUTION = 1e6


def gradient_check(
    path_set: PathSet,
    path_flows: np.ndarray,
    queue_alloc: np.ndarray,
    params: CostParams,
) -> float:
    """Worst relative error of `cost.merit_gradient` against central finite
    differences of `cost.merit`, at one state.

    `queue_alloc` and grad_q hold one value per path-link entry.  Every
    path flow f is probed by +-h with h = 1e-4 * max(1, |f|), stopping at 0.
    Every queue Q > 0 is probed by +-1e-4 * Q: a fixed step would be a large
    share of a queue below one vehicle, where (Q/C)**(m-1) bends within it.
    An empty queue is not probed.
    The error of one value is |analytic - fd| / max(|fd|, r, 1e-8), where
    r = FD_RESOLUTION eps |J| / h, J the larger of the two merits: the
    difference resolves a slope only to about eps |J| / h, the round-off of
    its two merits, so an error at that level reads about 1e-6.
    """
    n = path_set.n_paths
    state = np.concatenate([path_flows, queue_alloc]).astype(float)
    grad = np.concatenate(merit_gradient(path_set, state[:n], state[n:], params))
    worst = 0.0
    for i, value in enumerate(state):
        h = 1e-4 * (max(1.0, abs(value)) if i < n else value)
        if not h > 0:  # an empty queue
            continue
        plus, minus = state.copy(), state.copy()
        plus[i] += h
        minus[i] = max(value - h, 0.0)
        j_plus, j_minus = (merit(path_set, s[:n], s[n:], params) for s in (plus, minus))
        width = plus[i] - minus[i]
        fd = (j_plus - j_minus) / width
        resolved = FD_RESOLUTION * np.finfo(float).eps * max(abs(j_plus), abs(j_minus))
        worst = max(worst, abs(grad[i] - fd) / max(abs(fd), resolved / (width / 2), 1e-8))
    return worst

"""Parameter and demand sweeps over repeated equilibrium solves."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cost as _cost
from .cost import PARAM_NAMES, CostParams
from .net import PathSet
from .solver import SolverOptions, _min_od_costs, solve

__all__ = [
    "SweepSpec",
    "SweepRow",
    "run_sweep",
    "demand_sweep",
    "trend_check",
    "TrendReport",
]


@dataclass(frozen=True)
class SweepSpec:
    """What to vary: a cost parameter name, or 'demand' (one OD pair)."""

    parameter: str
    values: tuple[float, ...]
    od_index: int = 0  # only used when parameter == 'demand'

    def __post_init__(self) -> None:
        if self.parameter != "demand" and self.parameter not in PARAM_NAMES:
            raise ValueError(f"parameter must be 'demand' or one of {PARAM_NAMES}")
        if not self.values:
            raise ValueError("sweep needs at least one value")
        for value in self.values:  # all checked before the first point is solved
            if self.parameter != "demand":
                CostParams(**{self.parameter: value})
            elif not 0 <= value < np.inf:
                raise ValueError(f"sweep value {value}: demand must be finite and >= 0")


@dataclass
class SweepRow:
    value: float
    converged: bool
    termination: str  # as `ConvergenceReport.termination`
    iterations: int
    link_flows: np.ndarray
    link_queues: np.ndarray
    throughflows: np.ndarray
    link_times: np.ndarray  # generalized: travel time + queuing delay
    queue_delays: np.ndarray
    path_flows: np.ndarray
    path_costs: np.ndarray
    min_od_costs: np.ndarray


def _row(value: float, state, report, path_set: PathSet) -> SweepRow:
    costs = state.path_costs()
    return SweepRow(
        value=float(value),
        converged=report.converged,
        termination=report.termination,
        iterations=report.iterations,
        link_flows=state.link_flows,
        link_queues=state.link_queues,
        throughflows=state.throughflows,
        link_times=state.link_times,
        queue_delays=_cost.queuing_delay(
            state.link_queues, state.c_max, state.params
        ),
        path_flows=state.path_flows,
        path_costs=costs,
        min_od_costs=_min_od_costs(path_set, costs),
    )


def run_sweep(
    path_set: PathSet,
    spec: SweepSpec,
    params: CostParams | None = None,
    options: SolverOptions | None = None,
) -> list[SweepRow]:
    """Solve once per sweep value and collect the solution summaries.
    Every point is checked before the first is solved (`SweepSpec`)."""
    params = params or CostParams()
    options = options or SolverOptions()
    by_demand = spec.parameter == "demand"
    if by_demand and not 0 <= spec.od_index < len(path_set.demand):
        raise ValueError("od_index out of range")
    rows: list[SweepRow] = []
    for value in spec.values:
        point, demands = params, None
        if by_demand:
            demands = path_set.demand.copy()
            demands[spec.od_index] = value
        else:
            point = params.replace(**{spec.parameter: float(value)})
        state, report = solve(path_set, point, options, demands=demands)
        rows.append(_row(value, state, report, path_set))
    return rows


def demand_sweep(
    path_set: PathSet,
    values: Sequence[float],
    od_index: int = 0,
    params: CostParams | None = None,
    options: SolverOptions | None = None,
) -> list[SweepRow]:
    """Sweep one OD pair's demand, holding the others fixed."""
    spec = SweepSpec("demand", tuple(float(v) for v in values), od_index)
    return run_sweep(path_set, spec, params, options)


@dataclass
class TrendReport:
    passed: bool
    violations: list[str]


_DIRECTIONS = ("increasing", "decreasing", "nondecreasing", "nonincreasing", "flat")


def trend_check(
    series: dict[str, Sequence[float]],
    expectations: dict[str, str],
    tolerance: float = 1e-6,
) -> TrendReport:
    """Check named value sequences against declared monotonicity trends.

    `expectations` maps a series name to one of 'increasing', 'decreasing'
    (strict), 'nondecreasing', 'nonincreasing', or 'flat'.
    """
    violations: list[str] = []
    for name, direction in expectations.items():
        if direction not in _DIRECTIONS:
            raise ValueError(f"unknown trend '{direction}' for series '{name}'")
        if name not in series:
            violations.append(f"{name}: series missing")
            continue
        diffs = np.diff(np.asarray(series[name], dtype=float))
        ok = {
            "increasing": bool(np.all(diffs > tolerance)),
            "decreasing": bool(np.all(diffs < -tolerance)),
            "nondecreasing": bool(np.all(diffs >= -tolerance)),
            "nonincreasing": bool(np.all(diffs <= tolerance)),
            "flat": bool(np.all(np.abs(diffs) <= tolerance)),
        }[direction]
        if not ok:
            violations.append(f"{name}: not {direction} (diffs {diffs.round(6)})")
    return TrendReport(passed=not violations, violations=violations)


"""Correctness audit applied to every solve the benchmark times.

A solve passes when it converged and its state is feasible and in
equilibrium: v >= -1e-9, v <= C(Q) + tol, every OD demand conserved, and
criterion 7's thresholds on the relative gap and the complementarity
residual.  Feasibility is checked here from the state's arrays, not taken
from the program's own report.  A fingerprint compares link throughflows
and queues with a reference solution stored from an earlier commit.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from queuenet.analysis import EquilibriumReport
from queuenet.solver import SolutionState

NEGATIVE_FLOW_TOL = 1e-9  # veh/h
CAPACITY_TOL = 1e-6  # veh/h above C(Q) = C_max - gamma * Q
DEMAND_RTOL = 1e-9  # share of the OD demand (at least 1 veh/h)
GAP_MAX = 1e-4  # criterion 7
COMPLEMENTARITY_MAX = 1e-3  # criterion 7
FINGERPRINT_TOL = 1.0  # veh/h, on both throughflows and queues

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def audit(
    state: SolutionState,
    converged: bool,
    eq: EquilibriumReport,
    demands: list[float],
) -> list[str]:
    """Reasons the solve fails the audit; empty when it passes.

    `demands` are the OD demands the benchmark generated, in file order.
    """
    reasons = []
    if not converged:
        reasons.append("not converged")
    v, q = state.throughflows, state.link_queues
    if v.min(initial=0.0) < -NEGATIVE_FLOW_TOL:
        reasons.append(f"negative throughflow {v.min():.3g}")
    c_max = np.array([l.capacity for l in state.path_set.network.links])
    over = float(np.max(v - (c_max - np.asarray(state.params.gamma) * q), initial=0.0))
    if over > CAPACITY_TOL:
        reasons.append(f"throughflow exceeds C(Q) by {over:.3g}")
    served = np.zeros(len(demands))
    np.add.at(served, [p.od_index for p in state.path_set.paths], state.path_flows)
    miss = np.abs(served - np.asarray(demands))
    if np.any(miss > DEMAND_RTOL * np.maximum(1.0, np.asarray(demands))):
        reasons.append(f"demand not conserved (off by {miss.max():.3g})")
    if not eq.relative_gap <= GAP_MAX:
        reasons.append(f"relative gap {eq.relative_gap:.3g} > {GAP_MAX}")
    if not eq.max_complementarity_residual <= COMPLEMENTARITY_MAX:
        reasons.append(
            f"complementarity residual {eq.max_complementarity_residual:.3g}"
            f" > {COMPLEMENTARITY_MAX}"
        )
    return reasons


def load_reference(name: str) -> list[dict] | None:
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["points"]


def reference_point(state: SolutionState, base_link_id: dict[str, str]) -> dict:
    """The state's throughflows and queues keyed by base-instance link id."""
    links = state.path_set.network.links
    return {
        "v": {base_link_id[l.id]: float(x) for l, x in zip(links, state.throughflows)},
        "q": {base_link_id[l.id]: float(x) for l, x in zip(links, state.link_queues)},
    }


def fingerprint(state: SolutionState, base_link_id: dict[str, str], ref: dict) -> tuple[float, float]:
    """max |dv| and max |dQ| against one reference point."""
    got = reference_point(state, base_link_id)
    if got["v"].keys() != ref["v"].keys():
        raise ValueError("reference covers other links than the solution")
    dv = max(abs(x - ref["v"][k]) for k, x in got["v"].items())
    dq = max(abs(x - ref["q"][k]) for k, x in got["q"].items())
    return dv, dq

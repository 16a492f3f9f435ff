"""Shared fixtures: the bundled six-node scenario and its solved states.

Session-scoped so the reference scenario is solved once per test run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from loop_reference import path_link_idx
from queuenet import fixtures
from queuenet.net import PathSet
from queuenet.solver import SolverOptions, solve

# (criterion id, label, passed, detail) tuples collected by the acceptance
# tests and echoed one per line at the end of the run
ACCEPTANCE_RESULTS: list[tuple[str, str, bool, str]] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for cid, label, passed, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(f"criterion {cid}: {status} - {label}{suffix}")


@pytest.fixture(scope="session")
def six_node():
    return fixtures.six_node_path_set()


@pytest.fixture(scope="session")
def base_solution(six_node):
    """Queue-dependent solve of the six-node scenario (default options)."""
    return solve(six_node)


@pytest.fixture(scope="session")
def base_state(base_solution):
    return base_solution[0]


@pytest.fixture(scope="session")
def fixed_capacity_solution(six_node):
    return solve(six_node, options=SolverOptions(variant="fixed_capacity_queue"))


@pytest.fixture(scope="session")
def traditional_solution(six_node):
    return solve(six_node, options=SolverOptions(variant="traditional_ue"))


@pytest.fixture(scope="session")
def scenario_dir(tmp_path_factory):
    """Six-node scenario written as CSV + config files for CLI tests."""
    d = tmp_path_factory.mktemp("scenario")
    fixtures.write_six_node_scenario(d)
    return d


def _grid20_staircase_path_set():
    """The benchmark's grid20_paths path set: a 20x20 grid, staircase paths."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        from workloads import GRID20, GRID_SEED, staircase_paths
    finally:
        sys.path.pop(0)
    network = fixtures.grid_network(GRID20.size, GRID20.n_od, GRID20.demand, GRID_SEED)
    return PathSet(network, staircase_paths(network))


def per_entry(path_set, qa):
    """Per-entry queues from an (n_links, n_paths) array of Q_ap."""
    return qa[path_set.entry_link, path_set.entry_path]


def feasible_random_state(path_set, rng, hold=0.4):
    """Random feasible (path flows, per-entry queues): each path holds back
    a random share, at most `hold`, of its flow, split across its links."""
    f = np.zeros(path_set.n_paths)
    for i, group in enumerate(path_set.od_groups):
        if len(group) == 0:
            continue
        f[group] = rng.dirichlet(np.ones(len(group))) * path_set.network.od_pairs[i].demand
    queue_alloc = np.zeros((path_set.n_links, path_set.n_paths))
    for j, idx in enumerate(path_link_idx(path_set)):
        total = hold * f[j] * rng.uniform(0.0, 1.0)
        if len(idx) and total > 0:
            share = rng.dirichlet(np.ones(len(idx)))
            queue_alloc[idx, j] = total * share
    return f, per_entry(path_set, queue_alloc)

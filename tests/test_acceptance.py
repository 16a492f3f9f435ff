"""Acceptance suite: end-to-end behavioral contract of the package.

Each criterion prints one PASS/FAIL line (collected into the terminal
summary) and asserts.  Criteria are evaluated faithfully at their stated
tolerances; a failing criterion is a real finding, not a flaky test.
"""

import time

import numpy as np
import pytest
from scipy.optimize import brentq

import conftest
from queuenet import fixtures
from queuenet.analysis import gradient_check, kkt_report, uniqueness_probe
from queuenet.cost import (
    CostParams,
    capacity,
    gamma_of_flow,
    queuing_delay,
    smoothed_link_time,
)
from queuenet.net import ODPair, enumerate_paths
from queuenet.solver import SolverOptions, solve
from queuenet.sweep import SweepSpec, demand_sweep, run_sweep


class Checker:
    """Collects named failures so one criterion reports a single line."""

    def __init__(self, cid: str, label: str):
        self.cid = cid
        self.label = label
        self.failures: list[str] = []

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    def close(self, v, expected, tol, name: str) -> None:
        v = float(v)
        self.check(abs(v - expected) <= tol, f"{name}={v:.6g} not {expected}+-{tol}")

    def finish(self, detail: str = "") -> None:
        passed = not self.failures
        conftest.ACCEPTANCE_RESULTS.append((self.cid, self.label, passed, detail))
        status = "PASS" if passed else "FAIL"
        print(f"criterion {self.cid}: {status} - {self.label}")
        assert passed, f"criterion {self.cid}: " + "; ".join(self.failures)


@pytest.fixture(scope="module")
def lidx(six_node):
    return {l.id: six_node.link_index(l.id) for l in six_node.network.links}


def test_criterion_01_reference_solution(six_node, lidx):
    c = Checker("1", "six-node queue-dependent solution matches reference values")
    t0 = time.perf_counter()
    state, report = solve(six_node)
    elapsed = time.perf_counter() - t0
    c.check(report.converged, "did not converge")
    c.check(elapsed < 5.0, f"solve took {elapsed:.2f}s (budget 5s)")
    v, q, t = state.throughflows, state.link_queues, state.link_times
    caps = capacity(q, state.c_max, state.params)
    delays = queuing_delay(q, state.c_max, state.params)
    i4 = lidx["4"]
    c.close(v[i4], 2350.0, 5.0, "link4 flow")
    c.close(caps[i4], 2350.0, 5.0, "link4 capacity")
    c.close(q[i4], 100.0, 2.0, "link4 queue")
    c.close(delays[i4], 0.021, 0.002, "link4 delay")
    c.close(t[i4], 0.272, 0.003, "link4 generalized cost")
    for lid in ("3", "5"):
        c.close(v[lidx[lid]], 1225.0, 10.0, f"link{lid} flow")
        c.close(t[lidx[lid]], 0.185, 0.002, f"link{lid} time")
    for lid in ("1", "2"):
        c.close(v[lidx[lid]], 1775.0, 10.0, f"link{lid} flow")
        c.close(t[lidx[lid]], 0.614, 0.003, f"link{lid} time")
    for lid in ("6", "7"):
        c.close(v[lidx[lid]], 1175.0, 10.0, f"link{lid} flow")
    c.finish(f"{report.iterations} iterations, {elapsed:.2f}s")


def test_criterion_02_fixed_capacity_variant(six_node, lidx, fixed_capacity_solution, base_state):
    c = Checker("2", "fixed-capacity variant holds the bottleneck at its physical cap")
    state, report = fixed_capacity_solution
    c.check(report.converged, "did not converge")
    i4 = lidx["4"]
    c.close(state.throughflows[i4], 2400.0, 5.0, "link4 flow")
    c.check(state.link_queues[i4] > 0.0, "no queue on the bottleneck")
    c.check(
        base_state.throughflows[i4] <= state.throughflows[i4] + 1e-6,
        "queue-dependent flow should not exceed fixed-capacity flow",
    )
    c.finish(f"flow {state.throughflows[i4]:.1f}, queue {state.link_queues[i4]:.1f}")


def test_criterion_03_m_sensitivity(six_node, lidx):
    c = Checker("3", "delay-exponent sweep matches reference table with monotone trends")
    reference = [
        (0.5, 2395.0, 9.0),
        (1.0, 2350.0, 99.0),
        (2.0, 2276.0, 247.0),
        (3.0, 2253.0, 295.0),
        (4.0, 2248.0, 304.0),
        (5.0, 2247.0, 306.0),
        (6.0, 2247.0, 306.0),
    ]
    rows = run_sweep(six_node, SweepSpec("m", tuple(m for m, _, _ in reference)))
    i4 = lidx["4"]
    flows, queues = [], []
    for row, (m, flow, queue) in zip(rows, reference):
        c.check(row.converged, f"m={m} did not converge")
        c.check(
            abs(row.throughflows[i4] - flow) <= 0.01 * flow,
            f"m={m} flow {row.throughflows[i4]:.1f} not {flow}+-1%",
        )
        c.check(
            abs(row.link_queues[i4] - queue) <= 5.0,
            f"m={m} queue {row.link_queues[i4]:.1f} not {queue}+-5",
        )
        flows.append(row.throughflows[i4])
        queues.append(row.link_queues[i4])
    c.check(np.all(np.diff(flows) <= 0.5), "flow not non-increasing in m")
    c.check(np.all(np.diff(queues) >= -0.5), "queue not non-decreasing in m")
    c.finish("7 rows")


def test_criterion_04_n_sensitivity(six_node, lidx):
    c = Checker("4", "running-time-exponent sweep matches reference table")
    reference = [
        (0.5, 2244.0, 0.0),
        (1.0, 2309.0, 0.0),
        (2.0, 2390.0, 0.0),
        (3.0, 2372.0, 57.0),
        (4.0, 2350.0, 99.0),
        (5.0, 2338.0, 124.0),
        (6.0, 2332.0, 137.0),
        (7.0, 2328.0, 143.0),
        (8.0, 2327.0, 145.0),
    ]
    rows = run_sweep(six_node, SweepSpec("n", tuple(n for n, _, _ in reference)))
    i4 = lidx["4"]
    for row, (n, flow, queue) in zip(rows, reference):
        c.check(row.converged, f"n={n} did not converge")
        c.check(
            abs(row.throughflows[i4] - flow) <= 0.01 * flow,
            f"n={n} flow {row.throughflows[i4]:.1f} not {flow}+-1%",
        )
        if n <= 2.0:
            c.check(row.link_queues[i4] == 0.0, f"n={n} queue should be exactly 0")
        else:
            c.check(
                abs(row.link_queues[i4] - queue) <= 5.0,
                f"n={n} queue {row.link_queues[i4]:.1f} not {queue}+-5",
            )
    c.finish("9 rows")


def test_criterion_05_capacity_response_trends(six_node, lidx):
    c = Checker("5", "capacity-loss-rate sweep: flow falls, queue and delay grow")
    gammas = (0.0, 0.2, 0.5, 0.7, 0.9)
    rows = run_sweep(six_node, SweepSpec("gamma", gammas))
    i4 = lidx["4"]
    c.check(all(r.converged for r in rows), "not all points converged")
    c.check(rows[0].link_queues[i4] > 0.0, "demand too low to congest the bottleneck")
    flows = np.array([r.throughflows[i4] for r in rows])
    queues = np.array([r.link_queues[i4] for r in rows])
    delays = np.array([r.queue_delays[i4] for r in rows])
    c.check(np.all(np.diff(flows) < 0), f"flow not strictly decreasing: {flows.round(1)}")
    c.check(np.all(np.diff(queues) > 0), f"queue not strictly increasing: {queues.round(1)}")
    c.check(np.all(np.diff(delays) > 0), f"delay not strictly increasing: {delays.round(4)}")
    c.close(flows[0], 2400.0, 1.0, "rigid-capacity bottleneck flow")
    c.finish(f"flows {flows.round(0)}")


def test_criterion_06_demand_sweep_phenomenology(six_node, lidx):
    c = Checker("6", "single-OD demand sweep: capacity-capped flows, migrating queues")
    net = six_node.network
    net0 = net.with_demands(
        [ODPair("1", "3", 3000.0), ODPair("2", "4", 0.0)]
    )
    ps = fixtures.six_node_path_set(net0)
    values = np.arange(1000.0, 6001.0, 250.0)
    rows = demand_sweep(ps, values, od_index=0)
    c.check(all(r.converged for r in rows), "not all points converged")

    c_max = np.array([l.capacity for l in net.links])
    n_links = len(net.links)
    queued = np.array([[r.link_queues[i] > 1e-6 for i in range(n_links)] for r in rows])
    v = np.array([[r.throughflows[i] for i in range(n_links)] for r in rows])
    patterns = [tuple(row) for row in queued]

    for i in range(n_links):
        if not queued[:, i].any():
            continue
        lid = net.links[i].id
        onset = int(np.argmax(queued[:, i]))
        # demand growth loads the link monotonically until it first queues
        c.check(
            np.all(np.diff(v[:onset, i]) >= -1e-6),
            f"link {lid} flow not monotone before queue onset",
        )
        # a queued link never discharges above its physical capacity
        c.check(
            np.all(v[queued[:, i], i] <= c_max[i] + 1e-6),
            f"link {lid} exceeds physical capacity while queued",
        )
        # and its flow keeps falling as demand grows, as long as the set of
        # congested links stays the same (a regime switch re-routes flow)
        for k in range(onset + 1, len(rows)):
            if queued[k, i] and queued[k - 1, i] and patterns[k] == patterns[k - 1]:
                c.check(
                    v[k, i] <= v[k - 1, i] + 1e-6,
                    f"link {lid} flow rose within a fixed congestion pattern "
                    f"at demand {values[k]:.0f}",
                )

    # the mid-corridor bottleneck queues first; once the upstream entry
    # link starts queuing it starves the corridor and the downstream
    # queue recedes
    q6 = np.array([r.link_queues[lidx['6']] for r in rows])
    q3 = np.array([r.link_queues[lidx['3']] for r in rows])
    c.check(q6.max() > 0, "downstream bottleneck never queued")
    onset3 = int(np.argmax(q3 > 1e-6)) if (q3 > 1e-6).any() else None
    c.check(onset3 is not None, "upstream link never queued")
    if onset3 is not None:
        c.check(
            q6[onset3:].min() < q6.max() - 1.0,
            "downstream queue did not recede after upstream queuing began",
        )
    c.finish(f"queue onset at demand {values[int(np.argmax(queued.any(axis=1)))]:.0f}")


def _equilibrium_quality(c, path_set, state, tag, spread_tol=0.002):
    report = kkt_report(state)
    c.check(report.relative_gap <= 1e-4, f"{tag}: gap {report.relative_gap:.2e} > 1e-4")
    c.check(
        report.max_complementarity_residual <= 1e-3,
        f"{tag}: complementarity residual {report.max_complementarity_residual:.2e}",
    )
    costs = state.path_costs()
    for i, group in enumerate(path_set.od_groups):
        demand = path_set.network.od_pairs[i].demand
        got = float(state.path_flows[group].sum()) if len(group) else 0.0
        c.check(
            abs(got - demand) <= 1e-9 * max(1.0, demand),
            f"{tag}: OD {i} demand residual {abs(got - demand):.2e}",
        )
        used = group[state.path_flows[group] > 1e-6]
        if len(used):
            spread = float(costs[used].max() - costs[used].min())
            c.check(
                spread <= spread_tol,
                f"{tag}: OD {i} used-path cost spread {spread:.4f} > {spread_tol}",
            )
    return report


def test_criterion_07_equilibrium_quality(six_node, base_state):
    c = Checker("7", "converged solves satisfy equilibrium conditions")
    report = _equilibrium_quality(c, six_node, base_state, "six-node")
    c.check(
        np.allclose(report.min_od_costs, 0.614, atol=0.003),
        f"OD costs {report.min_od_costs} not uniformly 0.614+-0.003",
    )
    c.finish(f"gap {report.relative_gap:.1e}")


def test_criterion_08_capacity_arithmetic():
    c = Checker("8", "queue/capacity/delay arithmetic at the worked operating point")
    p = CostParams()
    c_max = 600.0
    c.close(capacity(54.0, c_max, p), 573.0, 0.5, "capacity at queue 54")
    c.close(gamma_of_flow(573.0, c_max, p), 54.0, 0.5, "queue at flow 573")
    c.close(queuing_delay(54.0, c_max, p), 0.047, 0.001, "delay at queue 54")
    c.finish()


def test_criterion_09a_gradient_check(six_node):
    c = Checker("9a", "the GP step's slopes match central finite differences")
    params = CostParams().for_links(six_node.network.links)
    rng = np.random.default_rng(2024)

    # every link's flow slope under both pricings, and its queue-response
    # slope where it queues, at each random state
    worst = 0.0
    for _ in range(100):
        f, qa = conftest.feasible_random_state(six_node, rng)
        worst = max(worst, gradient_check(six_node, f, qa, params))
    c.check(worst <= 1e-5, f"worst relative error {worst:.2e} > 1e-5")
    c.finish(f"100 points, worst {worst:.1e}")


def test_criterion_09b_descent(six_node):
    c = Checker("9b", "merit non-increasing across every smoothed-mode half-step")
    _, report = solve(
        six_node, options=SolverOptions(queue_mode="smoothed_gradient"), history=True
    )
    c.check(len(report.history) == report.iterations, "no history row per iteration")
    prev_full = np.inf
    for it, j_half, j_full, *_ in report.history:
        c.check(j_half <= prev_full + 1e-9, f"flow half-step raised J at iteration {it}")
        c.check(j_full <= j_half + 1e-9, f"queue half-step raised J at iteration {it}")
        prev_full = j_full
    c.finish(f"{report.iterations} iterations")


def test_criterion_09c_mode_agreement(six_node, base_state):
    c = Checker("9c", "both queue-update modes find the same link flows and queues")
    state_s, report_s = solve(
        six_node, options=SolverOptions(queue_mode="smoothed_gradient")
    )
    c.check(report_s.converged, "smoothed mode did not converge")
    dv = float(np.max(np.abs(state_s.throughflows - base_state.throughflows)))
    dq = float(np.max(np.abs(state_s.link_queues - base_state.link_queues)))
    c.check(dv <= 1.0, f"throughflow disagreement {dv:.1f} veh/hr > 1")
    c.check(dq <= 1.0, f"queue disagreement {dq:.1f} veh/hr > 1")
    c.finish(f"dv {dv:.1f}, dq {dq:.1f}")


def test_criterion_09d_multistart_uniqueness(six_node):
    c = Checker("9d", "random restarts agree on link flows and queues")
    link_spread, _, states = uniqueness_probe(six_node, n_starts=10, seed=0)
    patterns = {
        tuple(np.flatnonzero(s.link_queues > 1e-6).tolist()) for s in states
    }
    c.check(len(patterns) == 1, f"congested-link sets differ: {patterns}")
    worst_v = worst_q = 0.0
    for s in states[1:]:
        worst_v = max(worst_v, float(np.max(np.abs(s.throughflows - states[0].throughflows))))
        worst_q = max(worst_q, float(np.max(np.abs(s.link_queues - states[0].link_queues))))
    c.check(worst_v <= 1.0, f"throughflow spread {worst_v:.2f} > 1 veh/hr")
    c.check(worst_q <= 1.0, f"queue spread {worst_q:.2f} > 1 veh/hr")
    c.finish(f"10 starts, spread {max(worst_v, worst_q):.1e}")


def test_criterion_09e_uncongested_reduction():
    c = Checker("9e", "queue-free solve equals the classical fixed-capacity equilibrium")
    net = fixtures.two_route_network(demand=2000.0)
    # slow down and widen one route to break the symmetry
    links = []
    for l in net.links:
        if l.id in ("l1", "l2"):
            links.append(type(l)(l.id, l.tail, l.head, 0.15, 2400.0))
        else:
            links.append(l)
    from queuenet.net import Network

    net = Network(net.nodes, tuple(links), net.od_pairs)
    ps = enumerate_paths(net, k=2)
    state, report = solve(ps)
    c.check(report.converged, "did not converge")
    c.check(np.all(state.link_queues == 0.0), "queues formed below capacity")

    def diff(v1):
        t1 = 2 * 0.125 * (1.0 + 0.5 * (v1 / 1800.0) ** 4)
        t2 = 2 * 0.15 * (1.0 + 0.5 * ((2000.0 - v1) / 2400.0) ** 4)
        return t1 - t2

    v1_ref = brentq(diff, 0.0, 2000.0, xtol=1e-10)
    c.check(
        abs(state.path_flows[0] - v1_ref) <= 1e-3,
        f"split {state.path_flows[0]:.4f} vs reference {v1_ref:.4f}",
    )
    c.finish(f"reference split {v1_ref:.1f}")


def test_criterion_09f_smoothing_base_localized(six_node, base_state):
    c = Checker("9f", "exponent smoothing only acts on congested links")
    t_f = np.array([l.free_flow_time for l in six_node.network.links])
    v, q = base_state.throughflows, base_state.link_queues
    p = CostParams().for_links(six_node.network.links)
    t_smooth_e = smoothed_link_time(v, q, t_f, base_state.c_max, p)
    t_smooth_1 = smoothed_link_time(v, q, t_f, base_state.c_max, p, phi=1.0)
    diff = np.abs(t_smooth_e - t_smooth_1)
    congested = q > 1e-6
    c.check(np.all(diff[~congested] == 0.0), "smoothing changed an uncongested link")
    c.check(np.any(diff[congested] > 0.0), "smoothing inert on the congested link")
    c.finish()


def test_criterion_10_scale_sanity():
    c = Checker("10", "synthetic grid converges within budget with clean equilibrium")
    network = fixtures.grid_network()
    path_set = enumerate_paths(network, k=3)
    c.check(len(network.nodes) == 225, "grid should have 225 nodes")
    c.check(len(network.links) == 840, "grid should have 840 links")
    c.check(len(network.od_pairs) == 50, "grid should have 50 OD pairs")
    t0 = time.perf_counter()
    state, report = solve(path_set)
    elapsed = time.perf_counter() - t0
    c.check(report.converged, f"not converged after {report.iterations} iterations")
    c.check(report.iterations <= 2000, f"{report.iterations} iterations > 2000")
    # the counts are the same on every host; 1,697 passes when every OD
    # group's step with a negative dot on its last one was damped
    c.check(report.iterations == 209, f"{report.iterations} iterations, not 209")
    c.check(report.inner_passes <= 1100, f"{report.inner_passes} GP passes > 1100")
    c.check(elapsed < 120.0, f"solve took {elapsed:.0f}s (budget 120s)")
    c.check(np.any(state.link_queues > 1e-6), "scenario should force residual queues")
    _equilibrium_quality(c, path_set, state, "grid")
    c.finish(f"{report.iterations} iterations, {elapsed:.1f}s")

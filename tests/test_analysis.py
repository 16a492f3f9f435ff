"""Equilibrium audits, model comparison, and uniqueness probing."""

import numpy as np
import pytest

from conftest import per_entry
from queuenet import fixtures
from queuenet.analysis import (
    compare_models,
    kkt_report,
    uniqueness_probe,
)
from queuenet.cost import CostParams, link_travel_time
from queuenet.net import enumerate_paths
from queuenet.solver import (
    CAPACITY_RTOL,
    GAP_TOL,
    VARIANTS,
    SolutionState,
    SolverOptions,
    assemble_link_state,
    solve,
)


class TestKKTReport:
    def test_base_solution_is_equilibrium(self, base_state):
        report = kkt_report(base_state)
        assert report.relative_gap <= 1e-4
        assert report.max_complementarity_residual <= 1e-3
        assert report.max_capacity_residual <= 1e-6
        assert report.congested_links == ("4",)

    def test_congested_links_on_a_grid(self):
        # several queued links, listed in network order
        state, _ = solve(enumerate_paths(fixtures.grid_network(8, 12, 1200.0), 3))
        per_link = tuple(
            link.id
            for link, q in zip(state.path_set.network.links, state.link_queues)
            if q > 1e-6 * link.capacity
        )
        assert kkt_report(state).congested_links == per_link
        assert per_link == ("l38", "l42", "l139", "l183")

    def test_min_od_costs(self, base_state):
        report = kkt_report(base_state)
        assert report.min_od_costs == pytest.approx([0.614, 0.614], abs=3e-3)

    def test_used_path_cost_spread(self, six_node, base_state):
        costs = base_state.path_costs()
        for group in six_node.od_groups:
            used = group[base_state.path_flows[group] > 1e-6]
            assert costs[used].max() - costs[used].min() <= 0.002

    def test_unbalanced_state_has_positive_gap(self, six_node):
        f = np.array([3000.0, 0.0, 3000.0, 0.0])
        qa = per_entry(six_node, np.zeros((7, 4)))
        x, q, q_prime, v = assemble_link_state(six_node, f, qa)
        params = CostParams().for_links(six_node.network.links)
        t_f = np.array([l.free_flow_time for l in six_node.network.links])
        c_max = np.array([l.capacity for l in six_node.network.links])
        state = SolutionState(
            path_set=six_node,
            params=params,
            variant="queue_dependent",
            path_flows=f,
            queue_alloc=qa,
            link_flows=x,
            link_queues=q,
            upstream_queues=q_prime,
            throughflows=v,
            link_times=link_travel_time(v, q, t_f, c_max, params),
        )
        report = kkt_report(state)
        assert report.relative_gap > 0.01

    @pytest.mark.parametrize("mode", ["fixed_point", "smoothed_gradient"])
    def test_system_optimum_gap_prices_marginal_times(self, six_node, mode):
        # the system optimum equalizes marginal, not generalized, path costs:
        # a converged solve's audit and last history row say so
        state, report = solve(
            six_node,
            options=SolverOptions(queue_mode=mode, variant="system_optimum"),
            history=True,
        )
        assert report.converged
        assert kkt_report(state).relative_gap <= GAP_TOL
        assert report.history[-1][5] <= GAP_TOL

    @pytest.mark.parametrize("mode", ["fixed_point", "smoothed_gradient"])
    @pytest.mark.parametrize("case", [*VARIANTS, "cyclic_grid10_40_900"])
    def test_verdict_is_the_audit(self, six_node, case, mode):
        # solve's verdict is kkt_report of the state it returns: converged
        # means the audit's gap is within GAP_TOL, and a queue-carrying
        # solve is infeasible exactly when the audit finds a link above
        # C(Q).  The cyclic grid still has a link above C(Q) after 30
        # iterations and ends infeasible; the six-node solves converge
        if case in VARIANTS:
            path_set, options = six_node, SolverOptions(queue_mode=mode, variant=case)
        else:
            path_set = enumerate_paths(fixtures.grid_network(10, 40, 900.0), 3)
            options = SolverOptions(queue_mode=mode, max_outer_iterations=30)
        state, report = solve(path_set, options=options)
        eq = kkt_report(state)
        assert report.termination == ("tolerance" if case in VARIANTS else "infeasible")
        if report.converged:
            assert eq.relative_gap <= GAP_TOL
        if options.variant != "traditional_ue":
            overloaded = bool(np.any(eq.capacity_residuals > CAPACITY_RTOL * state.c_max))
            assert (report.termination == "infeasible") == overloaded

    def test_path_cost_accessor(self, six_node, base_state):
        idx = [six_node.link_index(lid) for lid in six_node.paths[1].links]
        assert base_state.path_costs()[1] == pytest.approx(
            float(base_state.link_times[idx].sum())
        )


@pytest.fixture(scope="module")
def rows(six_node):
    return {r.variant: r for r in compare_models(six_node)}


class TestCompareModels:
    def test_all_variants_present(self, rows):
        assert set(rows) == {
            "traditional_ue",
            "fixed_capacity_queue",
            "queue_dependent",
            "system_optimum",
        }

    def test_bottleneck_throughflow_ordering(self, six_node, rows):
        i4 = six_node.link_index("4")
        v_q = rows["queue_dependent"].state.throughflows[i4]
        v_fixed = rows["fixed_capacity_queue"].state.throughflows[i4]
        v_ue = rows["traditional_ue"].state.throughflows[i4]
        assert v_q <= v_fixed + 1e-6 <= v_ue + 2e-6
        assert v_q == pytest.approx(2350.0, abs=5.0)
        assert v_fixed == pytest.approx(2400.0, abs=5.0)

    def test_total_cost_is_the_state_total(self, rows):
        # the total the CLI's summary.txt reports: sum_a (v_a + Q_a) t_a
        for row in rows.values():
            assert row.total_generalized_cost == row.state.total_cost()
            st = row.state
            assert st.total_cost() == pytest.approx(
                float((st.throughflows + st.link_queues) @ st.link_times)
            )

    def test_traditional_has_no_queue(self, rows):
        assert rows["traditional_ue"].total_queue == 0.0

    def test_system_optimum_cheapest_in_marginal_terms(self, rows):
        # SO concentrates queueing to protect total cost; it should not
        # beat UE in total generalized cost by the UE's own metric ordering,
        # but its bottleneck queue is the largest of the variants
        assert (
            rows["system_optimum"].total_queue
            >= rows["queue_dependent"].total_queue
        )


class TestUniqueness:
    def test_six_node_multi_start(self, six_node):
        link_spread, path_spread, states = uniqueness_probe(
            six_node, n_starts=10, seed=0
        )
        assert link_spread <= 1.0
        # v and Q agreement across starts
        for s in states[1:]:
            assert np.max(np.abs(s.throughflows - states[0].throughflows)) <= 1.0
            assert np.max(np.abs(s.link_queues - states[0].link_queues)) <= 1.0

    def test_overlapping_paths_nonunique_path_flows(self):
        ps = fixtures.shared_corridor_path_set()
        link_spread, path_spread, _ = uniqueness_probe(ps, n_starts=6, seed=3)
        assert link_spread <= 1.0
        assert path_spread > 100.0  # genuinely different path splits

    def test_probe_needs_a_start(self, six_node):
        with pytest.raises(ValueError, match="n_starts"):
            uniqueness_probe(six_node, n_starts=0)

    def test_probe_deterministic(self, six_node):
        a = uniqueness_probe(six_node, n_starts=3, seed=5)
        b = uniqueness_probe(six_node, n_starts=3, seed=5)
        assert a[0] == b[0] and a[1] == b[1]

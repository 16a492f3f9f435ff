"""Equilibrium solver: state assembly, flow passes, variants, convergence."""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import _grid20_staircase_path_set, feasible_random_state, per_entry
from loop_reference import incidence
from queuenet import cost as _cost
from queuenet import fixtures, solver
from queuenet.analysis import kkt_report
from queuenet.cost import CostParams, link_travel_time, marginal_link_time
from queuenet.net import Link, Network, Node, ODPair, PathSet, enumerate_paths
from queuenet.solver import (
    QUEUE_CAP_FRACTION,
    SolverOptions,
    VARIANTS,
    _accept_or_halve,
    _aon_initial_flows,
    _apply_variant,
    _frozen_queues,
    _gp_flow_pass,
    _group_levels,
    _project_queues,
    assemble_link_state,
    solve,
)


class TestAssembleLinkState:
    def test_reference_split_arithmetic(self, six_node):
        # holding 50 vehicles per queued path on the shared bottleneck:
        # its throughflow loses the full queue, the exit links lose their
        # upstream share
        f = np.array([1775.0, 1225.0, 1775.0, 1225.0])
        qa = np.zeros((7, 4))
        i4 = six_node.link_index("4")
        qa[i4, 1] = 50.0
        qa[i4, 3] = 50.0
        x, q, q_prime, v = assemble_link_state(six_node, f, per_entry(six_node, qa))
        assert v[i4] == pytest.approx(2450.0 - 100.0)
        assert v[six_node.link_index("3")] == pytest.approx(1225.0)
        assert v[six_node.link_index("6")] == pytest.approx(1225.0 - 50.0)
        assert q_prime[six_node.link_index("6")] == pytest.approx(50.0)
        assert q[i4] == pytest.approx(100.0)

    def test_zero_queue_throughflow_is_flow(self, six_node):
        f = np.array([1500.0, 1500.0, 1500.0, 1500.0])
        x, q, q_prime, v = assemble_link_state(six_node, f, per_entry(six_node, np.zeros((7, 4))))
        assert np.allclose(v, x)
        assert np.all(q == 0) and np.all(q_prime == 0)

    def test_first_link_queue_shades_all_downstream(self, six_node):
        f = np.array([1500.0, 1500.0, 1500.0, 1500.0])
        qa = np.zeros((7, 4))
        qa[six_node.link_index("3"), 1] = 40.0  # first link of path 3-4-6
        _, _, q_prime, v = assemble_link_state(six_node, f, per_entry(six_node, qa))
        for lid in ("4", "6"):
            assert q_prime[six_node.link_index(lid)] == pytest.approx(40.0)
        assert v[six_node.link_index("4")] == pytest.approx(3000.0 - 40.0)

    def test_negative_throughflow_rejected(self, six_node):
        f = np.array([1500.0, 10.0, 1500.0, 1500.0])
        qa = np.zeros((7, 4))
        qa[six_node.link_index("3"), 1] = 500.0  # exceeds the path's flow
        with pytest.raises(ValueError, match="throughflow"):
            assemble_link_state(six_node, f, per_entry(six_node, qa))


def _arrays_held(obj):
    for value in vars(obj).values():
        if isinstance(value, (list, tuple)):
            yield from (v for v in value if isinstance(v, np.ndarray))
        elif isinstance(value, np.ndarray):
            yield value


def test_no_array_outgrows_the_entries():
    # per-(link, path) data lives on the path-link entries: nothing the path
    # set or a solved state holds is n_links x n_paths
    ps = _grid20_staircase_path_set()
    state, _ = solve(ps)
    n_entries = len(ps.entry_link)
    held = [*_arrays_held(ps), *_arrays_held(state), *_arrays_held(state.params)]
    assert max(a.size for a in held) <= max(n_entries, ps.n_links, ps.n_paths)
    assert state.queue_alloc.shape == (n_entries,)


def _frozen_queue_split_oracle(six_node, q4_per_path):
    """Grid-search the per-OD split that equalizes path costs at fixed Q."""
    net = six_node.network
    t_f = np.array([l.free_flow_time for l in net.links])
    c_max = np.array([l.capacity for l in net.links])
    params = CostParams().for_links(net.links)
    i4 = six_node.link_index("4")
    inc = incidence(six_node)

    def spread(direct_flow):
        f = np.array(
            [direct_flow, 3000.0 - direct_flow, direct_flow, 3000.0 - direct_flow]
        )
        qa = np.zeros((7, 4))
        qa[i4, 1] = q4_per_path
        qa[i4, 3] = q4_per_path
        _, q, _, v = assemble_link_state(six_node, f, per_entry(six_node, qa))
        t = link_travel_time(v, q, t_f, c_max, params)
        costs = inc.T @ t
        return costs[0] - costs[1]

    grid = np.linspace(1000.0, 2500.0, 15001)
    vals = np.array([spread(g) for g in grid])
    return grid[np.argmin(np.abs(vals))]


class TestFlowPass:
    def test_frozen_queue_equilibrium_matches_grid_search(self, six_node):
        params = CostParams().for_links(six_node.network.links)
        levels = _group_levels(six_node)
        options = SolverOptions()
        qa = np.zeros((7, 4))
        i4 = six_node.link_index("4")
        qa[i4, 1] = 50.0
        qa[i4, 3] = 50.0
        qa = per_entry(six_node, qa)
        f = np.array([3000.0, 0.0, 3000.0, 0.0])
        for _ in range(200):
            # the 50 veh held on paths 1 and 3 fit once flow moves onto them
            frozen = _frozen_queues(six_node, _project_queues(six_node, f, qa), levels, params)
            f_new = _gp_flow_pass(six_node, f, frozen, levels, options)
            if np.max(np.abs(f_new - f)) < 1e-6:
                f = f_new
                break
            f = f_new
        oracle = _frozen_queue_split_oracle(six_node, 50.0)
        assert oracle == pytest.approx(1775.0, abs=2.0)
        assert f[0] == pytest.approx(oracle, abs=5.0)
        assert f[2] == pytest.approx(oracle, abs=5.0)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_pass_never_widens_priced_cost_spread(self, six_node, variant):
        """Each OD pair's step is a Newton step on the cost it prices paths
        by: the generalized time, or the marginal time for the system
        optimum.  With queues frozen, no pass may widen the largest spread
        of that cost over an OD pair's used paths.  (One pair's step can
        widen another's spread through a shared link, as link 4 is here.)"""
        net = six_node.network
        t_f = np.array([l.free_flow_time for l in net.links])
        c_max = np.array([l.capacity for l in net.links])
        params = _apply_variant(CostParams().for_links(net.links), variant)
        levels = _group_levels(six_node)
        options = SolverOptions(variant=variant)
        priced = marginal_link_time if variant == "system_optimum" else link_travel_time

        def spread(f, qa):
            _, q, _, v = assemble_link_state(six_node, f, qa)
            costs = incidence(six_node).T @ priced(v, q, t_f, c_max, params)
            return max(
                costs[g][f[g] > 1e-9].max() - costs[g].min() for g in six_node.od_groups
            )

        starts = (
            _aon_initial_flows(six_node),
            np.full(4, 1500.0),
            np.array([2000.0, 1000.0, 2000.0, 1000.0]),
        )
        i4 = six_node.link_index("4")
        for queued in (0.0, 50.0):
            qa = np.zeros((7, 4))
            qa[i4, [1, 3]] = queued  # the two paths through link 4
            qa = per_entry(six_node, qa)
            for f in starts:
                for _ in range(20):
                    frozen = _project_queues(six_node, f, qa)
                    before = spread(f, frozen)
                    f = _gp_flow_pass(
                        six_node,
                        f,
                        _frozen_queues(six_node, frozen, levels, params),
                        levels,
                        options,
                    )
                    assert spread(f, frozen) <= before + 1e-9

    def test_six_paths_per_od_pair_converge(self):
        # sized as if each moved alone, the costlier paths' shifts overshot
        # on their group's cheapest path, and the fixed-point mode ran into
        # the iteration limit; a group's shifts now share one step
        ps = enumerate_paths(fixtures.grid_network(15, 12, 1100.0), 6)
        state, report = solve(ps, options=SolverOptions(max_outer_iterations=500))
        assert report.termination == "tolerance"
        smoothed, smoothed_report = solve(
            ps, options=SolverOptions(queue_mode="smoothed_gradient")
        )
        assert smoothed_report.termination == "tolerance"
        assert np.max(np.abs(state.throughflows - smoothed.throughflows)) <= 1.0

    def test_start_loads_the_cheapest_free_flow_path(self):
        # the staircase paths of an OD pair tie on free-flow time; the start
        # loads the one `_cheapest` picks, as every other cheapest pick does
        ps = _grid20_staircase_path_set()
        free_flow = solver._path_costs(ps, ps.t_f)
        assert any(len(g) > 1 and np.ptp(free_flow[g]) < 1e-12 for g in ps.od_groups)
        expected = np.zeros(ps.n_paths)
        expected[solver._cheapest(ps, free_flow)] = ps.demand
        assert np.array_equal(_aon_initial_flows(ps), expected)

    def test_group_levels_keep_the_gauss_seidel_order(self):
        # criterion 10's path set (50 OD pairs, 3 paths each), and the same
        # with OD 0 cut to its first path
        full = enumerate_paths(fixtures.grid_network(), k=3)
        first_of_0 = full.od_groups[0][0]
        cut = PathSet(
            full.network,
            [p for j, p in enumerate(full.paths) if p.od_index != 0 or j == first_of_0],
        )
        for ps in (full, cut):
            levels = _group_levels(ps)
            assert len(levels) == 10
            inc = incidence(ps)
            level_of = {}
            for lv, level in enumerate(levels):
                ods = ps.path_od[level.paths[level.starts]]
                np.testing.assert_array_equal(ps.path_od[level.paths], ods[level.group])
                links = [set(ps.od_group_links[i].tolist()) for i in ods]
                # no two groups of one level share a link
                assert sum(map(len, links)) == len(set().union(*links)) == len(level.links)
                np.testing.assert_array_equal(
                    level.member, inc[np.ix_(level.links, level.paths)].T
                )
                level_of.update((int(i), lv) for i in ods)
            # groups with fewer than two paths are in no level
            assert sorted(level_of) == [i for i, g in enumerate(ps.od_groups) if len(g) > 1]
            # every earlier group sharing a link with a group is below it
            for i in level_of:
                for j in level_of:
                    if j < i and np.intersect1d(ps.od_group_links[i], ps.od_group_links[j]).size:
                        assert level_of[j] < level_of[i]
        assert 0 not in level_of

    @pytest.mark.parametrize("demand_2_4, n_levels", [(0.0, 1), (3000.0, 2)])
    def test_zero_demand_group_is_in_no_level(self, six_node, demand_2_4, n_levels):
        # OD 2->4 shares link 4 with OD 1->3, so with demand it has a level
        # of its own; at zero demand its paths carry nothing and it has none
        ps = six_node.with_demands([3000.0, demand_2_4])
        levels = _group_levels(ps)
        assert [level.paths.tolist() for level in levels] == [
            group.tolist() for group in ps.od_groups[:n_levels]
        ]

    @pytest.mark.parametrize("mode", ["fixed_point", "smoothed_gradient"])
    def test_zero_demand_group_solves_as_if_absent(self, six_node, mode):
        # OD 2->4 at zero demand, with and without its paths: OD 1->3's
        # solve is the same to the last bit
        without = PathSet(
            six_node.network.with_demands(
                [replace(od, demand=0.0) if i == 1 else od
                 for i, od in enumerate(six_node.network.od_pairs)]
            ),
            [p for p in six_node.paths if p.od_index == 0],
        )
        options = SolverOptions(queue_mode=mode)
        state, report = solve(six_node, options=options, demands=[4000.0, 0.0])
        alone, alone_report = solve(without, options=options, demands=[4000.0, 0.0])
        np.testing.assert_array_equal(state.path_flows[six_node.od_groups[0]], alone.path_flows)
        assert not state.path_flows[six_node.od_groups[1]].any()
        np.testing.assert_array_equal(state.throughflows, alone.throughflows)
        np.testing.assert_array_equal(state.link_queues, alone.link_queues)
        assert state.link_queues.any()
        assert report.iterations == alone_report.iterations
        assert report.inner_passes == alone_report.inner_passes

    @pytest.mark.parametrize("mode", ["fixed_point", "smoothed_gradient"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_queue_part_priced_once_per_set_of_queues(
        self, six_node, variant, mode, monkeypatch
    ):
        # the passes of a flow half-step hold the queues frozen: the
        # fixed-point mode prices their queue part at the start and after
        # every queue sweep but the last, once per outer iteration.  The
        # smoothed mode sweeps the queues in every flow trial, so it prices
        # them on nearly every pass.  Traditional UE carries no queue: its
        # trials keep the queues they are given, so either mode prices them
        # once
        calls = []
        frozen_queues = solver._frozen_queues
        monkeypatch.setattr(
            solver, "_frozen_queues", lambda *a: calls.append(1) or frozen_queues(*a)
        )
        _, report = solve(six_node, options=SolverOptions(queue_mode=mode, variant=variant))
        if variant == "traditional_ue":
            assert len(calls) == 1
        elif mode == "fixed_point":
            assert len(calls) == report.iterations
        else:
            assert report.iterations < len(calls) <= report.inner_passes

    @pytest.mark.parametrize("mode", ["fixed_point", "smoothed_gradient"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_no_pass_leaves_a_path_below_its_queue(self, six_node, variant, mode):
        _assert_passes_keep_held_queues(six_node, queue_mode=mode, variant=variant)

    @given(
        size=st.integers(4, 7),
        k=st.integers(1, 3),
        demand=st.floats(300.0, 2000.0),
        seed=st.integers(0, 3),
        mode=st.sampled_from(["fixed_point", "smoothed_gradient"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_no_pass_leaves_a_grid_path_below_its_queue(self, size, k, demand, seed, mode):
        _assert_passes_keep_held_queues(
            _small_grid_path_set(size, k, demand, seed),
            queue_mode=mode, max_outer_iterations=100,
        )

    def test_a_pass_below_its_held_queue_is_refused(self, six_node, monkeypatch):
        # no flow step repairs the queues: one pass here hands back path 1
        # (3-4-6) 1 veh/h less than it holds, and the next pass, priced on
        # the same queues, refuses the state
        gp_flow_pass = solver._gp_flow_pass
        forced = []

        def short_pass(ps, f, frozen, levels, options):
            g = gp_flow_pass(ps, f, frozen, levels, options)
            if not forced and frozen.held[1] > 1.0:
                moved = g[1] - (frozen.held[1] - 1.0)
                g = g + moved * np.array([1.0, -1.0, 0.0, 0.0])
                forced.append(1)
            return g

        monkeypatch.setattr(solver, "_gp_flow_pass", short_pass)
        with pytest.raises(ValueError, match="infeasible state: negative throughflow"):
            solve(six_node)
        assert forced

    def test_single_path_od_unchanged(self):
        net = Network(
            (Node("u"), Node("v")),
            (Link("a", "u", "v", 0.2, 1000.0),),
            (ODPair("u", "v", 500.0),),
        )
        ps = enumerate_paths(net, k=3)
        state, report = solve(ps)
        assert report.converged
        assert state.path_flows == pytest.approx([500.0])

    def test_symmetric_two_route_even_split(self):
        ps = enumerate_paths(fixtures.two_route_network(demand=2000.0), k=2)
        state, report = solve(ps)
        assert report.converged
        assert state.path_flows == pytest.approx([1000.0, 1000.0], abs=1e-3)
        assert np.all(state.link_queues == 0.0)


def _asymmetric_two_route(demand=2000.0):
    nodes = (Node("o"), Node("a"), Node("b"), Node("d"))
    links = (
        Link("oa", "o", "a", 0.15, 1800.0),
        Link("ad", "a", "d", 0.15, 1800.0),
        Link("ob", "o", "b", 0.17, 2400.0),
        Link("bd", "b", "d", 0.17, 2400.0),
    )
    return Network(nodes, links, (ODPair("o", "d", demand),))


class TestReferenceEquilibrium:
    def test_uncongested_matches_scalar_reference(self):
        # below capacity no queues form, so the equilibrium must match the
        # classical fixed-capacity assignment, solvable here by root
        # finding on the two-route cost difference
        net = _asymmetric_two_route(demand=2000.0)
        ps = enumerate_paths(net, k=2)
        state, report = solve(ps)
        assert report.converged
        assert np.all(state.link_queues == 0.0)

        def diff(v1):
            t1 = 2 * 0.15 * (1.0 + 0.5 * (v1 / 1800.0) ** 4)
            t2 = 2 * 0.17 * (1.0 + 0.5 * ((2000.0 - v1) / 2400.0) ** 4)
            return t1 - t2

        v1_ref = brentq(diff, 0.0, 2000.0, xtol=1e-10)
        assert state.path_flows[0] == pytest.approx(v1_ref, abs=1e-3)

    def test_traditional_variant_agrees_when_uncongested(self):
        ps = enumerate_paths(_asymmetric_two_route(2000.0), k=2)
        s_q, _ = solve(ps)
        s_ue, _ = solve(ps, options=SolverOptions(variant="traditional_ue"))
        assert s_q.link_flows == pytest.approx(s_ue.link_flows, abs=1e-3)


class TestConvergenceContract:
    def test_conservation_every_solution(self, six_node, base_state):
        for i, group in enumerate(six_node.od_groups):
            total = base_state.path_flows[group].sum()
            assert total == pytest.approx(six_node.network.od_pairs[i].demand, abs=1e-9)

    def test_capacity_bound(self, base_state):
        assert np.all(base_state.throughflows <= base_state.c_max + 1e-6)

    def test_queue_cap(self, base_state):
        gamma = np.asarray(base_state.params.gamma)
        cap = QUEUE_CAP_FRACTION * base_state.c_max / np.where(gamma > 0, gamma, 1.0)
        assert np.all(base_state.link_queues <= cap + 1e-9)

    def test_determinism(self, six_node):
        state1, report1 = solve(six_node, history=True)
        state2, report2 = solve(six_node, history=True)
        assert np.array_equal(state1.path_flows, state2.path_flows)
        assert np.array_equal(state1.link_queues, state2.link_queues)
        assert report1.iterations == report2.iterations
        assert len(report1.history) == report1.iterations
        assert report1.history == report2.history

    def test_zero_demand(self, six_node):
        state, report = solve(six_node, demands=[0.0, 0.0])
        assert report.converged
        assert report.iterations == 1
        assert np.all(state.path_flows == 0.0)
        assert _cost.merit(six_node, state.path_flows, state.queue_alloc, state.params) == 0.0

    @pytest.mark.parametrize("value", [2.5, 1e9, "3", True, None])
    def test_max_outer_iterations_must_be_an_integer(self, value):
        # a float passed the >= 1 check and then crashed inside solve, in
        # range(); a string crashed in the check itself with a TypeError
        with pytest.raises(ValueError, match="max_outer_iterations"):
            SolverOptions(max_outer_iterations=value)

    def test_not_converged_flagged(self, six_node):
        _, report = solve(six_node, options=SolverOptions(max_outer_iterations=2))
        assert not report.converged
        assert report.iterations == 2
        assert report.termination == "iteration_limit"

    def test_initial_flows_validation(self, six_node):
        with pytest.raises(ValueError, match="one entry per path"):
            solve(six_node, initial_flows=np.zeros(3))
        with pytest.raises(ValueError, match=">= 0"):
            solve(six_node, initial_flows=np.array([-1.0, 3001.0, 1500.0, 1500.0]))
        with pytest.raises(ValueError, match="conservation"):
            solve(six_node, initial_flows=np.array([1.0, 1.0, 1.0, 1.0]))
        # OD 0 (paths 0, 1) conserves its 3000 veh/h, OD 1 (paths 2, 3) does not
        with pytest.raises(ValueError, match="OD 1"):
            solve(six_node, initial_flows=np.array([1000.0, 2000.0, 1000.0, 1000.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "build",
        [
            *(
                pytest.param(lambda v, k=k: CostParams(**{k: v}), id=f"CostParams.{k}")
                for k in ("alpha", "beta", "m", "n", "gamma")
            ),
            *(
                pytest.param(
                    lambda v, fn=fn: fn(1000.0, 50.0, 0.25, 1800.0, CostParams(), phi=v),
                    id=f"{fn.__name__}.phi",
                )
                for fn in (_cost.smoothed_link_time, _cost.objective)
            ),
            pytest.param(lambda v: Link("a", "u", "v", v, 100.0), id="Link.free_flow_time"),
            pytest.param(lambda v: Link("a", "u", "v", 0.1, v), id="Link.capacity"),
            pytest.param(lambda v: Link("a", "u", "v", 0.1, 100.0, length=v), id="Link.length"),
            pytest.param(
                lambda v: Link("a", "u", "v", 0.1, 100.0, free_speed=v), id="Link.free_speed"
            ),
            pytest.param(lambda v: ODPair("u", "v", v), id="ODPair.demand"),
            pytest.param(
                lambda v: solve(
                    fixtures.six_node_path_set(),
                    initial_flows=np.array([v, 3000.0, 1500.0, 1500.0]),
                ),
                id="solve.initial_flows",
            ),
        ],
    )
    def test_non_finite_input_rejected(self, build, value):
        # NaN fails every comparison, so a bare range check lets it through:
        # alpha=nan solved to "tolerance" with 2400 veh queued on two links
        with pytest.raises(ValueError, match="finite"):
            build(value)

    def test_demand_override_length(self, six_node):
        with pytest.raises(ValueError, match="demands"):
            solve(six_node, demands=[100.0])

    def test_demand_override_keeps_the_paths(self, six_node):
        # the override copies the network with the new demands; the paths
        # are handed over as they are
        state, _ = solve(six_node, demands=[2000.0, 500.0])
        assert [od.demand for od in state.path_set.network.od_pairs] == [2000.0, 500.0]
        assert all(a is b for a, b in zip(state.path_set.paths, six_node.paths))
        assert [od.demand for od in six_node.network.od_pairs] == [3000.0, 3000.0]

    def test_smoothed_mode_descent(self, six_node):
        _, report = solve(
            six_node, options=SolverOptions(queue_mode="smoothed_gradient"), history=True
        )
        assert len(report.history) == report.iterations
        prev_full = np.inf
        for _, j_half, j_full, *_ in report.history:
            assert j_half <= prev_full + 1e-9
            assert j_full <= j_half + 1e-9
            prev_full = j_full

    def test_smoothed_mode_reaches_queue_dependent_equilibrium(self, six_node):
        # not the capacity-free UE (v4 = 2470 > C_max, no queue) that the
        # Beckmann objective's barrier at Q = 0 holds the descent at
        state, report = solve(
            six_node, options=SolverOptions(queue_mode="smoothed_gradient")
        )
        eq = kkt_report(state)
        assert report.converged and report.termination == "tolerance"
        assert eq.max_capacity_residual <= 1e-6
        assert eq.max_complementarity_residual <= 1e-3
        assert eq.relative_gap <= 1e-4
        assert state.link_queues[six_node.link_index("4")] > 0.0

    def test_smoothed_mode_stall_is_not_converged(self, six_node, monkeypatch):
        # with 1/100 of the merit weight the descent at m = 0.5 stops after
        # two iterations at an overloaded link with no queue: neither
        # half-step lowers the merit, so the steps vanish far from the
        # equilibrium (relative gap 7.2e-2)
        weights = _cost._merit_weights
        monkeypatch.setattr(
            _cost, "_merit_weights", lambda t_f, c_max: weights(t_f, c_max) / 100.0
        )
        state, report = solve(
            six_node,
            params=CostParams(m=0.5),
            options=SolverOptions(queue_mode="smoothed_gradient"),
        )
        assert report.iterations == 2
        assert kkt_report(state).relative_gap > 1e-2
        assert not report.converged
        assert report.termination == "stalled"

    def test_fixed_point_stall_is_not_converged(self, six_node, monkeypatch):
        # with a curvature floor of 1e30 every GP step moves under 1e-28
        # veh/h, so the flows stay at the all-or-nothing start: the queues
        # settle after 48 iterations with the steps vanished at relative
        # gap 4.6
        monkeypatch.setattr(solver, "CURVATURE_FLOOR", 1e30)
        state, report = solve(six_node, options=SolverOptions(queue_mode="fixed_point"))
        assert report.iterations == 48
        assert kkt_report(state).relative_gap > 1.0
        assert not report.converged
        assert report.termination == "stalled"

    @pytest.mark.parametrize("relaxation", [None, 0.9999999999999998])
    def test_dissolving_queue_residue_does_not_stall(
        self, six_node, relaxation, monkeypatch
    ):
        # at gamma = 0.9 and m = 0.5, a queue relaxed almost fully dissolves
        # to a rounding residue (1e-13 veh on link 4); the GP curvature
        # bounds (Q/C)^(m-1) at QUEUE_RATIO_FLOOR, so steps through that
        # link still move flow (None keeps the automatic relaxation)
        if relaxation is not None:
            monkeypatch.setattr(solver, "_queue_relaxation", lambda gamma: relaxation)
        state, report = solve(six_node, CostParams(gamma=0.9, m=0.5))
        eq = kkt_report(state)
        assert report.converged and report.termination == "tolerance"
        assert eq.relative_gap <= 1e-4
        assert eq.max_capacity_residual == 0.0

    def test_smoothed_mode_rejects_gamma_one(self, six_node):
        with pytest.raises(ValueError, match="gamma < 1"):
            solve(
                six_node,
                params=CostParams(gamma=1.0),
                options=SolverOptions(queue_mode="smoothed_gradient"),
            )

    @pytest.mark.parametrize("mode", ["fixed_point", "smoothed_gradient"])
    def test_infeasible_state_not_converged(self, mode):
        # 5000 veh/h onto a 1000 veh/h link needs a queue of 8000, past the
        # cap of 0.999 * C_max / gamma: no queue brings v under C(Q)
        net = Network(
            (Node("u"), Node("v")),
            (Link("a", "u", "v", 0.2, 1000.0),),
            (ODPair("u", "v", 5000.0),),
        )
        state, report = solve(
            enumerate_paths(net, k=1), options=SolverOptions(queue_mode=mode)
        )
        assert not report.converged
        assert report.termination == "infeasible"
        assert kkt_report(state).max_capacity_residual > 1.0

    def test_queue_sweep_holds_no_more_than_a_path_brings(self):
        # the relaxed queue sweep used to hold more of a path's traffic at
        # a link than reached it; in the fourth sweep here that left a
        # negative throughflow (-0.248 veh/h) on a link downstream
        network = fixtures.grid_network(size=10, n_od=20, demand=1200.0)
        ps = enumerate_paths(network, k=3)
        state, _ = solve(ps, options=SolverOptions(max_outer_iterations=5))
        assert np.all(state.throughflows >= -1e-9)
        for i, group in enumerate(ps.od_groups):
            demand = network.od_pairs[i].demand
            assert state.path_flows[group].sum() == pytest.approx(demand, abs=1e-9)


#: the benchmark's six-node demand sweep: OD 1 over 1000:6000:250, OD 2 off
SWEEP_DEMANDS = [[d, 0.0] for d in np.arange(1000.0, 6001.0, 250.0)]


@pytest.fixture(scope="module")
def inexact_sweep(six_node):
    return [solve(six_node, demands=d) for d in SWEEP_DEMANDS]


def _assert_same_link_state(a, b):
    assert a.throughflows == pytest.approx(b.throughflows, abs=0.1)
    assert a.link_queues == pytest.approx(b.link_queues, abs=0.1)


def _assert_agrees_with_exact_inner_solves(monkeypatch, *args):
    state, _ = solve(*args)
    monkeypatch.setattr(solver, "INNER_TOL_SHARE", 0.0)
    exact, _ = solve(*args)
    _assert_same_link_state(state, exact)


class TestInexactInnerSolve:
    """The GP passes stop at INNER_TOL_SHARE of the last queue change."""

    def test_sweep_pass_budget(self, inexact_sweep):
        # 7,666 passes when every flow block is solved to 0.1 STEP_TOL
        assert all(report.converged for _, report in inexact_sweep)
        assert sum(report.inner_passes for _, report in inexact_sweep) <= 2500

    def test_sweep_agrees_with_exact_inner_solves(
        self, six_node, inexact_sweep, monkeypatch
    ):
        monkeypatch.setattr(solver, "INNER_TOL_SHARE", 0.0)
        for (state, _), d in zip(inexact_sweep, SWEEP_DEMANDS):
            exact, _ = solve(six_node, demands=d)
            _assert_same_link_state(state, exact)

    @pytest.mark.parametrize("m", [0.5, 2.0, 4.0])
    def test_six_node_agrees_with_exact_inner_solves(self, six_node, m, monkeypatch):
        _assert_agrees_with_exact_inner_solves(monkeypatch, six_node, CostParams(m=m))

    def test_grid15_agrees_with_exact_inner_solves(self, monkeypatch):
        ps = enumerate_paths(fixtures.grid_network(15, 12, 1100.0), 3)
        _assert_agrees_with_exact_inner_solves(monkeypatch, ps)


def _assert_smoothed_matches_fixed_point(path_set, params):
    state, report = solve(path_set, params, SolverOptions(queue_mode="smoothed_gradient"))
    assert report.termination == "tolerance"
    assert report.iterations <= 30
    reference, _ = solve(path_set, params)
    _assert_same_link_state(state, reference)


class TestSmoothedMode:
    """The smoothed mode's queue step is the fixed-point sweep, unrelaxed
    and halved until the merit does not increase."""

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 4.0])
    def test_six_node_matches_fixed_point(self, six_node, gamma, m):
        _assert_smoothed_matches_fixed_point(six_node, CostParams(gamma=gamma, m=m))

    def test_grid6_matches_fixed_point(self):
        ps = enumerate_paths(fixtures.grid_network(6, 8, 1200.0), 3)
        _assert_smoothed_matches_fixed_point(ps, CostParams())

    @pytest.mark.parametrize("gamma", [0.5, 0.9])
    def test_grid20_staircase_matches_fixed_point(self, gamma):
        # the largest path set the two modes are compared on: they agree
        # within 0.0015 (gamma 0.5) and 0.0099 veh/h (gamma 0.9)
        _assert_smoothed_matches_fixed_point(
            _grid20_staircase_path_set(), CostParams(gamma=gamma)
        )

    def test_cyclic_grid_trial_is_clipped(self):
        # this grid's link precedence is cyclic; a sweep visiting links in
        # one order there held back more than some path carries, and the
        # merit raised on a negative throughflow in the first queue step.
        # The sweep's rounds need no order, and it ends with a projection
        ps = enumerate_paths(fixtures.grid_network(10, 40, 900.0), 3)
        state, report = solve(
            ps, options=SolverOptions(queue_mode="smoothed_gradient", max_outer_iterations=1)
        )
        assert report.termination in ("iteration_limit", "infeasible")
        assert np.all(state.throughflows >= 0.0)

    @pytest.mark.parametrize(
        "path_set", [fixtures.six_node_path_set, _grid20_staircase_path_set],
        ids=["six_node", "grid20_staircase"],
    )
    def test_carried_merit_matches_a_fresh_one(self, path_set, monkeypatch):
        # every state the accept-or-halve moves to keeps the merit it was
        # accepted at: the j carried in and the j carried out are each the
        # merit of their state, to the ulp
        checks = []
        accept = solver._accept_or_halve

        def checked_accept(trial, step, halve, merit_, j, current):
            assert j == merit_(*current)
            flows, queues, j = accept(trial, step, halve, merit_, j, current)
            assert j == merit_(flows, queues)
            checks.append(1)
            return flows, queues, j

        monkeypatch.setattr(solver, "_accept_or_halve", checked_accept)
        solve(path_set(), options=SolverOptions(queue_mode="smoothed_gradient"), history=True)
        assert checks


class TestAcceptOrHalve:
    """The smoothed mode's one safeguard, on the flow and the queue trial."""

    @staticmethod
    def _run(merits, j, halve=lambda s: s / 2.0):
        steps, values = [], iter(merits)

        def trial(step):
            steps.append(step)
            return np.array([step]), np.array([2.0 * step])

        current = (np.array([0.0]), np.array([0.0]))
        def merit(flows, queues):
            return next(values)

        return _accept_or_halve(trial, 1.0, halve, merit, j, current), steps, current

    def test_takes_the_first_trial_at_or_below_j(self):
        (flows, queues, j), steps, _ = self._run([5.0, 4.0, 3.0, 1.0], 3.0)
        # a tie is accepted, and the later, lower trial is never tried
        assert steps == [1.0, 0.5, 0.25]
        assert (flows[0], queues[0], j) == (0.25, 0.5, 3.0)
        (_, _, j), steps, _ = self._run([5.0, 2.0], 3.0)
        assert (steps, j) == ([1.0, 0.5], 2.0)

    def test_forty_rising_trials_keep_the_current_state(self):
        (flows, queues, j), steps, current = self._run([7.0 + k for k in range(40)], 3.0)
        assert len(steps) == 40
        assert flows is current[0] and queues is current[1] and j == 3.0

    def test_halves_the_previous_trial(self):
        # each trial is halve() of the one before, as the flow trial's
        # f + (g - f) / 2 needs: trial(s), trial(halve(s)), ...
        f = 0.1
        _, steps, _ = self._run(
            [9.0, 9.0, 9.0, 0.0], 1.0, halve=lambda g: f + 0.5 * (g - f)
        )
        expected = [1.0]
        for _ in range(3):
            expected.append(f + 0.5 * (expected[-1] - f))
        assert steps == expected


@pytest.fixture(scope="module")
def grid6_k2():
    """A 6x6 grid whose solve holds queues and converges in both modes."""
    return enumerate_paths(fixtures.grid_network(6, 6, 1500.0), 2)


class TestHistoryOptIn:
    """`solve` prices the history rows only when asked to; they are
    bookkeeping that never feeds back into the iterates."""

    @pytest.mark.parametrize("mode", ["fixed_point", "smoothed_gradient"])
    @pytest.mark.parametrize("path_set", ["six_node", "grid6_k2"])
    def test_history_never_feeds_back(self, request, path_set, mode):
        ps = request.getfixturevalue(path_set)
        options = SolverOptions(queue_mode=mode)
        state, report = solve(ps, options=options)
        state_h, report_h = solve(ps, options=options, history=True)
        assert report.converged and np.any(state.link_queues > 1e-6)
        for name in ("path_flows", "queue_alloc", "throughflows", "link_queues"):
            assert np.array_equal(getattr(state, name), getattr(state_h, name)), name
        assert (report.iterations, report.inner_passes, report.termination) == (
            report_h.iterations, report_h.inner_passes, report_h.termination
        )
        assert report.history == []
        assert len(report_h.history) == report_h.iterations


class TestHistoryMerit:
    """Both modes' history rows record J = `cost.merit`, which is zero
    exactly at an equilibrium."""

    @pytest.mark.parametrize("mode", ["fixed_point", "smoothed_gradient"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_j_falls_to_zero(self, six_node, variant, mode):
        options = SolverOptions(queue_mode=mode, variant=variant)
        _, report = solve(six_node, options=options, history=True)
        assert report.converged
        assert all(j >= 0.0 for row in report.history for j in row[1:3])
        assert max(report.history[-1][1:3]) <= 1e-6

    def test_j_is_nan_where_gamma_reaches_one(self, six_node):
        # the merit needs gamma < 1; the fixed-point mode still solves
        options = SolverOptions(max_outer_iterations=5)
        _, report = solve(six_node, CostParams(gamma=1.0), options, history=True)
        assert len(report.history) == 5
        for it, j_half, j_full, *rest in report.history:
            assert np.isnan(j_half) and np.isnan(j_full)
            assert np.all(np.isfinite([it, *rest]))


class TestQueueSweep:
    """The fixed-point sweep's rounds leave a feasible state from any
    feasible start, settled or not, on cyclic link precedence too."""

    @pytest.mark.parametrize(
        "grid, iterations",
        [((10, 40, 900.0), 20), ((6, 40, 1200.0), 20), ((20, 30), 1)],
        ids=["grid10_40_900", "grid6_40_1200", "grid20_30"],
    )
    def test_cyclic_grids_end_in_a_named_state(self, grid, iterations):
        # overlapping k-shortest paths on two-way grids: the link precedence
        # has cycles, where a sweep in one link order raised "negative
        # throughflow" (grid 20/30 is the cheapest grid-20 case that did)
        ps = enumerate_paths(fixtures.grid_network(*grid), 3)
        state, report = solve(ps, options=SolverOptions(max_outer_iterations=iterations))
        assert report.termination in ("tolerance", "iteration_limit", "stalled", "infeasible")
        assert np.all(state.throughflows >= 0.0)
        assert np.all(state.completing_flows() >= -1e-9)

    @given(
        size=st.integers(4, 8),
        k=st.integers(1, 3),
        demand=st.floats(300.0, 2000.0),
        gamma=st.floats(0.0, 0.9),
        relaxation=st.floats(0.0, 1.0, exclude_min=True),
        hold=st.floats(0.0, 1.0),
        keep_slack=st.booleans(),
        # None: the module's; inf: stop after one round, on the input's
        # arrivals; -inf: never settle, stop at the round cap
        tol=st.sampled_from([None, np.inf, -np.inf]),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_sweep_leaves_a_feasible_state(
        self, size, k, demand, gamma, relaxation, hold, keep_slack, tol, seed
    ):
        ps = _small_grid_path_set(size, k, demand, seed)
        params = CostParams(gamma=gamma)
        c_max = np.array([l.capacity for l in ps.network.links])
        f, held = feasible_random_state(ps, np.random.default_rng(seed), hold)
        slack = None
        if keep_slack:
            _, q, _, v = assemble_link_state(ps, f, held)
            slack = np.where(q > 0, c_max - gamma * q - v, -np.inf)
        with pytest.MonkeyPatch.context() as mp:
            if tol is not None:
                mp.setattr(solver, "SWEEP_TOL", tol)
            new = solver._queue_targets_fixed_point(ps, f, held, params, relaxation, slack)
        assert np.all(new >= 0.0)
        assert np.all(np.bincount(ps.entry_path, new, ps.n_paths) <= f + 1e-9)
        assemble_link_state(ps, f, new)


class TestProjectQueues:
    @given(
        size=st.integers(4, 8),
        k=st.integers(1, 3),
        demand=st.floats(300.0, 2000.0),
        # above 1, paths may hold back more than they carry: the cut runs
        hold=st.floats(0.0, 2.0),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_projection_cuts_each_path_to_its_flow(self, size, k, demand, hold, seed):
        ps = _small_grid_path_set(size, k, demand, seed)
        f, held = feasible_random_state(ps, np.random.default_rng(seed), hold)
        new = _project_queues(ps, f, held)
        assert np.all(new >= 0.0)
        assert np.all(np.bincount(ps.entry_path, new, ps.n_paths) <= f + 1e-9)
        upstream = ps.held_upstream(new)
        assert np.all(new <= np.maximum(f[ps.entry_path] - upstream, 0.0) + 1e-9)
        assemble_link_state(ps, f, new)
        # a second cut may trim a rounding residue off a path's sum, no more
        np.testing.assert_allclose(_project_queues(ps, f, new), new, rtol=0, atol=1e-9)
        if np.all(np.bincount(ps.entry_path, held, ps.n_paths) <= f):
            np.testing.assert_array_equal(new, held)


def _assert_passes_keep_held_queues(path_set, **options):
    """Solve with every GP pass checked: no pass leaves a path more than
    1e-9 veh below the queue it holds."""
    gp_flow_pass = solver._gp_flow_pass
    passes = []

    def checked_pass(ps, f, frozen, levels, options_):
        g = gp_flow_pass(ps, f, frozen, levels, options_)
        assert np.all(g >= frozen.held - 1e-9)
        passes.append(1)
        return g

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_gp_flow_pass", checked_pass)
        solve(path_set, options=SolverOptions(**options))
    assert passes


@functools.lru_cache(maxsize=None)
def _small_grid_path_set(size, k, demand, seed):
    return enumerate_paths(fixtures.grid_network(size, 6, demand, seed), k)


class TestVariants:
    def test_variant_list(self):
        assert set(VARIANTS) == {
            "traditional_ue",
            "fixed_capacity_queue",
            "queue_dependent",
            "system_optimum",
        }

    def test_unknown_variant(self, six_node):
        with pytest.raises(ValueError, match="variant"):
            solve(six_node, options=SolverOptions(variant="bogus"))

    def test_traditional_ue_overshoots(self, six_node, traditional_solution):
        state, report = traditional_solution
        assert report.converged
        i4 = six_node.link_index("4")
        assert state.throughflows[i4] > 2400.0
        assert np.all(state.link_queues == 0.0)

    def test_fixed_capacity_holds_at_base(self, six_node, fixed_capacity_solution):
        state, report = fixed_capacity_solution
        assert report.converged
        i4 = six_node.link_index("4")
        assert state.throughflows[i4] == pytest.approx(2400.0, abs=5.0)
        assert state.link_queues[i4] > 0.0

    def test_system_optimum_spreads_flow(self, six_node, base_state):
        state, report = solve(six_node, options=SolverOptions(variant="system_optimum"))
        assert report.converged
        i4 = six_node.link_index("4")
        # the system optimum tolerates a longer queue on the bottleneck to
        # keep total cost down, discharging less than the user equilibrium
        assert state.throughflows[i4] < base_state.throughflows[i4]

    def test_system_optimum_single_path_matches_ue(self):
        net = Network(
            (Node("u"), Node("v")),
            (Link("a", "u", "v", 0.2, 1000.0),),
            (ODPair("u", "v", 800.0),),
        )
        ps = enumerate_paths(net, k=1)
        s_ue, _ = solve(ps)
        s_so, _ = solve(ps, options=SolverOptions(variant="system_optimum"))
        assert s_ue.link_flows == pytest.approx(s_so.link_flows)
        assert s_ue.link_queues == pytest.approx(s_so.link_queues)

"""The vectorized hot path against its per-path, per-link loop versions.

`loop_reference` holds the loops that state assembly, the fixed-point
queue sweep and the GP flow pass replaced; on the same inputs both must
give the same numbers to rounding.  The cases are per-entry queues and
the cost parameters; the loops get the queues as a dense array
(`loop_reference.dense_queues`).  The vectorized GP pass runs as the
solver runs it: its queue part priced once (`_frozen_queues`), then the
pass itself.
"""

import numpy as np
import pytest

import loop_reference as ref
from conftest import _grid20_staircase_path_set, per_entry
from queuenet import fixtures
from queuenet.cost import CostParams
from queuenet.net import ODPair, enumerate_paths
from queuenet.solver import (
    QUEUE_CAP_FRACTION,
    QUEUE_RATIO_FLOOR,
    VARIANTS,
    SolverOptions,
    _aon_initial_flows,
    _apply_variant,
    _frozen_queues,
    _gp_flow_pass,
    _group_levels,
    _queue_targets_fixed_point,
    assemble_link_state,
    solve,
)

RTOL = 1e-9
ATOL = 1e-9  # veh/h, for entries that are zero in one version


def _link_arrays(path_set, params=CostParams()):
    links = path_set.network.links
    t_f = np.array([l.free_flow_time for l in links])
    c_max = np.array([l.capacity for l in links])
    return t_f, c_max, params.for_links(links)


def _six_node_queued():
    ps = fixtures.six_node_path_set()
    qa = np.zeros((ps.n_links, ps.n_paths))
    qa[ps.link_index("4"), [1, 3]] = 50.0
    return ps, np.array([1775.0, 1225.0, 1775.0, 1225.0]), per_entry(ps, qa)


def _six_node_sub_linear_delay():
    # m < 1: the delay slope (Q/C)^(m-1) grows without bound as Q -> 0+.
    # Link 4's queue is a residue of 1e-3 veh, far below QUEUE_RATIO_FLOOR
    # of its capacity, so the curvature takes the floor there; link 3 holds
    # a real queue, above the floor
    ps, f, _ = _six_node_queued()
    qa = np.zeros((ps.n_links, ps.n_paths))
    qa[ps.link_index("4"), [1, 3]] = 5e-4
    qa[ps.link_index("3"), 1] = 20.0
    return ps, f, per_entry(ps, qa), CostParams(m=0.5)


def _six_node_fixed_capacity():
    # gamma = 0 under the queue-dependent variant: queues take no capacity
    ps, f, qa = _six_node_queued()
    return ps, f, qa, CostParams(gamma=0.0)


def _six_node_mixed_gamma():
    # per-link gamma 0, 0.5 and 1.0, with demands above the network's
    # capacity so that a link of each kind overflows: link 1 (gamma 0.5)
    # and link 2 (gamma 0) by 50 veh/h, the bottleneck link 4 (gamma 1.0,
    # where any surplus queues up to the capacity cap) by 500 veh/h
    ps = fixtures.six_node_path_set().with_demands([3300.0, 3300.0])
    gamma = np.array([0.5, 0.0, 0.5, 1.0, 0.0, 0.5, 0.0])
    qa = np.zeros((ps.n_links, ps.n_paths))
    qa[ps.link_index("4"), [1, 3]] = 50.0
    qa[ps.link_index("1"), 0] = 20.0
    f = np.array([1850.0, 1450.0, 1850.0, 1450.0])
    return ps, f, per_entry(ps, qa), CostParams(gamma=gamma)


def _grid10_after_five_iterations():
    ps = enumerate_paths(fixtures.grid_network(size=10, n_od=20, demand=1200.0), 3)
    state, _ = solve(ps, options=SolverOptions(max_outer_iterations=5))
    return ps, state.path_flows, state.queue_alloc


def _cyclic_precedence():
    # overlapping k-shortest paths whose link precedence has a cycle, so no
    # link order settles the queues in one pass (the loop sweep takes 4
    # passes on this case); one GP pass from the all-or-nothing start and
    # one relaxed sweep give 72 queued entries
    ps = enumerate_paths(fixtures.grid_network(size=10, n_od=40, demand=900.0), 3)
    _, c_max, params = _link_arrays(ps)
    qa = np.zeros((ps.n_links, ps.n_paths))
    f = ref.gp_flow_pass(ps, _aon_initial_flows(ps), qa, params, SolverOptions())
    return ps, f, per_entry(ps, ref.queue_targets_fixed_point(ps, f, qa, c_max, params, 0.5))


def _grid20_after_five_iterations():
    # the benchmark's staircase paths: one OD pair has a single path
    ps = _grid20_staircase_path_set()
    assert min(len(g) for g in ps.od_groups) == 1
    state, _ = solve(ps, options=SolverOptions(max_outer_iterations=5))
    return ps, state.path_flows, state.queue_alloc


def _six_node_one_od_off():
    # as in the demand sweep: OD 2->4 at zero demand, OD 1->3 at 4000
    six = fixtures.six_node_network()
    network = six.with_demands(
        [ODPair(od.origin, od.destination, d) for od, d in zip(six.od_pairs, (4000.0, 0.0))]
    )
    ps = fixtures.six_node_path_set(network)
    state, _ = solve(ps, options=SolverOptions(max_outer_iterations=5))
    return ps, state.path_flows, state.queue_alloc


CASES = {
    "six_node": _six_node_queued,
    "six_node_m_below_1": _six_node_sub_linear_delay,
    "six_node_gamma_0": _six_node_fixed_capacity,
    "six_node_mixed_gamma": _six_node_mixed_gamma,
    "six_node_one_od_off": _six_node_one_od_off,
    "grid10": _grid10_after_five_iterations,
    "grid20_staircase": _grid20_after_five_iterations,
    "cyclic": _cyclic_precedence,
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    ps, f, qa, *params = CASES[request.param]()
    assert np.any(qa > 0)
    return ps, f, qa, *(params or [CostParams()])


def test_sub_linear_delay_case_reaches_the_ratio_floor():
    ps, f, qa, params = _six_node_sub_linear_delay()
    _, c_max, params = _link_arrays(ps, params)
    _, q, _, _ = assemble_link_state(ps, f, qa)
    ratio = q / (c_max - params.gamma * q)
    assert np.any((q > 0) & (ratio < QUEUE_RATIO_FLOOR))
    assert np.any(ratio > QUEUE_RATIO_FLOOR)


def test_mixed_gamma_case_queues_a_link_of_each_kind():
    # gamma 0.5 queues surplus / (1 - gamma), gamma 0 the surplus, and
    # gamma 1.0 all that arrives, down to the capacity cap
    ps, f, qa, params = _six_node_mixed_gamma()
    _, c_max, params = _link_arrays(ps, params)
    swept = _queue_targets_fixed_point(ps, f, qa, params, 1.0)
    _, q, _, _ = assemble_link_state(ps, f, swept)
    links = [ps.link_index(i) for i in ("1", "2", "4")]
    np.testing.assert_allclose(q[links], [100.0, 50.0, QUEUE_CAP_FRACTION * 2400.0])


def _close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=ATOL)


def test_assemble_link_state_matches_loop(case):
    ps, f, qa, _ = case
    dense = ref.dense_queues(ps, qa)
    for new, old in zip(assemble_link_state(ps, f, qa), ref.assemble_link_state(ps, f, dense)):
        _close(new, old)


@pytest.mark.parametrize("relaxation", [0.5, 1.0])
def test_queue_sweep_matches_loop(case, relaxation):
    ps, f, qa, params = case
    _, c_max, params = _link_arrays(ps, params)
    dense = ref.dense_queues(ps, qa)
    _close(
        _queue_targets_fixed_point(ps, f, qa, params, relaxation),
        per_entry(ps, ref.queue_targets_fixed_point(ps, f, dense, c_max, params, relaxation)),
    )


def test_slack_keeping_sweep_matches_loop(case):
    ps, f, qa, params = case
    _, c_max, params = _link_arrays(ps, params)
    dense = ref.dense_queues(ps, qa)
    _, q, _, v = ref.assemble_link_state(ps, f, dense)
    slack = np.where(q > 0, c_max - np.asarray(params.gamma) * q - v, -np.inf)
    _close(
        _queue_targets_fixed_point(ps, f, qa, params, 1.0, slack=slack),
        per_entry(
            ps, ref.queue_targets_fixed_point(ps, f, dense, c_max, params, 1.0, slack=slack)
        ),
    )


@pytest.mark.parametrize("variant", VARIANTS)
def test_gp_flow_pass_matches_loop(case, variant):
    ps, f, qa, params = case
    _, _, params = _link_arrays(ps, params)
    params = _apply_variant(params, variant)
    options = SolverOptions(variant=variant)
    levels = _group_levels(ps)
    new = _gp_flow_pass(ps, f, _frozen_queues(ps, qa, levels, params), levels, options)
    assert np.max(np.abs(new - f)) > 0.0  # the pass moves flow
    _close(new, ref.gp_flow_pass(ps, f, ref.dense_queues(ps, qa), params, options))

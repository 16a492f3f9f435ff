"""Link cost model: capacity response, travel times, objective, slopes."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queuenet import cost, fixtures
from queuenet.analysis import gradient_check
from queuenet.cost import (
    PARAM_NAMES,
    QUEUE_RATIO_FLOOR,
    CostParams,
    _checked_cost,
    capacity,
    gamma_of_flow,
    link_travel_time,
    marginal_link_time,
    merit,
    objective,
    queuing_delay,
    smoothed_link_time,
)
from queuenet.net import enumerate_paths
from queuenet.solver import assemble_link_state

from conftest import feasible_random_state, per_entry
from loop_reference import dense_queues

P = CostParams()  # alpha=0.5, beta=0.5, m=1, n=4, gamma=0.5


class TestParams:
    def test_defaults(self):
        assert P.alpha == 0.5 and P.beta == 0.5
        assert P.m == 1.0 and P.n == 4.0
        assert P.gamma == 0.5
        assert PARAM_NAMES == ("alpha", "beta", "m", "n", "gamma")

    def test_validation(self):
        with pytest.raises(ValueError):
            CostParams(alpha=-0.1)
        with pytest.raises(ValueError):
            CostParams(m=0.0)
        with pytest.raises(ValueError):
            CostParams(n=-1.0)
        # phi is an argument of the two smoothed diagnostics, checked there
        v, q, t_f, c = 1000.0, 50.0, 0.25, 1800.0
        with pytest.raises(ValueError, match="phi must be finite and >= 1"):
            smoothed_link_time(v, q, t_f, c, P, phi=0.5)
        with pytest.raises(ValueError, match="phi must be finite and >= 1"):
            objective(v, q, t_f, c, P, phi=0.5)

    @pytest.mark.parametrize("gamma", [1.0, 1.5, 1e6])
    def test_gamma_from_one_refused(self, gamma):
        # the steady queue (y - C_max)/(1 - gamma) exists only below 1
        with pytest.raises(ValueError, match="gamma must be < 1"):
            CostParams(gamma=gamma)
        with pytest.raises(ValueError, match="gamma must be < 1"):
            CostParams(gamma=np.array([0.5, gamma, 0.0]))
        CostParams(gamma=0.999)
        CostParams(gamma=np.array([0.5, 0.999, 0.0]))

    def test_per_link_overrides(self):
        net = fixtures.six_node_network()
        expanded = P.for_links(net.links)
        assert expanded.gamma.shape == (7,)
        assert np.all(expanded.gamma == 0.5)
        links = list(net.links)
        links[2] = replace(links[2], overrides=(("gamma", 0.2), ("m", 2.0)))
        expanded = P.replace(alpha=np.linspace(0.1, 0.7, 7)).for_links(links)
        assert expanded.gamma.tolist() == [0.5, 0.5, 0.2, 0.5, 0.5, 0.5, 0.5]
        assert expanded.m.tolist() == [1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0]
        assert np.array_equal(expanded.alpha, np.linspace(0.1, 0.7, 7))


class TestCapacityResponse:
    def test_linear_choke(self):
        # a 54-vehicle queue chokes a 600 veh/hr link down to 573 veh/hr
        assert capacity(54.0, 600.0, P) == pytest.approx(573.0)
        assert gamma_of_flow(573.0, 600.0, P) == pytest.approx(54.0)
        assert queuing_delay(54.0, 600.0, P) == pytest.approx(0.047, abs=1e-3)

    def test_no_queue_full_capacity(self):
        assert capacity(0.0, 2400.0, P) == 2400.0

    def test_capacity_errors(self):
        with pytest.raises(ValueError, match=">= 0"):
            capacity(-1.0, 600.0, P)
        with pytest.raises(ValueError, match="exhausts"):
            capacity(1300.0, 600.0, P)  # 600 - 0.5*1300 < 0

    def test_gamma_zero_fixed_capacity(self):
        p0 = P.replace(gamma=0.0)
        assert capacity(500.0, 600.0, p0) == 600.0
        assert gamma_of_flow(100.0, 600.0, p0) == math.inf
        assert gamma_of_flow(700.0, 600.0, p0) == 0.0

    @given(
        q=st.floats(0.0, 1000.0),
        c=st.floats(600.0, 3000.0),
        g=st.floats(1e-3, 0.9),
    )
    def test_inverse_round_trip(self, q, c, g):
        p = CostParams(gamma=g)
        v = c - g * q
        if v < c:
            # round-trip error grows like c/gamma in floating point
            assert gamma_of_flow(v, c, p) == pytest.approx(
                q, abs=1e-9 * c / g, rel=1e-9
            )

    @given(c=st.floats(600.0, 3000.0), g=st.floats(0.01, 0.9))
    def test_capacity_decreasing_in_queue(self, c, g):
        p = CostParams(gamma=g)
        qs = np.linspace(0.0, 0.9 * c / g, 20)
        cs = capacity(qs, c, p)
        assert np.all(np.diff(cs) < 0)


class TestTravelTime:
    def test_reduces_to_bpr_at_zero_queue(self):
        v, t_f, c = 1000.0, 0.25, 1800.0
        t = link_travel_time(v, 0.0, t_f, c, P)
        assert t == pytest.approx(t_f * (1.0 + 0.5 * (v / c) ** 4))

    def test_queue_adds_delay_and_chokes(self):
        t0 = link_travel_time(1000.0, 0.0, 0.25, 1800.0, P)
        t1 = link_travel_time(1000.0, 100.0, 0.25, 1800.0, P)
        assert t1 > t0

    @given(
        v=st.floats(0.0, 2000.0),
        q=st.floats(0.0, 500.0),
    )
    @settings(max_examples=50)
    def test_monotone_in_flow_and_queue(self, v, q):
        t_f, c = 0.2, 1800.0
        base = link_travel_time(v, q, t_f, c, P)
        assert link_travel_time(v + 50.0, q, t_f, c, P) >= base
        assert link_travel_time(v, q + 50.0, t_f, c, P) >= base

    def test_running_slope_is_derivative(self):
        # the slope the GP step divides by
        v, q, t_f, c = 1500.0, 80.0, 0.2, 1800.0
        h = 1e-4 * v
        fd = (
            link_travel_time(v + h, q, t_f, c, P)
            - link_travel_time(v - h, q, t_f, c, P)
        ) / (2 * h)
        assert _checked_cost(v, q, t_f, c, P, False)[1] == pytest.approx(fd, rel=1e-6)

    def test_marginal_exceeds_average(self):
        v, q = 1500.0, 80.0
        assert marginal_link_time(v, q, 0.2, 1800.0, P) > link_travel_time(
            v, q, 0.2, 1800.0, P
        )

    def test_smoothed_time_at_zero_queue(self):
        v, t_f, c = 1000.0, 0.25, 1800.0
        assert smoothed_link_time(v, 0.0, t_f, c, P) == pytest.approx(
            link_travel_time(v, 0.0, t_f, c, P)
        )

    def test_smoothing_base_one_keeps_exponent(self):
        v, t_f, c = 1000.0, 0.25, 1800.0
        for q in (0.0, 50.0, 500.0):
            assert smoothed_link_time(v, q, t_f, c, P, phi=1.0) == pytest.approx(
                t_f * (1.0 + 0.5 * (v / c) ** 4)
            )

    def test_large_queue_flattens_smoothed_time(self):
        # the exponent decays with the queue, so congested running time
        # saturates at t_f * (1 + beta) regardless of flow
        t = smoothed_link_time(1000.0, 5000.0, 0.25, 1800.0, P)
        assert t == pytest.approx(0.25 * 1.5, rel=1e-9)


class TestObjective:
    def test_zero_state(self):
        z = np.zeros(3)
        tf = np.array([0.1, 0.2, 0.3])
        cm = np.array([1000.0, 1500.0, 2000.0])
        links = fixtures.six_node_network().links[:3]
        assert objective(z, z, tf, cm, P.for_links(links)) == 0.0

    def test_rejects_negative(self):
        tf = np.array([0.2])
        cm = np.array([1800.0])
        with pytest.raises(ValueError):
            objective(np.array([-5.0]), np.array([0.0]), tf, cm, P)

    def test_queue_integral_quadrature_matches_closed_form(self):
        # general quadrature branch (m != 1) cross-checked against the
        # m = 1 closed form evaluated through a nearby exponent
        tf = np.array([0.2])
        cm = np.array([1800.0])
        v = np.array([1000.0])
        q = np.array([300.0])
        j_closed = objective(v, q, tf, cm, CostParams(m=1.0))
        j_quad = objective(v, q, tf, cm, CostParams(m=1.0 + 1e-12))
        assert j_quad == pytest.approx(j_closed, rel=1e-7)

    def test_queue_integral_quadrature_vs_scipy(self):
        from scipy.integrate import quad

        for m in (0.5, 2.0, 3.5):
            p = CostParams(m=m)
            tf = np.array([0.2])
            cm = np.array([1800.0])
            q = np.array([700.0])
            v = np.array([0.0])
            got = objective(v, q, tf, cm, p)
            base = objective(v, np.array([0.0]), tf, cm, p)
            integral, _ = quad(lambda y: (y / (1800.0 - 0.5 * y)) ** m, 0.0, 700.0)
            expected = base + 0.2 * 1.5 * 700.0 + 0.5 * integral
            assert got == pytest.approx(expected, rel=1e-6)

    def test_gamma_zero_closed_form(self):
        p = CostParams(m=2.0, gamma=0.0)
        tf = np.array([0.2])
        cm = np.array([1800.0])
        q = np.array([400.0])
        got = objective(np.array([0.0]), q, tf, cm, p)
        expected = 0.2 * 1.5 * 400.0 + 0.5 * 400.0**3 / (3 * 1800.0**2)
        assert got == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("q", [0.0, 0.5, 40.0])
    def test_flow_derivative_is_smoothed_time(self, q):
        # dJ/dv_a, by central differences, is link a's smoothed running time
        p = CostParams(gamma=0.5, m=2.0)
        tf = np.array([0.1, 0.2, 0.3])
        cm = np.array([1000.0, 1500.0, 2000.0])
        v = np.array([400.0, 1200.0, 1900.0])
        qs = np.full(3, q)
        h = 1e-3
        expected = smoothed_link_time(v, qs, tf, cm, p)
        for a in range(3):
            step = np.zeros(3)
            step[a] = h
            fd = (objective(v + step, qs, tf, cm, p) - objective(v - step, qs, tf, cm, p)) / (
                2 * h
            )
            assert fd == pytest.approx(expected[a], rel=1e-6)


class TestMerit:
    def _params(self, path_set):
        return CostParams().for_links(path_set.network.links)

    def test_zero_at_equilibrium(self, six_node, base_state):
        j = merit(
            six_node, base_state.path_flows, base_state.queue_alloc, self._params(six_node)
        )
        assert j == pytest.approx(0.0, abs=1e-6)

    def test_positive_at_capacity_free_ue(self, six_node, traditional_solution):
        # Wardrop holds there, but link 4 discharges 70 veh/h over C_max
        state = traditional_solution[0]
        params = self._params(six_node)
        assert merit(
            six_node, state.path_flows, state.queue_alloc, params, capacity_bound=False,
        ) == pytest.approx(0.0, abs=1e-6)
        assert merit(six_node, state.path_flows, state.queue_alloc, params) > 1.0

    def test_unequal_queue_sharing_is_penalized(self, six_node, base_state):
        # move the bottleneck queue onto one of its two paths: flows, link
        # totals and complementarity are unchanged, FIFO sharing is not
        i4 = six_node.link_index("4")
        qa = dense_queues(six_node, base_state.queue_alloc)
        qa[i4, 1] += qa[i4, 3]
        qa[i4, 3] = 0.0
        params = self._params(six_node)
        assert merit(six_node, base_state.path_flows, per_entry(six_node, qa), params) > merit(
            six_node, base_state.path_flows, base_state.queue_alloc, params
        ) + 1.0


#: criterion 9a's parameters, a linear running time under a quadratic
#: delay, the m = 0.5, gamma = 0.9 case whose (Q/C)**(m-1) is steep near
#: Q = 0, a running time concave in v, and a steep one
SLOPE_PARAMS = (
    {}, {"m": 2.0, "n": 1.0}, {"m": 0.5, "gamma": 0.9}, {"n": 0.5}, {"n": 8.0, "beta": 2.0},
)


def _grid():
    return enumerate_paths(fixtures.grid_network(6, 8, 1200.0), k=3)


def _one_link_off(k, slope):
    """(name, function) of `cost` to patch so that link k's `slope` is 1%
    off: "generalized" or "marginal", `_flow_part`'s flow slope under that
    pricing, or "queue", `_queue_response_slope`."""
    if slope == "queue":
        response = cost._queue_response_slope

        def off(*args):
            out = response(*args).copy()
            out[k] *= 1.01
            return out

        return "_queue_response_slope", off
    flow_part = cost._flow_part

    def off(v, qp, system_optimum):
        t, t_v = flow_part(v, qp, system_optimum)
        if system_optimum == (slope == "marginal"):
            t_v = t_v.copy()
            t_v[k] *= 1.01
        return t, t_v

    return "_flow_part", off


class TestGradient:
    def test_matches_finite_differences(self, six_node):
        # the slopes the GP step divides by, on every link, over criterion
        # 9a's draw on six-node and on a 6x6 grid
        for path_set in (six_node, _grid()):
            rng = np.random.default_rng(2024)
            for overrides in SLOPE_PARAMS:
                params = CostParams(**overrides).for_links(path_set.network.links)
                for _ in range(20):
                    f, qa = feasible_random_state(path_set, rng)
                    assert gradient_check(path_set, f, qa, params) <= 1e-5, overrides

    def test_a_gradient_one_percent_off_fails(self, six_node, monkeypatch):
        # negative control: the check catches any one link's slope 1% off,
        # the flow slope under either pricing and the queue-response slope;
        # it probes a flow slope where v > 0 and a queue slope where
        # Q/C >= QUEUE_RATIO_FLOOR
        rng = np.random.default_rng(2024)
        for path_set in (six_node, _grid()):
            for overrides in ({}, {"m": 0.5, "gamma": 0.9}):
                params = CostParams(**overrides).for_links(path_set.network.links)
                f, qa = feasible_random_state(path_set, rng)
                _, q, _, v = assemble_link_state(path_set, f, qa)
                ratio = q / capacity(q, path_set.c_max, params)
                probed = [
                    (k, slope)
                    for k in range(path_set.n_links)
                    for slope, on in (
                        ("generalized", v[k] > 0),
                        ("marginal", v[k] > 0),
                        ("queue", ratio[k] >= QUEUE_RATIO_FLOOR),
                    )
                    if on
                ]
                assert {slope for _, slope in probed} == {"generalized", "marginal", "queue"}
                for k, slope in probed:
                    with monkeypatch.context() as patch:
                        patch.setattr(cost, *_one_link_off(k, slope))
                        assert gradient_check(path_set, f, qa, params) > 1e-5, (k, slope)

"""Parameter and demand sweeps with trend auditing."""

from dataclasses import replace

import numpy as np
import pytest

from queuenet.net import PathSet
from queuenet.sweep import SweepSpec, demand_sweep, run_sweep, trend, trend_check

# Published sensitivity results for the bottleneck link of the six-node
# scenario: (parameter value, link flow veh/hr, residual queue veh/hr).
M_SWEEP_REFERENCE = [
    (0.5, 2395.0, 9.0),
    (1.0, 2350.0, 99.0),
    (2.0, 2276.0, 247.0),
    (3.0, 2253.0, 295.0),
    (4.0, 2248.0, 304.0),
    (5.0, 2247.0, 306.0),
    (6.0, 2247.0, 306.0),
]
N_SWEEP_REFERENCE = [
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


@pytest.fixture(scope="module")
def i4(six_node):
    return six_node.link_index("4")


@pytest.fixture(scope="module")
def m_rows(six_node):
    values = tuple(v for v, _, _ in M_SWEEP_REFERENCE)
    return run_sweep(six_node, SweepSpec("m", values))


@pytest.fixture(scope="module")
def n_rows(six_node):
    values = tuple(v for v, _, _ in N_SWEEP_REFERENCE)
    return run_sweep(six_node, SweepSpec("n", values))


class TestParameterSweeps:
    def test_m_sweep_matches_reference(self, m_rows, i4):
        for row, (m, flow, queue) in zip(m_rows, M_SWEEP_REFERENCE):
            assert row.converged, f"m={m} did not converge"
            assert row.throughflows[i4] == pytest.approx(flow, rel=0.01)
            assert row.link_queues[i4] == pytest.approx(queue, abs=5.0)

    def test_m_sweep_trends(self, m_rows, i4):
        flows = [r.throughflows[i4] for r in m_rows]
        queues = [r.link_queues[i4] for r in m_rows]
        report = trend_check(
            {"flow": flows, "queue": queues},
            {"flow": "nonincreasing", "queue": "nondecreasing"},
            tolerance=0.5,
        )
        assert report.passed, report.violations

    def test_n_sweep_matches_reference(self, n_rows, i4):
        for row, (n, flow, queue) in zip(n_rows, N_SWEEP_REFERENCE):
            assert row.converged, f"n={n} did not converge"
            assert row.throughflows[i4] == pytest.approx(flow, rel=0.01)
            if n <= 2.0:
                assert row.link_queues[i4] == 0.0
            else:
                assert row.link_queues[i4] == pytest.approx(queue, abs=5.0)

    def test_gamma_sweep_trends(self, six_node, i4):
        rows = run_sweep(six_node, SweepSpec("gamma", (0.0, 0.2, 0.5, 0.7, 0.9)))
        assert all(r.converged for r in rows)
        flows = [r.throughflows[i4] for r in rows]
        queues = [r.link_queues[i4] for r in rows]
        delays = [r.queue_delays[i4] for r in rows]
        report = trend_check(
            {"flow": flows, "queue": queues, "delay": delays},
            {"flow": "decreasing", "queue": "increasing", "delay": "increasing"},
        )
        assert report.passed, report.violations
        # a rigid-capacity bottleneck discharges exactly at its physical cap
        assert flows[0] == pytest.approx(2400.0, abs=1.0)

    def test_rows_independent_of_order(self, six_node, i4):
        fwd = run_sweep(six_node, SweepSpec("m", (1.0, 2.0)))
        rev = run_sweep(six_node, SweepSpec("m", (2.0, 1.0)))
        assert fwd[0].throughflows[i4] == rev[1].throughflows[i4]
        assert fwd[1].throughflows[i4] == rev[0].throughflows[i4]

    def test_bad_parameter_rejected(self):
        with pytest.raises(ValueError, match="parameter"):
            SweepSpec("speed", (1.0,))
        with pytest.raises(ValueError, match="at least one"):
            SweepSpec("m", ())


@pytest.fixture(scope="module")
def demand_rows(six_node):
    values = np.arange(1000.0, 6001.0, 250.0)
    base = [od.demand for od in six_node.network.od_pairs]
    assert base == [3000.0, 3000.0]
    return demand_sweep(six_node, values, od_index=0)


class TestDemandSweep:
    def test_all_points_converged(self, demand_rows):
        assert all(r.converged for r in demand_rows)

    def test_od_index_bounds(self, six_node):
        with pytest.raises(ValueError, match="od_index"):
            demand_sweep(six_node, [1000.0], od_index=5)

    def test_other_od_demand_untouched(self, six_node, demand_rows):
        g2 = six_node.od_groups[1]
        for r in demand_rows:
            assert r.path_flows[g2].sum() == pytest.approx(3000.0, abs=1e-6)


class TestTrendHelpers:
    def test_trend_classifier(self):
        assert trend([1.0, 2.0, 3.0]) == "increasing"
        assert trend([3.0, 1.0, 0.0]) == "decreasing"
        assert trend([1.0, 1.0, 1.0]) == "flat"

    def test_trend_check_missing_series(self):
        report = trend_check({}, {"flow": "increasing"})
        assert not report.passed
        assert "missing" in report.violations[0]

    def test_trend_check_unknown_direction(self):
        with pytest.raises(ValueError, match="unknown trend"):
            trend_check({"a": [1.0, 2.0]}, {"a": "sideways"})

    def test_trend_check_tolerance(self):
        report = trend_check(
            {"a": [1.0, 1.0 + 1e-9]}, {"a": "flat"}, tolerance=1e-6
        )
        assert report.passed


def test_min_od_costs_are_the_cheapest_path_costs(six_node):
    # one entry per OD pair, NaN for a (zero-demand) pair without a path
    od0, od1 = six_node.network.od_pairs
    network = six_node.network.with_demands([od0, replace(od1, demand=0.0)])
    cut = PathSet(network, [p for p in six_node.paths if p.od_index == 0])
    (row,) = demand_sweep(cut, [2500.0])
    loop = [row.path_costs[g].min() if len(g) else np.nan for g in cut.od_groups]
    np.testing.assert_array_equal(row.min_od_costs, loop)
    assert np.isnan(row.min_od_costs[1])

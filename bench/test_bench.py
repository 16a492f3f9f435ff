"""Tests of the benchmark itself (not part of the package's test suite).

    python -m pytest bench/test_bench.py

The smoke test runs the benchmark command at a tiny size: a 5x5 grid with
3 OD pairs and a 3-point sweep.
"""
from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import audit  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from queuenet import fixtures  # noqa: E402
from queuenet.analysis import kkt_report  # noqa: E402
from queuenet.net import load_demands, load_network, load_path_set  # noqa: E402
from queuenet.solver import SolverOptions, solve  # noqa: E402

SIX_NODE_DEMANDS = [3000.0, 3000.0]


def _audit(state, report):
    return audit.audit(state, report.converged, kkt_report(state), SIX_NODE_DEMANDS)


def test_audit_passes_fixed_point_solve():
    state, report = solve(fixtures.six_node_path_set())
    assert _audit(state, report) == []


def test_negative_control_smoothed_mode_fails_audit():
    # known defect: smoothed mode reports converged with v4 = 2470 > 2400
    state, report = solve(
        fixtures.six_node_path_set(), options=SolverOptions(queue_mode="smoothed_gradient")
    )
    assert report.converged
    reasons = _audit(state, report)
    assert any("exceeds C(Q)" in r for r in reasons), reasons


def test_audit_flags_constructed_violations():
    state, report = solve(fixtures.six_node_path_set())
    over = state.throughflows.copy()
    over[state.path_set.link_index("4")] = 2470.0
    assert any("exceeds C(Q)" in r for r in _audit(replace(state, throughflows=over), report))
    short = state.path_flows * 0.99
    assert any("demand" in r for r in _audit(replace(state, path_flows=short), report))
    assert "not converged" in audit.audit(
        state, False, kkt_report(state), SIX_NODE_DEMANDS
    )


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_a_crashing_solve_fails_every_solve_of_the_run(name, tmp_path, monkeypatch):
    def crash(*args, **kwargs):
        raise ValueError("infeasible state")

    monkeypatch.setattr(worker.solver, "solve", crash)
    monkeypatch.setattr(worker.sweep, "solve", crash)
    sc = worker.scenario(name, 1, "tiny")
    worker.write_inputs(sc, tmp_path)
    op = worker.run_op(sc, tmp_path, worker.Tracer("test", enabled=False))
    assert len(op.solved) == max(1, len(sc.sweep_values))
    assert all("raised ValueError" in s.failures[0] for s in op.solved)


def test_times_are_scaled_by_the_calibration_around_them(monkeypatch):
    samples = iter([0.002, 0.006, 0.004])
    monkeypatch.setattr(worker, "calibration_s", lambda: next(samples))
    cal = worker.Calibrated()
    # a host at half the reference speed halves the scale, and so on
    assert cal.next_scale() == pytest.approx(worker.CALIBRATION_REF_S / 0.004)
    assert cal.next_scale() == pytest.approx(worker.CALIBRATION_REF_S / 0.005)


def _load(sc: workloads.Scenario):
    def text(name):
        return io.StringIO(sc.files[name])

    network = load_demands(text("demands.csv"), load_network(text("nodes.csv"), text("links.csv")))
    return network, (load_path_set(text("paths.csv"), network) if sc.has_paths_file else None)


@pytest.mark.parametrize("name", ["grid15_enum", "grid20_paths"])
def test_seed_relabels_grid_workloads(name):
    a = workloads.make(name, 1, worker.TINY_GRID)
    b = workloads.make(name, 2, worker.TINY_GRID)
    assert a.files["demands.csv"] != b.files["demands.csv"]
    assert a.files == workloads.make(name, 1, worker.TINY_GRID).files
    net_a, paths_a = _load(a)
    net_b, paths_b = _load(b)
    # different labels, same instance: links agree once mapped back
    base = lambda sc, net: sorted(  # noqa: E731
        (sc.base_link_id[l.id], l.capacity, l.free_flow_time) for l in net.links
    )
    assert base(a, net_a) == base(b, net_b)
    assert a.demands == b.demands
    if name == "grid20_paths":
        assert a.files["paths.csv"] != b.files["paths.csv"]
        mapped = lambda sc, ps: sorted(  # noqa: E731
            tuple(sc.base_link_id[lid] for lid in p.links) for p in ps.paths
        )
        assert mapped(a, paths_a) == mapped(b, paths_b)


def test_seed_leaves_six_node_unchanged():
    a = workloads.make("sixnode_demand_sweep", 1)
    b = workloads.make("sixnode_demand_sweep", 2)
    assert a.files == b.files and a.sweep_values == b.sweep_values


def test_staircase_paths_are_monotone_and_distinct():
    network = fixtures.grid_network(5, 3, 600.0)
    paths = workloads.staircase_paths(network)
    links = {l.id: l for l in network.links}
    for i, od in enumerate(network.od_pairs):
        mine = [p.links for p in paths if p.od_index == i]
        assert 1 <= len(mine) <= 3 and len(set(mine)) == len(mine)
        (r1, c1), (r2, c2) = (map(int, n[1:].split("_")) for n in (od.origin, od.destination))
        for p in mine:
            assert len(p) == abs(r2 - r1) + abs(c2 - c1)
            assert links[p[0]].tail == od.origin and links[p[-1]].head == od.destination


def test_workload_lists_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS == run.WORKLOADS


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(name, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    proc = _run(
        "bench/run.py", "--workload", name, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        run_dir = worker.OUT_DIR / f"tiny-{name}-seed3"
        assert (run_dir / "spans.jsonl").is_file()
        table = (run_dir / "self_time.txt").read_text()
        assert "tracemalloc" in table and "tracing" in table


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = _run(
        "bench/run.py", "--workload", "grid15_enum", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
